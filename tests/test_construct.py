import numpy as np
import pytest

from isosym import construct
from isosym.classify import is_isosymmetric, is_m_isometric, is_n_symmetric
from isosym.construct import (MAX_BUILT_DIM, JordanAugmentSpec,
                              ScaledTupleSpec, identity_tuple,
                              jordan_augment, jordan_augment_parts,
                              nilpotent_tuple, random_commuting_tuple,
                              reference_pair, scaled_tuple, tensor_sum,
                              tensor_sum_parts)
from isosym.defect import (MultiOperator, cross_commutation_residual,
                           isosymmetry_defect, isosymmetry_defect_matrix,
                           symmetry_defect)
from isosym.errors import BetaNotNormalized, DMismatch, InvalidParams, \
    TooLarge
from isosym.linalg import fro_norm
from isosym.multiindex import multi_indices

from oracles import gamma_power, naive_lambda


JORDAN_ONE = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


class TestScaledTuple:
    def test_beta_must_be_normalized(self):
        with pytest.raises(BetaNotNormalized):
            ScaledTupleSpec(base=np.eye(2), beta=(1.0, 1.0))

    def test_isometry_spreads_over_slots(self):
        r = scaled_tuple(ScaledTupleSpec(base=np.eye(1), beta=(0.6, 0.8)))
        assert is_m_isometric(r, 1).holds

    def test_jordan_base_stays_3_isometric(self):
        beta = (1.0 / np.sqrt(2),) * 2
        r = scaled_tuple(ScaledTupleSpec(base=JORDAN_ONE, beta=beta))
        for n in range(3):
            assert isosymmetry_defect(r, 3, n).is_zero

    def test_hermitian_base_1_symmetric(self):
        base = np.array([[1.0, 2.0], [2.0, -3.0]], dtype=complex)
        beta = (1.0 / np.sqrt(2),) * 2
        r = scaled_tuple(ScaledTupleSpec(base=base, beta=beta))
        assert is_n_symmetric(r, 1).holds

    def test_defect_scaling_identity(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        beta = rng.standard_normal(3)
        beta = tuple(beta / np.linalg.norm(beta))
        r = scaled_tuple(ScaledTupleSpec(base=base, beta=beta))
        for m in range(3):
            for n in range(3):
                got = isosymmetry_defect_matrix(r, m, n)
                expect = sum(beta) ** n * naive_lambda([base], m, n)
                assert fro_norm(got - expect) <= 1e-9 * (1 + fro_norm(expect))


class TestReferencePair:
    def test_exact_matrices(self):
        r = reference_pair()
        expect = np.zeros((3, 3), dtype=complex)
        expect[1, 0] = 1.0
        assert np.array_equal(r.matrices[0], expect)
        assert np.array_equal(r.matrices[1], np.eye(3))

    def test_vanishing_pattern(self):
        r = reference_pair()
        assert is_isosymmetric(r, 1, 1).holds
        assert not is_m_isometric(r, 1).holds
        assert not is_n_symmetric(r, 1).holds


class TestTensorSum:
    def test_collapse_to_jordan_block(self):
        one = MultiOperator([np.eye(1, dtype=complex)])
        shift = MultiOperator([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
        out = tensor_sum(one, shift)
        assert np.array_equal(out.matrices[0], JORDAN_ONE)

    def test_dims_multiply(self):
        out = tensor_sum(reference_pair(), nilpotent_tuple(2, 2, 2, seed=1))
        assert out.dim == 6

    def test_d_mismatch(self):
        with pytest.raises(DMismatch):
            tensor_sum(reference_pair(), nilpotent_tuple(1, 2, 2, seed=1))

    def test_cross_parts_commute_at_rounding_level(self):
        left, right = tensor_sum_parts(reference_pair(),
                                       nilpotent_tuple(2, 3, 2, seed=2))
        assert cross_commutation_residual(left, right) <= 1e-13

    def test_theorem_orders(self):
        # (1,1)-isosymmetric base + 2-nilpotent factor -> (3,4) holds
        out = tensor_sum(reference_pair(), nilpotent_tuple(2, 2, 2, seed=3))
        assert isosymmetry_defect(out, 3, 4).is_zero


class TestJordanAugment:
    def test_smallest_case(self):
        one = MultiOperator([np.eye(1, dtype=complex)])
        out = jordan_augment(JordanAugmentSpec(base_tuple=one, mu=(1.0,), q=2))
        assert np.array_equal(out.matrices[0], JORDAN_ONE)

    def test_zero_mu_is_block_diagonal(self):
        base = reference_pair()
        out = jordan_augment(JordanAugmentSpec(base_tuple=base,
                                               mu=(0.0, 0.0), q=2))
        for k, mat in enumerate(out.matrices):
            expect = np.kron(np.eye(2), base.matrices[k])
            assert np.array_equal(mat, expect)
        # same verdict as the base at its orders
        assert isosymmetry_defect(out, 1, 1).is_zero

    def test_parts_decomposition(self):
        spec = JordanAugmentSpec(base_tuple=reference_pair(),
                                 mu=(1.0, 1.0 + 0.5j), q=2)
        diag, nil = jordan_augment_parts(spec)
        combined = jordan_augment(spec)
        for a, b, c in zip(diag.matrices, nil.matrices, combined.matrices):
            assert np.array_equal(a + b, c)
        assert cross_commutation_residual(diag, nil) <= 1e-13
        for alpha in multi_indices(nil.d, spec.q):
            assert fro_norm(gamma_power(list(nil.matrices), alpha)) == 0.0

    def test_reference_augmentation_orders(self):
        out = jordan_augment(JordanAugmentSpec(base_tuple=reference_pair(),
                                               mu=(1.0, 1.0), q=2))
        assert isosymmetry_defect(out, 3, 4).is_zero

    def test_mu_length_validated(self):
        with pytest.raises(InvalidParams):
            JordanAugmentSpec(base_tuple=reference_pair(), mu=(1.0,), q=2)


class TestBuiltDimLimit:
    """A jordan or tensor result above MAX_BUILT_DIM, or a seeded tuple of
    more than MAX_BUILT_DIM ** 2 entries, is refused before any of its
    arrays is allocated."""

    def test_jordan_refused(self, request):
        spec = JordanAugmentSpec(base_tuple=reference_pair(), mu=(1.0, 1.0),
                                 q=100000)
        request.getfixturevalue("no_construct_arrays")
        for build in (jordan_augment, jordan_augment_parts):
            with pytest.raises(TooLarge):
                build(spec)

    def test_tensor_refused(self, request):
        left = identity_tuple(2, 33)
        right = identity_tuple(2, MAX_BUILT_DIM // 32)
        request.getfixturevalue("no_construct_arrays")
        for build in (tensor_sum, tensor_sum_parts):
            with pytest.raises(TooLarge):
                build(left, right)

    @pytest.mark.parametrize("build", [
        lambda: nilpotent_tuple(2, 100000, 2, 0),
        lambda: nilpotent_tuple(100000, 64, 2, 0),
        lambda: nilpotent_tuple(257, 64, 2, 0),
        lambda: random_commuting_tuple(100000, 64, 0),
        lambda: random_commuting_tuple(257, 64, 0),
    ], ids=["nilpotent-dim", "nilpotent-d", "nilpotent-entries", "random-d",
            "random-entries"])
    def test_seeded_tuple_refused(self, request, build):
        request.getfixturevalue("no_construct_arrays")
        with pytest.raises(TooLarge):
            build()

    def test_limit_is_inclusive(self):
        construct._check_built_dim(MAX_BUILT_DIM, "tuple")
        with pytest.raises(TooLarge):
            construct._check_built_dim(MAX_BUILT_DIM + 1, "tuple")
        construct._check_built_entries(256, 64, "tuple")  # 1024 ** 2 entries
        with pytest.raises(TooLarge):
            construct._check_built_entries(257, 64, "tuple")


class TestNilpotentTuple:
    def test_d1_dim2_is_scaled_shift(self):
        r = nilpotent_tuple(1, 2, 2, seed=4)
        mat = r.matrices[0]
        assert mat[1, 0] == 0 and mat[0, 0] == 0 and mat[1, 1] == 0
        assert mat[0, 1] != 0

    def test_vanishing_products_exact(self):
        for q in (1, 2, 3):
            r = nilpotent_tuple(2, 5, q, seed=q + 10)
            for alpha in multi_indices(2, q):
                assert fro_norm(gamma_power(list(r.matrices), alpha)) == 0.0
            # exact order: some product of degree q-1 survives
            if q > 1:
                worst = max(fro_norm(gamma_power(list(r.matrices), alpha))
                            for alpha in multi_indices(2, q - 1))
                assert worst > 0.0

    def test_symmetry_defect_vanishes_at_twice_order(self):
        r = nilpotent_tuple(3, 4, 2, seed=15)
        assert symmetry_defect(r, 4).norm == 0.0

    def test_deterministic(self):
        a = nilpotent_tuple(2, 4, 2, seed=99)
        b = nilpotent_tuple(2, 4, 2, seed=99)
        for x, y in zip(a.matrices, b.matrices):
            assert np.array_equal(x, y)

    def test_order_validation(self):
        with pytest.raises(InvalidParams):
            nilpotent_tuple(1, 2, 3, seed=0)


class TestRandomCommutingTuple:
    def test_commutes_within_invariant(self):
        r = random_commuting_tuple(3, 8, 123)
        assert r.commutation_residual <= 1e-10

    def test_deterministic_bit_identical(self):
        a = random_commuting_tuple(3, 6, 77)
        b = random_commuting_tuple(3, 6, 77)
        for x, y in zip(a.matrices, b.matrices):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = random_commuting_tuple(2, 4, 1)
        b = random_commuting_tuple(2, 4, 2)
        assert not np.array_equal(a.matrices[0], b.matrices[0])

    def test_d1_any_matrix(self):
        r = random_commuting_tuple(1, 5, 7)
        assert r.d == 1 and r.commutation_residual == 0.0

    def test_dim_cap(self):
        with pytest.raises(InvalidParams):
            random_commuting_tuple(1, 65, 0)
