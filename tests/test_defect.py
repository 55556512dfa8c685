import math

import numpy as np
import pytest

from isosym import defect
from isosym.defect import (DefectTable, MultiOperator, isometry_defect,
                           isometry_defect_matrix, isosymmetry_defect,
                           isosymmetry_defect_matrix, nilpotency_residual,
                           op_sum, perturbation_expansion, raise_isometry_order,
                           raise_symmetry_order, symmetry_defect,
                           symmetry_defect_matrix, zero_tolerance)
from isosym.construct import (JordanAugmentSpec, identity_tuple,
                              jordan_augment_parts, nilpotent_tuple,
                              reference_pair, random_commuting_tuple,
                              tensor_sum_parts)
from isosym.errors import (CommutationViolated, CrossCommutationViolated,
                           DimensionMismatch, FormsDisagree, InvalidParams,
                           TooLarge)
from isosym.linalg import adjoint, fro_norm
from isosym.multiindex import multi_indices, trinomial_coeff

from oracles import (degree_indices, expansion_terms, gamma_power,
                     naive_expansion, naive_lambda, naive_m, naive_s)


def _noncommuting_pair():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 2.0]])
    return [a, b]


class TestMultiOperator:
    def test_rejects_noncommuting(self):
        with pytest.raises(CommutationViolated):
            MultiOperator(_noncommuting_pair())

    def test_loose_tolerance_admits(self):
        op = MultiOperator(_noncommuting_pair(), tol_comm=1.0)
        assert op.commutation_residual > 1e-2

    @pytest.mark.parametrize("tol_comm", [defect.TOL_COMM, np.inf])
    def test_rejects_overflowing_norms(self, tol_comm):
        # ||A|| = ||B|| = 1e160 overflow once squared; AB != BA
        a = np.array([[0.0, 1e160], [0.0, 0.0]])
        with pytest.raises(TooLarge):
            MultiOperator([a, a.T], tol_comm=tol_comm)

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_commuting_tuple_at_a_large_scale_loads(self, scale):
        # ||AB - BA|| overflows once squared, its relative size is rounding
        r = MultiOperator([scale * m for m in
                           random_commuting_tuple(2, 4, 1).matrices])
        assert type(r.commutation_residual) is float
        assert r.commutation_residual <= 1e-15

    def test_commuting_tuple_whose_norms_overflow_is_too_large(self):
        with pytest.raises(TooLarge):
            MultiOperator([1e160 * m for m in
                           random_commuting_tuple(2, 4, 1).matrices])

    def test_cross_commutation_residual_is_relative_at_any_scale(self):
        # [R_1, R_2*] != 0: the same relative residual where its norm
        # overflows once squared (1e100) as where it does not (1e50)
        base = random_commuting_tuple(2, 4, 1).matrices
        small, large = (MultiOperator([s * m for m in base])
                        for s in (1e50, 1e100))
        assert defect.cross_commutation_residual(large, large) == \
            pytest.approx(defect.cross_commutation_residual(small, small),
                          rel=1e-12)

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            MultiOperator([np.eye(2), np.eye(3)])

    def test_immutable(self):
        op = identity_tuple(2, 3)
        with pytest.raises(AttributeError):
            op.dim = 5
        with pytest.raises(ValueError):
            op.matrices[0][0, 0] = 2.0

    def test_exactly_commuting_residual_zero(self):
        assert reference_pair().commutation_residual == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_max_norm_is_largest_component_norm(self, d):
        op = random_commuting_tuple(d, 4, 40 + d)
        op = MultiOperator([(j + 1) * m for j, m in enumerate(op.matrices)])
        assert op.max_norm() == max(fro_norm(m) for m in op.matrices)
        with pytest.raises(AttributeError):
            op._max_norm = 0.0


def test_op_sum_reference():
    expect = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    assert np.array_equal(op_sum(reference_pair()), expect)


def test_op_sum_zero_and_scaled():
    zero = MultiOperator([np.zeros((2, 2))] * 3)
    assert np.array_equal(op_sum(zero), np.zeros((2, 2)))
    r = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    scaled = MultiOperator([0.6 * r, 0.8 * r])
    assert np.allclose(op_sum(scaled), 1.4 * r)


@pytest.mark.usefixtures("kernel")
class TestSymmetryDefect:
    def test_identity_is_1_symmetric(self):
        rep = symmetry_defect(identity_tuple(1, 3), 1)
        assert rep.is_zero and rep.norm == 0.0

    def test_reference_value(self):
        rep = symmetry_defect(reference_pair(), 1)
        expect = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
        assert np.array_equal(rep.matrix, expect)
        assert not rep.is_zero
        assert rep.norm == pytest.approx(np.sqrt(2.0))

    def test_nilpotent_vanishes_at_twice_order(self):
        for q in (1, 2, 3):
            r = nilpotent_tuple(2, 2 * q, q, seed=q)
            assert symmetry_defect(r, 2 * q - 1).norm == 0.0
            assert symmetry_defect(r, 2 * q).norm == 0.0
            assert symmetry_defect(r, 2 * q + 1).norm == 0.0

    def test_s1_antihermitian(self):
        r = random_commuting_tuple(3, 5, 17)
        s1 = symmetry_defect_matrix(r, 1)
        assert fro_norm(adjoint(s1) + s1) <= 1e-12

    def test_against_oracle(self):
        r = random_commuting_tuple(2, 4, 23)
        for l in range(5):
            got = symmetry_defect_matrix(r, l)
            expect = naive_s(list(r.matrices), l)
            assert fro_norm(got - expect) <= 1e-10 * (1 + fro_norm(expect))

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParams):
            symmetry_defect(reference_pair(), -1)


@pytest.mark.usefixtures("kernel")
class TestIsometryDefect:
    def test_identity_is_1_isometric(self):
        rep = isometry_defect(identity_tuple(1, 4), 1)
        assert rep.is_zero and rep.norm == 0.0

    def test_reference_value(self):
        rep = isometry_defect(reference_pair(), 1)
        assert np.array_equal(rep.matrix, np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert not rep.is_zero

    def test_hermitian_output(self):
        r = random_commuting_tuple(3, 5, 29)
        for l in range(4):
            m = isometry_defect_matrix(r, l)
            assert fro_norm(m - adjoint(m)) <= 1e-11 * (1 + fro_norm(m))

    def test_scaled_tuple_collapses_to_single_operator(self):
        # the multinomial weights contract over normalized direction weights
        rng = np.random.default_rng(31)
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        beta = np.array([3.0, 4.0]) / 5.0
        scaled = MultiOperator([b * base for b in beta])
        single = MultiOperator([base])
        for m in range(4):
            got = isometry_defect_matrix(scaled, m)
            expect = isometry_defect_matrix(single, m)
            assert fro_norm(got - expect) <= 1e-10 * (1 + fro_norm(expect))

    def test_against_oracle(self):
        r = random_commuting_tuple(3, 4, 37)
        for l in range(4):
            got = isometry_defect_matrix(r, l)
            expect = naive_m(list(r.matrices), l)
            assert fro_norm(got - expect) <= 1e-10 * (1 + fro_norm(expect))

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParams):
            isometry_defect(reference_pair(), -2)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(InvalidParams):
            isometry_defect(reference_pair(), 1, tol=float("nan"))


@pytest.mark.usefixtures("kernel")
class TestIsosymmetryDefect:
    def test_reference_is_1_1(self):
        rep = isosymmetry_defect(reference_pair(), 1, 1)
        assert rep.is_zero and rep.norm == 0.0

    def test_collapses_to_isometry_and_symmetry(self):
        r = random_commuting_tuple(2, 5, 41)
        for order in range(4):
            lam_m = isosymmetry_defect_matrix(r, order, 0)
            lam_s = isosymmetry_defect_matrix(r, 0, order)
            assert fro_norm(lam_m - isometry_defect_matrix(r, order)) <= 1e-10
            assert fro_norm(lam_s - symmetry_defect_matrix(r, order)) <= 1e-10

    def test_zero_tuple(self):
        zero = MultiOperator([np.zeros((3, 3))] * 2)
        for m in range(4):
            assert isosymmetry_defect(zero, m, 1).is_zero

    def test_special_cases_of_low_orders(self):
        # L_{1,0} = sum R*R - I ; L_{0,1} = sum (R* - R); and the two
        # displayed shapes of L_{1,1} agree
        r = random_commuting_tuple(3, 4, 43)
        mats = r.matrices
        eye = np.eye(4)
        l10 = sum(adjoint(a) @ a for a in mats) - eye
        assert fro_norm(isosymmetry_defect_matrix(r, 1, 0) - l10) <= 1e-11
        l01 = sum(adjoint(a) - a for a in mats)
        assert fro_norm(isosymmetry_defect_matrix(r, 0, 1) - l01) <= 1e-11
        total = op_sum(r)
        m1 = sum(adjoint(a) @ a for a in mats) - eye
        form_a = adjoint(total) @ m1 - m1 @ total
        s1 = sum(adjoint(a) - a for a in mats)
        form_b = sum(adjoint(a) @ s1 @ a for a in mats) - s1
        assert fro_norm(form_a - form_b) <= 1e-11
        assert fro_norm(isosymmetry_defect_matrix(r, 1, 1) - form_a) <= 1e-11

    def test_against_oracle(self):
        r = random_commuting_tuple(2, 4, 47)
        for m in range(3):
            for n in range(3):
                got = isosymmetry_defect_matrix(r, m, n)
                expect = naive_lambda(list(r.matrices), m, n)
                assert fro_norm(got - expect) <= 1e-10 * (1 + fro_norm(expect))

    @pytest.mark.parametrize("m, n", [(-1, 2), (2, -1)])
    def test_negative_order_rejected(self, m, n):
        with pytest.raises(InvalidParams):
            isosymmetry_defect(reference_pair(), m, n)

    def test_negative_tolerance_rejected(self):
        # not a FormsDisagree: no gap is within a negative tolerance
        with pytest.raises(InvalidParams):
            isosymmetry_defect(reference_pair(), 1, 1, tol=-1)

    @pytest.mark.parametrize("tol", [True, np.True_])
    def test_boolean_tolerance_rejected(self, tol):
        # not read as the tolerance 1
        with pytest.raises(InvalidParams, match="tol"):
            isosymmetry_defect(reference_pair(), 1, 1, tol=tol)

    @pytest.mark.parametrize("order", [True, np.True_, 1.0],
                             ids=["bool", "np-bool", "float"])
    @pytest.mark.parametrize("read", [
        lambda r, k: isosymmetry_defect(r, k, 1),
        lambda r, k: isosymmetry_defect(r, 1, k),
        isometry_defect, symmetry_defect,
    ], ids=["m", "n", "M", "S"])
    def test_order_that_is_no_integer_rejected(self, read, order):
        # a boolean is not read as the order 1
        with pytest.raises(TypeError, match="not an int"):
            read(reference_pair(), order)

    def test_numpy_integer_order_accepted(self):
        r = reference_pair()
        got = isosymmetry_defect(r, np.int64(2), np.int64(1))
        assert got.orders == (2, 1)
        assert np.array_equal(got.matrix, isosymmetry_defect(r, 2, 1).matrix)

    def test_forms_disagree_on_corrupted_input(self):
        bad = MultiOperator(_noncommuting_pair(), tol_comm=1.0)
        with pytest.raises(FormsDisagree):
            isosymmetry_defect_matrix(bad, 2, 2)

    def test_report_invariants(self):
        r = random_commuting_tuple(2, 4, 53)
        rep = isosymmetry_defect(r, 1, 2)
        assert rep.norm == fro_norm(rep.matrix)
        assert rep.is_zero == (rep.norm <= rep.tolerance_used)
        assert rep.tolerance_used == zero_tolerance(r, 1, 2)


@pytest.mark.usefixtures("kernel")
class TestRecurrenceSteps:
    def test_step_of_vanished_defect_vanishes(self):
        r = reference_pair()
        assert fro_norm(raise_isometry_order(r, 1, 1)) == 0.0
        assert fro_norm(raise_symmetry_order(r, 1, 1)) == 0.0

    def test_identity_steps(self):
        r = identity_tuple(1, 3)
        assert fro_norm(raise_isometry_order(r, 0, 0)) == 0.0
        assert fro_norm(raise_symmetry_order(r, 0, 0)) == 0.0

    def test_steps_match_direct_evaluation(self):
        r = random_commuting_tuple(3, 5, 59)
        for m in range(3):
            for n in range(3):
                up_m = raise_isometry_order(r, m, n)
                up_n = raise_symmetry_order(r, m, n)
                direct_m = isosymmetry_defect_matrix(r, m + 1, n)
                direct_n = isosymmetry_defect_matrix(r, m, n + 1)
                assert fro_norm(up_m - direct_m) <= 1e-10 * (1 + fro_norm(direct_m))
                assert fro_norm(up_n - direct_n) <= 1e-10 * (1 + fro_norm(direct_n))

    def test_ascent_on_reference(self):
        r = reference_pair()
        for m in range(1, 4):
            for n in range(1, 4):
                assert isosymmetry_defect(r, m, n).is_zero


@pytest.mark.usefixtures("kernel")
class TestPerturbationExpansion:
    def test_zero_perturbation_reduces_to_base(self):
        r = random_commuting_tuple(2, 4, 61)
        q = MultiOperator([np.zeros((4, 4))] * 2)
        for m, n in [(0, 0), (1, 1), (2, 1), (2, 3)]:
            got = perturbation_expansion(r, q, m, n)
            expect = isosymmetry_defect_matrix(r, m, n)
            assert fro_norm(got - expect) <= 1e-10 * (1 + fro_norm(expect))

    def test_zero_base_identity_orders(self):
        zero = MultiOperator([np.zeros((3, 3))] * 2)
        q = nilpotent_tuple(2, 3, 2, seed=2)
        got = perturbation_expansion(zero, q, 0, 0)
        assert np.array_equal(got, np.eye(3, dtype=complex))

    def test_matches_direct_on_tensor_instances(self):
        p = random_commuting_tuple(2, 3, 67)
        nil = nilpotent_tuple(2, 3, 2, seed=68)
        left, right = tensor_sum_parts(p, nil)
        total = MultiOperator([a + b for a, b in
                               zip(left.matrices, right.matrices)])
        for m in range(4):
            for n in range(6):
                lhs = isosymmetry_defect_matrix(total, m, n)
                rhs = perturbation_expansion(left, right, m, n)
                assert fro_norm(lhs - rhs) <= 1e-9 * (1 + fro_norm(lhs))

    @pytest.mark.parametrize("m, n", [(-1, 1), (1, -1)])
    def test_negative_order_rejected(self, m, n):
        r = reference_pair()
        with pytest.raises(InvalidParams):
            perturbation_expansion(r, r, m, n)

    def test_rejects_cross_commutation_violation(self):
        r = MultiOperator([np.array([[0.0, 1.0], [0.0, 0.0]])])
        q = MultiOperator([np.diag([1.0, 2.0])])
        with pytest.raises(CrossCommutationViolated):
            perturbation_expansion(r, q, 1, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_perturbation_expansion_matches_naive_expansion(d):
    """Against the term-by-term enumeration over (alpha, gamma, k)."""
    left, right = tensor_sum_parts(random_commuting_tuple(d, 2, 70 + d),
                                   random_commuting_tuple(d, 2, 80 + d))
    for m in range(4):
        for n in range(4):
            got = perturbation_expansion(left, right, m, n)
            expect = naive_expansion(left.matrices, right.matrices, m, n)
            assert fro_norm(got - expect) <= 1e-12 * fro_norm(expect)


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_expansion_terms_are_every_pair_with_its_trinomial_coeff(d, m):
    """The oracle's expansion enumerates each (alpha, gamma, k) once."""
    terms = expansion_terms(d, m)
    for k in range(m + 1):
        pairs = [(alpha, gamma) for alpha, gamma, kk, _ in terms if kk == k]
        assert sorted(pairs) == sorted(
            (alpha, gamma) for a in range(m - k + 1)
            for alpha in multi_indices(d, a)
            for gamma in multi_indices(d, m - k - a))
    for alpha, gamma, k, weight in terms:
        assert weight == trinomial_coeff(m, alpha, gamma, k)


class TestOrdersTooLarge:
    """An order whose zero-test scale or binomial weights overflow a float
    is refused before any power ladder is grown or M-style step run."""

    @pytest.fixture(autouse=True)
    def no_ladders(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a power ladder or M-style step was built")
        monkeypatch.setattr(DefectTable, "_powers", refuse)
        monkeypatch.setattr(defect, "_multinomial_steps", refuse)

    def test_zero_test_scale_overflow(self):
        r = reference_pair()
        for m, n in [(400, 1), (0, 2000), (200, 200)]:
            with pytest.raises(TooLarge):
                zero_tolerance(r, m, n)
        with pytest.raises(TooLarge):
            isometry_defect(r, 400)
        with pytest.raises(TooLarge):
            symmetry_defect(r, 2000)
        with pytest.raises(TooLarge):
            isosymmetry_defect(r, 200, 200)

    def test_binomial_weight_overflow(self):
        zero = MultiOperator([np.zeros((2, 2))] * 2)
        assert zero_tolerance(zero, 1030, 1030) == 1e-8 * 2
        with pytest.raises(TooLarge):
            symmetry_defect(zero, 1030)
        with pytest.raises(TooLarge):
            isometry_defect(zero, 1030)
        with pytest.raises(TooLarge):
            isosymmetry_defect(zero, 0, 1030)
        with pytest.raises(TooLarge):
            symmetry_defect_matrix(zero, 2000)
        with pytest.raises(TooLarge):
            DefectTable(zero).prepare(1030, 0)
        with pytest.raises(TooLarge):
            perturbation_expansion(zero, zero, 1030, 0)

    def test_order_check_caches_its_weight_test(self):
        defect._weights_overflow.cache_clear()
        for _ in range(2):
            defect._check_orders(m=1029)
            with pytest.raises(TooLarge):
                defect._check_orders(n=1030)
        info = defect._weights_overflow.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_expansion_coefficient_overflow(self):
        # d = 1: every C(700, k) fits, but 700!/(a! g! k!) reaches 3^700
        zero = MultiOperator([np.zeros((2, 2))])
        with pytest.raises(TooLarge):
            perturbation_expansion(zero, zero, 700, 0)


def test_highest_order_weights_fit_a_float():
    assert np.isfinite(defect._alternating_weights(1029)).all()


@pytest.mark.parametrize("with_mid", [False, True])
def test_combine_of_sandwiches(with_mid):
    """The one reduction of every defect sum, within rounding of a loop."""
    rng = np.random.default_rng(2)
    t, n = 7, 4
    lefts = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    rights = rng.standard_normal((t, n, n)) + 1j * rng.standard_normal((t, n, n))
    weights = rng.standard_normal(t)
    mid = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           if with_mid else np.eye(n))
    out = defect._combine(weights, lefts @ mid @ rights if with_mid
                          else lefts @ rights)
    expect = np.zeros((n, n), dtype=complex)
    for i in range(t):
        term = lefts[i] @ mid @ rights[i]
        expect += weights[i] * term
    assert np.linalg.norm(out - expect) <= 1e-11 * (1 + np.linalg.norm(expect))


class TestNilpotencyResidual:
    # products of at most 4 factors of dim <= 6 round to ~1e-15 relative,
    # and the oracle multiplies in another order
    RTOL = 1e-12

    @staticmethod
    def _naive(r, k):
        """sqrt of sum (k!/alpha!) ||R^alpha||^2 over |alpha| = k."""
        return np.sqrt(sum(
            math.factorial(k) / math.prod(map(math.factorial, alpha))
            * np.linalg.norm(gamma_power(r.matrices, alpha)) ** 2
            for alpha in degree_indices(r.d, k)))

    @staticmethod
    def _naive_max(r, k):
        return max(np.linalg.norm(gamma_power(r.matrices, alpha))
                   for alpha in degree_indices(r.d, k))

    def _matches(self, r, k):
        """The oracle's value, inside the bracket by the largest product."""
        got = nilpotency_residual(r, k)
        assert got == pytest.approx(self._naive(r, k), rel=self.RTOL)
        largest = self._naive_max(r, k)
        assert largest * (1 - self.RTOL) <= got
        assert got <= r.d ** (k / 2) * largest * (1 + self.RTOL)
        return got

    def _check(self, r, q):
        """r is exactly q-nilpotent: zero at q, the oracle's value below."""
        assert nilpotency_residual(r, q) == 0.0
        assert self._naive(r, q) == 0.0
        for k in range(q):
            assert self._matches(r, k) > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_nilpotent_tuple(self, d, q):
        for extra in (0, 1):
            self._check(nilpotent_tuple(d, q + extra, q, seed=10 * q + d), q)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_jordan_nil_part(self, q):
        base = random_commuting_tuple(3, 2, 71)
        _, nil = jordan_augment_parts(JordanAugmentSpec(
            base_tuple=base, mu=(1.0, 0.5j, -0.3 + 0.2j), q=q))
        self._check(nil, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tuple_matches_oracle(self, seed):
        rng = np.random.default_rng([73, seed])
        r = random_commuting_tuple(int(rng.integers(1, 5)),
                                   int(rng.integers(1, 7)), seed)
        for k in range(4):
            self._matches(r, k)

    def test_weighted_sum_of_every_product(self):
        # G_22 = diag(6^22, 3^22, ..., 3^22): the weights k!/alpha! sum
        # 4^a1 to (4 + 1 + 1)^22 in the first entry and to 3^22 elsewhere
        r = MultiOperator([np.diag([2.0] + [1.0] * 63), np.eye(64), np.eye(64)])
        assert nilpotency_residual(r, 22) == pytest.approx(
            np.sqrt(6.0 ** 22 + 63 * 3.0 ** 22), rel=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParams):
            nilpotency_residual(reference_pair(), -1)
