import numpy as np
import pytest

from isosym import harness, spectra
from isosym.construct import (JordanAugmentSpec, jordan_augment,
                              nilpotent_tuple, random_commuting_tuple,
                              reference_pair, scaled_tuple, ScaledTupleSpec,
                              tensor_sum)
from isosym.defect import MultiOperator
from isosym.errors import HypothesisUnmet, InvalidParams, InvarianceViolation
from isosym.linalg import TOL_RANK, fro_norm
from isosym.spectra import (check_orthogonality,
                            check_zero_coordinate_exclusion,
                            classify_spectrum, joint_point_spectrum)

from oracles import svd_joint_spectrum


def _diag_tuple(columns):
    """Tuple of diagonal matrices whose joint spectrum is the column set."""
    arr = np.asarray(columns, dtype=complex)  # shape (npoints, d)
    return MultiOperator([np.diag(arr[:, j]) for j in range(arr.shape[1])])


def _conjugate(op, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((op.dim, op.dim)) + 1j * rng.standard_normal((op.dim, op.dim))
    u, _ = np.linalg.qr(g)
    return MultiOperator([u @ m @ u.conj().T for m in op.matrices]), u


class TestJointPointSpectrum:
    def test_reference_pair(self):
        pairs = joint_point_spectrum(reference_pair())
        assert len(pairs) == 1
        mu = pairs[0].mu
        assert abs(mu[0]) < 1e-10 and abs(mu[1] - 1.0) < 1e-10
        basis = pairs[0].basis
        assert basis.shape == (3, 2)
        # eigenspace sits inside span{e2, e3}
        assert np.max(np.abs(basis[0, :])) < 1e-10
        assert pairs[0].residual <= 1e-10

    def test_diagonal_tuple_complete(self):
        points = [(1.0, 2.0), (3.0, -1.0), (0.5, 0.5)]
        pairs = joint_point_spectrum(_diag_tuple(points))
        got = sorted((p.mu for p in pairs),
                     key=lambda mu: tuple((z.real, z.imag) for z in mu))
        expect = sorted(points)
        assert len(got) == 3
        for g, e in zip(got, expect):
            assert all(abs(a - b) < 1e-10 for a, b in zip(g, e))

    def test_jordan_block_single_point(self):
        r = MultiOperator([np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)])
        pairs = joint_point_spectrum(r)
        assert len(pairs) == 1
        assert abs(pairs[0].mu[0] - 1.0) < 1e-6
        assert pairs[0].basis.shape == (2, 1)

    def test_repeated_diagonal_merges(self):
        pairs = joint_point_spectrum(_diag_tuple([(2.0, 1.0), (2.0, 1.0)]))
        assert len(pairs) == 1
        assert pairs[0].basis.shape[1] == 2

    def test_conjugation_invariance(self):
        base = _diag_tuple([(1.0, 0.0), (0.0, 1.0), (0.5, -0.5)])
        conj, _ = _conjugate(base, 3)
        mus = [p.mu for p in joint_point_spectrum(conj)]
        assert len(mus) == 3
        flat = sorted(mus, key=lambda mu: tuple((z.real, z.imag) for z in mu))
        expect = sorted([(1.0, 0.0), (0.0, 1.0), (0.5, -0.5)])
        for g, e in zip(flat, expect):
            assert all(abs(a - b) < 1e-8 for a, b in zip(g, e))

    def test_residual_invariant(self):
        r = reference_pair()
        bound = 1e-7 * (1.0 + r.max_norm())
        for p in joint_point_spectrum(r):
            assert p.residual <= bound
            gram = p.basis.conj().T @ p.basis
            assert fro_norm(gram - np.eye(p.basis.shape[1])) <= 1e-10

    def test_noncommuting_detected(self):
        # eigenspaces of the first component are not invariant under the swap
        bad = MultiOperator([np.diag([1.0, 2.0]),
                             np.array([[0.0, 1.0], [1.0, 0.0]])], tol_comm=10.0)
        with pytest.raises(InvarianceViolation):
            joint_point_spectrum(bad)

    def test_dim_cap(self):
        big = MultiOperator([np.eye(129)])
        with pytest.raises(InvalidParams):
            joint_point_spectrum(big)


@pytest.fixture(scope="module")
def corpus():
    """Seeded tuples: random commuting (dim <= 40), the harness families,
    Jordan augmentations, tensor sums with a nilpotent right factor, and
    the identity, zero and 1x1 tuples."""
    rng = np.random.default_rng(2026)
    corpus = []
    for _ in range(30):
        d, dim = int(rng.integers(1, 4)), int(rng.integers(1, 41))
        corpus.append(random_commuting_tuple(d, dim, int(rng.integers(2 ** 31))))
    for kind in harness._KINDS * 3:
        d, dim = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        corpus.append(harness._structured(kind, d, dim, rng)[0])
    for q in (2, 3, 4):
        base = harness._structured("diag_unitary", 2, 3, rng)[0]
        corpus.append(jordan_augment(JordanAugmentSpec(
            base_tuple=base, mu=(0.7, 1.1j), q=q)))
        corpus.append(tensor_sum(base, nilpotent_tuple(2, q + 1, q, q)))
    corpus += [MultiOperator([np.eye(5)] * 2),
               MultiOperator([np.zeros((4, 4))] * 3),
               MultiOperator([np.array([[2.0 + 1j]])]),
               MultiOperator([np.array([[0.5]]), np.array([[-1j]])])]
    return corpus


def _conjugated_jordan_block():
    """J_3(e^{0.7i}) conjugated by a random unitary: a defective eigenvalue."""
    block = np.exp(0.7j) * np.eye(3) + np.diag([1.0, 1.0], 1)
    return _conjugate(MultiOperator([block]), 5)[0]


def _projector(basis):
    return basis @ basis.conj().T


class _Calls:
    """Records the certificate masks and counts the null-space SVDs."""

    def __init__(self, monkeypatch):
        self.certified = []   # per level: (matrix, vals, vecs, mask)
        self.null_bases = 0
        certify, null_basis = spectra._certified, spectra._null_basis

        def certified(a, vals, vecs, dist):
            mask = certify(a, vals, vecs, dist)
            self.certified.append((a, vals, vecs, mask))
            return mask

        def counted(*args):
            self.null_bases += 1
            return null_basis(*args)

        monkeypatch.setattr(spectra, "_certified", certified)
        monkeypatch.setattr(spectra, "_null_basis", counted)


class TestAgainstSvdOracle:
    """The certified path gives the per-cluster SVD recursion's spectrum."""

    def test_corpus_matches_oracle(self, corpus):
        for r in corpus:
            pairs = joint_point_spectrum(r)
            ref = svd_joint_spectrum(r.matrices)
            assert len(pairs) == len(ref)
            left = list(ref)
            for pair in pairs:
                gaps = [max(abs(a - b) for a, b in zip(pair.mu, mu))
                        for mu, _ in left]
                mu, basis = left.pop(int(np.argmin(gaps)))
                assert min(gaps) <= 1e-12 * (1.0 + r.max_norm())
                assert pair.basis.shape == basis.shape
                assert fro_norm(_projector(pair.basis)
                                - _projector(basis)) <= 1e-9

    def test_certificate_is_sound(self, monkeypatch, corpus):
        calls = _Calls(monkeypatch)
        for r in corpus:
            joint_point_spectrum(r)
        eps = np.finfo(float).eps
        checked = 0
        for a, vals, vecs, mask in calls.certified:
            for i in np.flatnonzero(mask):
                _, s, vh = np.linalg.svd(a - vals[i] * np.eye(len(vals)))
                thresh = max(TOL_RANK * s[0], 64.0 * eps * (1.0 + fro_norm(a)))
                assert int(np.sum(s <= thresh)) == 1
                v = vecs[:, i] / np.linalg.norm(vecs[:, i])
                assert abs(np.vdot(v, vh[-1].conj())) >= 1.0 - 1e-10
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("make, null_bases", [
        (_conjugated_jordan_block, 3), (reference_pair, 2)],
        ids=["conjugated-jordan", "reference"])
    def test_declined_inputs_take_the_svd_path(self, monkeypatch, make,
                                               null_bases):
        r = make()
        calls = _Calls(monkeypatch)
        pairs = joint_point_spectrum(r)
        assert not any(mask.any() for *_, mask in calls.certified)
        assert calls.null_bases == null_bases
        ref = svd_joint_spectrum(r.matrices)
        assert [p.mu for p in pairs] == [mu for mu, _ in ref]
        for pair, (_, basis) in zip(pairs, ref):
            assert np.array_equal(pair.basis, basis)

    def test_generic_tuple_needs_no_null_space_svd(self, monkeypatch):
        r = random_commuting_tuple(2, 16, 4)
        calls = _Calls(monkeypatch)
        assert len(joint_point_spectrum(r)) == 16
        assert calls.null_bases == 0

    def test_certificate_charges_the_eigenpair_residual(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        vals = np.diag(a).copy()
        dist = np.abs(vals[:, None] - vals)
        assert spectra._certified(a, vals, np.eye(2, dtype=complex), dist).all()
        # the second column is no eigenvector: its residual must decline both
        wrong = np.array([[1.0, 0.9], [0.0, 1.0]], dtype=complex)
        wrong /= np.linalg.norm(wrong, axis=0)
        assert not spectra._certified(a, vals, wrong, dist).any()

    def test_clusters_are_connected_groups_in_index_order(self):
        vals = np.array([0.0, 5.0, 0.6, 5.5, 1.2, 9.0])
        dist = np.abs(vals[:, None] - vals)
        groups = spectra._clusters(dist, 0.7)
        assert [list(g) for g in groups] == [[0, 2, 4], [1, 3], [5]]


class TestClassifySpectrum:
    def test_reference_on_sphere(self):
        cls = classify_spectrum(reference_pair(), 1, 1)
        assert len(cls) == 1
        assert cls[0].on_sphere
        assert cls[0].compliant

    def test_hermitian_real_sums(self):
        r = MultiOperator([np.diag([2.0, -1.0, 0.5]).astype(complex)])
        for c in classify_spectrum(r, 1, 1):
            assert c.real_sum and c.compliant

    def test_jordan_on_sphere(self):
        r = MultiOperator([np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)])
        cls = classify_spectrum(r, 3, 1)
        assert all(c.on_sphere for c in cls)

    def test_requires_isosymmetry(self):
        from isosym.construct import random_commuting_tuple
        r = random_commuting_tuple(2, 4, 19)
        with pytest.raises(HypothesisUnmet):
            classify_spectrum(r, 1, 1)


class TestOrthogonality:
    def test_hermitian_distinct_eigenvalues_orthogonal(self):
        base = _diag_tuple([(1.0, 0.5), (-1.0, 2.0), (0.25, -0.75)])
        conj, _ = _conjugate(base, 11)
        checks = check_orthogonality(conj, 1, 1)
        assert checks
        for c in checks:
            assert c.compliant
            if c.required_orthogonal:
                assert c.gram_norm <= 1e-8

    def test_gate_failing_pair_unconstrained(self):
        # conjugate phases: the difference gate vanishes -> no constraint
        z = np.exp(1j * 0.7)
        r = _diag_tuple([(z,), (z.conjugate(),)])
        checks = check_orthogonality(r, 1, 1)
        assert len(checks) == 1
        assert not checks[0].required_orthogonal
        assert checks[0].compliant

    def test_unitary_diagonal_pairs(self):
        z = [np.exp(0.3j), np.exp(1.9j), np.exp(2.7j)]
        base = _diag_tuple([(w,) for w in z])
        conj, _ = _conjugate(base, 13)
        for c in check_orthogonality(conj, 1, 1):
            if c.required_orthogonal:
                assert c.gram_norm <= 1e-8


class TestZeroCoordinate:
    def test_reference_consistent(self):
        report = check_zero_coordinate_exclusion(reference_pair(), 1, 1)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.product_modulus <= 1e-7
        assert abs(entry.coordinate_sum - 1.0) < 1e-9
        assert entry.consistent and report.consistent

    def test_invertible_isometric_tuple_vacuous(self):
        z = [np.exp(0.4j), np.exp(-1.2j)]
        r = _diag_tuple([(w,) for w in z])
        report = check_zero_coordinate_exclusion(r, 1, 1)
        assert report.entries == []
        assert report.consistent

    def test_no_zero_coordinate_points(self):
        r = scaled_tuple(ScaledTupleSpec(base=np.eye(2), beta=(0.6, 0.8)))
        report = check_zero_coordinate_exclusion(r, 1, 1)
        assert report.consistent
