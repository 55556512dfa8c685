import numpy as np
import pytest

from isosym import harness, spectra
from isosym.cli import main
from isosym.construct import (JordanAugmentSpec, jordan_augment,
                              nilpotent_tuple, random_commuting_tuple,
                              reference_pair, scaled_tuple, ScaledTupleSpec,
                              tensor_sum)
from isosym.defect import MultiOperator
from isosym.errors import ConvergenceFailure, HypothesisUnmet, \
    InvalidParams, InvarianceViolation
from isosym.linalg import TOL_RANK, fro_norm
from isosym.tupleio import read_tuple, write_tuple
from isosym.spectra import (TOL_ORTHOGONALITY, TOL_SPECTRA,
                            check_orthogonality,
                            check_zero_coordinate_exclusion,
                            classify_spectrum, joint_point_spectrum,
                            spectral_checks, spectral_tolerance)

from oracles import pairwise_orthogonality, svd_joint_spectrum


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


@pytest.mark.parametrize("dim, coupled", [(3, (0, 1)), (4, (2, 0))],
                         ids=["E_12", "E_31"])
def test_one_invariance_bound_at_the_tuple_scale(tmp_path, capsys, dim,
                                                 coupled):
    # R_1 has one eigenvalue 1e4 beside small ones; R_2 is diagonal but
    # for one entry 1e-4, which commutes within TOL_COMM at that scale and
    # leaves a point with residual 1e-4, inside the bound 1e-7 (1 + 1e4)
    first = np.diag([0.0] * (dim - 2) + [5e-3, 1e4])
    second = np.diag(1e-3 * np.arange(1, dim + 1))
    second[coupled] = 1e-4
    path = tmp_path / "pair.json"
    write_tuple(path, MultiOperator([first, second]))
    r, _ = read_tuple(path)  # loading checks commutation at TOL_COMM
    pairs = joint_point_spectrum(r)
    assert len(pairs) == dim
    bound = TOL_SPECTRA * (1.0 + r.max_norm())
    assert all(p.residual <= bound for p in pairs)
    assert main(["spectrum", str(path)]) == 0
    capsys.readouterr()


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
        assert len(pairs) == len(ref)
        for pair, (mu, basis) in zip(pairs, ref):
            assert max(abs(a - b) for a, b in zip(pair.mu, mu)) \
                <= 1e-12 * (1.0 + r.max_norm())
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


def _counting(monkeypatch, module, names):
    """Counts the calls of each named function of ``module``."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


class TestCertifiedBlock:
    """A level's certified simple eigenvalues are one block of columns."""

    def test_generic_tuple_is_one_level_with_no_compression(self,
                                                            monkeypatch):
        counts = _counting(monkeypatch, spectra, ["_compress", "_recurse"])
        assert len(joint_point_spectrum(random_commuting_tuple(2, 16, 4))) \
            == 16
        assert counts == {"_compress": 0, "_recurse": 1}

    def test_one_non_invariant_certified_column_raises(self, monkeypatch):
        first = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).astype(complex)
        second = np.diag([0.5, -0.5, 1.5, -1.5, 2.5, -2.5]).astype(complex)
        second[2, 3] = 1.0  # second @ e_4 leaves span{e_4}; no other does
        bad = MultiOperator([first, second], tol_comm=10.0)
        calls = _Calls(monkeypatch)
        with pytest.raises(InvarianceViolation, match="residual 1.000e"):
            joint_point_spectrum(bad)
        assert calls.certified[0][-1].all() and calls.null_bases == 0

    def test_bases_are_their_own_arrays(self, corpus):
        for r in corpus:
            pairs = joint_point_spectrum(r)
            for i, p in enumerate(pairs):
                assert not any(np.may_share_memory(p.basis, q.basis)
                               for q in pairs[i + 1:])
            for p in pairs:
                resid = max(fro_norm(op @ p.basis - lam * p.basis)
                            for lam, op in zip(p.mu, r.matrices))
                assert abs(p.residual - resid) <= 1e-14 * (1.0 + r.max_norm())

    @pytest.mark.parametrize("plant, error, match", [
        # a unit column orthogonal to every other basis, not an eigenvector
        (lambda bases: np.linalg.svd(np.concatenate(bases[:-1], axis=1))[0]
         [:, -1:], InvarianceViolation, "residual"),
        (lambda bases: 1.01 * bases[-1], ConvergenceFailure,
         "orthonormality")],
        ids=["not-an-eigenvector", "basis"])
    def test_every_pair_is_verified(self, monkeypatch, plant, error, match):
        recurse, calls = spectra._recurse, []

        def planted(ops, carrier, out, limit):
            calls.append(None)
            top = len(calls) == 1
            recurse(ops, carrier, out, limit)
            if top:  # the top level: spoil its last basis only
                out[-1] = plant(out)

        monkeypatch.setattr(spectra, "_recurse", planted)
        with pytest.raises(error, match=match):
            joint_point_spectrum(random_commuting_tuple(2, 16, 4))


def _split_cluster_tuple():
    """First coordinates 2e-7 apart, which merge into one cluster of R_1,
    that R_2 separates: the split-cluster fixture."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    first = np.array([1.0, 1.0 + 2e-7, -1.0])
    second = np.array([0.0, 1.0, 2.0])
    r = MultiOperator([q @ np.diag(v) @ q.conj().T for v in (first, second)])
    return r, first, second


class TestCoordinatesFromTheBasis:
    """Every point's coordinates are read from its own basis."""

    def test_every_coordinate_is_the_trace_quotient_of_its_basis(self,
                                                                 corpus):
        tuples = corpus + [_conjugated_jordan_block(), reference_pair(),
                           _split_cluster_tuple()[0]]
        for r in tuples:
            for p in joint_point_spectrum(r):
                k = p.basis.shape[1]
                for mu, op in zip(p.mu, r.matrices):
                    quotient = np.trace(p.basis.conj().T @ op @ p.basis) / k
                    assert abs(mu - quotient) <= 1e-14 * (1.0 + r.max_norm())


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

    def test_matches_the_pairwise_loop(self, corpus):
        checked = 0
        for r in corpus:
            pairs = joint_point_spectrum(r)
            got = spectra._orthogonality(pairs, TOL_ORTHOGONALITY)
            ref = pairwise_orthogonality([(p.mu, p.basis) for p in pairs],
                                         TOL_ORTHOGONALITY)
            assert len(got) == len(ref)
            for c, (mu, mup, gram, required, compliant, g1, g2) in zip(got,
                                                                       ref):
                assert (c.mu, c.mu_prime) == (mu, mup)
                assert (c.required_orthogonal, c.compliant) == \
                    (required, compliant)
                assert abs(c.gram_norm - gram) <= 1e-14
                assert abs(c.gate_product - g1) <= 1e-14 * (1.0 + g1)
                assert abs(c.gate_sum - g2) <= 1e-14 * (1.0 + g2)
                checked += c.required_orthogonal
        assert checked > 1000


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

    @pytest.mark.parametrize("r, eigvals_calls", [
        (reference_pair(), 1), (_diag_tuple([(np.exp(0.4j),), (-1.0,)]), 0)],
        ids=["zero-coordinate", "none"])
    def test_adjoint_sum_is_decomposed_only_when_needed(self, monkeypatch, r,
                                                        eigvals_calls):
        counts = _counting(monkeypatch, np.linalg, ["eigvals"])
        report = spectral_checks(r, 1, 1).zero_coordinate
        assert len(report.entries) == eigvals_calls and report.consistent
        assert counts == {"eigvals": eigvals_calls}

    def test_no_zero_coordinate_points(self):
        r = scaled_tuple(ScaledTupleSpec(base=np.eye(2), beta=(0.6, 0.8)))
        report = check_zero_coordinate_exclusion(r, 1, 1)
        assert report.consistent


def _isosymmetric_fixtures():
    """(1,1)-isosymmetric tuples: with a zero coordinate, unitary, Hermitian."""
    unitary, _ = _conjugate(
        _diag_tuple([(w,) for w in np.exp([0.3j, 1.9j, 2.7j])]), 13)
    hermitian, _ = _conjugate(
        _diag_tuple([(1.0, 0.5), (-1.0, 2.0), (0.25, -0.75)]), 11)
    return [reference_pair(), unitary, hermitian]


class TestSpectralChecks:
    def test_one_spectrum_and_one_verdict(self, monkeypatch):
        calls = _counting(monkeypatch, spectra,
                          ["joint_point_spectrum", "is_isosymmetric"])
        checks = spectral_checks(_isosymmetric_fixtures()[2], 1, 1)
        assert len(checks.classifications) == 3
        assert len(checks.orthogonality) == 3
        assert checks.zero_coordinate.consistent
        assert calls == {"joint_point_spectrum": 1, "is_isosymmetric": 1}

    @pytest.mark.parametrize("tol", [None, 1e-9, 1e-5])
    def test_each_check_is_its_field(self, tol):
        given = {} if tol is None else {"tol": tol}
        for r in _isosymmetric_fixtures():
            checks = spectral_checks(r, 1, 1, tol)
            assert checks.verdict == spectra.is_isosymmetric(r, 1, 1)
            fresh = joint_point_spectrum(r, checks.tol_spectra)
            assert [(p.mu, p.basis.tobytes()) for p in checks.pairs] == \
                [(p.mu, p.basis.tobytes()) for p in fresh]
            assert classify_spectrum(r, 1, 1, **given) == \
                checks.classifications
            assert check_orthogonality(r, 1, 1, **given) == \
                checks.orthogonality
            assert check_zero_coordinate_exclusion(r, 1, 1, **given) == \
                checks.zero_coordinate

    @pytest.mark.parametrize("tol, tol_spectra, tol_orthogonality", [
        (None, TOL_SPECTRA, TOL_ORTHOGONALITY), (1e-12, 1e-7, 1e-8),
        (3e-8, 1e-7, 3e-8), (1e-3, 1e-3, 1e-3)])
    def test_tolerances_are_floored(self, tol, tol_spectra,
                                    tol_orthogonality):
        checks = spectral_checks(reference_pair(), 1, 1, tol)
        assert checks.tol_spectra == tol_spectra
        assert checks.tol_orthogonality == tol_orthogonality

    def test_a_classification_below_the_floor_is_gated_at_the_floor(self):
        # |mu| = 1 + 5e-8: on the sphere at the 1e-7 floor, off it at 1e-9
        r = _diag_tuple([((1.0 + 5e-8) * np.exp(0.3j),)])
        c, = classify_spectrum(r, 1, 1, 1e-9)
        assert c.on_sphere and c.compliant

    def test_failed_hypothesis_leaves_the_checks_empty(self):
        r = random_commuting_tuple(2, 4, 19)
        checks = spectral_checks(r, 1, 1)
        assert not checks.verdict.holds and checks.pairs
        assert checks.classifications is None
        assert checks.orthogonality is None
        assert checks.zero_coordinate is None
        for view in (classify_spectrum, check_orthogonality,
                     check_zero_coordinate_exclusion):
            with pytest.raises(HypothesisUnmet, match=r"not \(1,1\)"):
                view(r, 1, 1)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), True,
                                 np.True_])
@pytest.mark.parametrize("check", [
    lambda tol: joint_point_spectrum(random_commuting_tuple(2, 4, 1), tol),
    lambda tol: classify_spectrum(reference_pair(), 1, 1, tol),
    lambda tol: check_orthogonality(reference_pair(), 1, 1, tol),
    lambda tol: check_zero_coordinate_exclusion(reference_pair(), 1, 1, tol),
    lambda tol: spectral_checks(reference_pair(), 1, 1, tol),
    spectral_tolerance,
], ids=["joint_point_spectrum", "classify", "orthogonality",
        "zero_coordinate", "spectral_checks", "spectral_tolerance"])
def test_unusable_tolerance_rejected(check, tol):
    # unchecked, nan skips every residual check, -1 and 0 fail commuting
    # input as non-invariant, inf calls every point compliant, and a
    # boolean would be read as the tolerance 1
    with pytest.raises(InvalidParams, match="tol"):
        check(tol)


@pytest.mark.parametrize("tol, floored", [(None, 1e-7), (1e-9, 1e-7),
                                          (1e-7, 1e-7), (1e-3, 1e-3)])
def test_spectral_tolerance_is_floored(tol, floored):
    assert spectral_tolerance(tol) == floored


def test_split_cluster_points_keep_their_own_first_coordinate():
    # R_2 separates the two points of R_1's merged cluster, each of which
    # must get its own first coordinate
    r, first, second = _split_cluster_tuple()
    pairs = spectra.joint_point_spectrum(r)
    got = sorted((p.mu[1].real, p.mu[0]) for p in pairs)
    assert [b for b, _ in got] == pytest.approx(list(second), abs=1e-12)
    for (_, mu0), want in zip(got, first):
        assert abs(mu0 - want) <= 1e-12


def test_spectral_suite_at_the_seed_of_a_split_cluster():
    # trial 125 of this seed is a diag_unitary tuple whose merged cluster
    # splits one level down; its cluster mean missed by 1.1e-7
    report = harness.run_suite(harness.SuiteConfig(
        suite="spectral", trials=200, seed=315621377))
    assert report.trials_passed == 200, report.counterexamples
