"""Joint point spectrum of commuting tuples and the spectral checks.

The joint point spectrum is computed by recursive eigenspace intersection:
take an eigenvalue cluster of the first component, extract the null space
of the shifted operator, compress the remaining components onto it (the
eigenspace is invariant because the tuple commutes) and recurse.  In
finite dimension this is the whole approximate point spectrum as well.

Each level makes one eigendecomposition of its first component.  A simple
eigenvalue whose gap, divided by the condition number of the eigenvector
matrix, provably clears the null-space SVD's rank threshold is certified:
its eigenvector is the eigenspace, the other coordinates are Rayleigh
quotients, and no SVD runs.  Clusters of several eigenvalues and the
simple eigenvalues the certificate declines take the SVD null space.  A
cluster of several eigenvalues that a later component splits gives each
of its points that coordinate from the point's own basis W, as
trace(W* R W)/k, instead of the cluster mean.

The spectral checks of an (m,n)-isosymmetric tuple (classification,
eigenspace orthogonality, zero-coordinate exclusion) all come from one
spectral_checks call: one joint spectrum, one isosymmetry verdict and one
tolerance rule.  classify_spectrum, check_orthogonality and
check_zero_coordinate_exclusion are views of it.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .classify import ClassVerdict, is_isosymmetric
from .defect import op_sum
from .errors import ConvergenceFailure, HypothesisUnmet, InvalidParams, \
    InvarianceViolation
from .linalg import TOL_RANK, adjoint, checked_tolerance, fro_norm

#: default tolerance, and floor, of the joint spectrum and the spectral checks
TOL_SPECTRA = 1e-7
#: default tolerance of the orthogonality gates and Gram test
TOL_ORTHOGONALITY = 1e-8
#: relative width used to merge near-degenerate eigenvalues
CLUSTER_TOL = 1e-7
#: cap on the dimension of a joint-spectrum computation
MAX_JOINT_DIM = 128


@dataclass(frozen=True)
class JointEigenpair:
    """A joint eigenvalue with an orthonormal basis of its eigenspace."""

    mu: tuple              # one complex entry per tuple component
    basis: np.ndarray      # dim x k, orthonormal columns
    residual: float        # max ||(R_l - mu_l) v|| over l and basis columns


@dataclass(frozen=True)
class SpectralClassification:
    """Location of one joint eigenvalue relative to the two allowed sets."""

    mu: tuple
    on_sphere: bool        # | ||mu||_2 - 1 | <= tol
    real_sum: bool         # | Im sum_l mu_l | <= tol
    compliant: bool        # on_sphere or real_sum


@dataclass(frozen=True)
class OrthogonalityCheck:
    """Gram test between the eigenspaces of two joint eigenvalues."""

    mu: tuple
    mu_prime: tuple
    gram_norm: float
    required_orthogonal: bool
    compliant: bool
    gate_product: float    # | sum_j mu_j conj(mu'_j) - 1 |
    gate_sum: float        # | sum_j (mu_j - conj(mu'_j)) |


@dataclass(frozen=True)
class ZeroCoordinateEntry:
    """One joint eigenvalue with a vanishing coordinate product."""

    mu: tuple
    product_modulus: float
    coordinate_sum: complex
    adjoint_sum_distance: float  # distance of the sum to the nearest
                                 # eigenvalue of (sum_l R_l)*
    consistent: bool


@dataclass(frozen=True)
class ZeroCoordinateReport:
    """Per-point contrapositive check of the zero-coordinate exclusion.

    A vanishing-product joint eigenvalue is only possible when the sum of
    its coordinates is itself an eigenvalue of the adjoint of the summed
    tuple; each such point is listed with that verdict.
    """

    consistent: bool = True
    entries: list = field(default_factory=list)


@dataclass(frozen=True)
class SpectralChecks:
    """One tuple's joint spectrum and spectral checks at one (m, n).

    The three checks are None when the tuple is not (m,n)-isosymmetric.
    """

    verdict: ClassVerdict  # is_isosymmetric(r, m, n), default zero test
    pairs: tuple           # joint_point_spectrum(r, tol_spectra)
    tol_spectra: float
    tol_orthogonality: float
    classifications: list = None     # [SpectralClassification]
    orthogonality: list = None       # [OrthogonalityCheck]
    zero_coordinate: ZeroCoordinateReport = None

    def require_isosymmetric(self):
        """``self``, or HypothesisUnmet if the verdict fails."""
        if not self.verdict.holds:
            m, n = self.verdict.orders
            raise HypothesisUnmet(
                f"tuple is not ({m},{n})-isosymmetric "
                f"(defect norm {self.verdict.defect_norm:.3e})")
        return self


def spectral_tolerance(tol=None):
    """``tol`` once checked usable, floored at TOL_SPECTRA (the default)."""
    return max(TOL_SPECTRA if tol is None else checked_tolerance(tol),
               TOL_SPECTRA)


def _clusters(dist, radius):
    """Connected groups of the graph joining values at distance <= radius.

    ``dist`` is the matrix of pairwise distances.  Groups come in order of
    their smallest index, each listing its indices in increasing order.
    """
    k = len(dist)
    near = dist <= radius
    label = np.arange(k)
    while True:  # every value takes the smallest label among its neighbours
        lower = np.where(near, label, k).min(axis=1)
        if np.array_equal(lower, label):
            break
        label = lower
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _certified(a, vals, vecs, dist):
    """Mask of the eigenvalues whose shift provably has a 1-D null space.

    With V = vecs, a + E = V diag(vals) V^-1 holds exactly for some
    ||E||_2 <= delta = ||aV - V diag(vals)||_F / sigma_min(V), so
    sigma_{n-1}(a - vals_i I) >= gap_i / kappa(V) - delta, gap_i being the
    distance to the nearest other eigenvalue (Golub & Van Loan, Matrix
    Computations, 7.2, and Weyl's inequality).  Eigenvalue i is certified
    when that bound clears an upper bound on _null_basis's threshold for a
    singleton cluster: the SVD would then keep exactly one null vector.
    """
    n = len(vals)
    s = np.linalg.svd(vecs, compute_uv=False)
    if not s[-1] > np.finfo(float).eps * s[0]:
        return np.zeros(n, dtype=bool)  # kappa(V) >= 1/eps: no gap clears it
    delta = fro_norm(a @ vecs - vecs * vals) / s[-1]
    gap = np.where(np.eye(n, dtype=bool), np.inf, dist).min(axis=1)
    norm = fro_norm(a)
    floor = np.maximum(TOL_RANK * (norm + np.abs(vals)),
                       64.0 * np.finfo(float).eps * (1.0 + norm))
    return gap * (s[-1] / s[0]) - delta > floor


def _null_basis(shifted, cluster_radius, ambient_scale):
    """Orthonormal null-space basis, widened to absorb the cluster spread."""
    _, s, vh = np.linalg.svd(shifted)
    smax = s[0] if s.size else 0.0
    thresh = max(TOL_RANK * smax,
                 4.0 * cluster_radius + 64.0 * np.finfo(float).eps * ambient_scale)
    keep = int(np.sum(s > thresh))
    if keep == shifted.shape[0]:
        keep = shifted.shape[0] - 1  # the eigenvalue exists; keep at least one
    return np.ascontiguousarray(vh[keep:].conj().T)


def _compress(ops, limits, w):
    """Each op restricted to the invariant subspace spanned by w's columns.

    ``limits`` holds, per op, the largest invariance residual accepted.
    """
    out = []
    for op, limit in zip(ops, limits):
        proj = op @ w
        resid = fro_norm(proj - w @ (w.conj().T @ proj))
        if resid > limit:
            raise InvarianceViolation(
                f"eigenspace not invariant (residual {resid:.3e}); "
                "the tuple may not commute")
        out.append(w.conj().T @ proj)
    return out


def _rayleigh(a, w):
    """trace(w* a w) / k for the k orthonormal columns of w."""
    return complex(np.trace(w.conj().T @ (a @ w))) / w.shape[1]


def _recurse(ops, carrier, mu_prefix, out, tol):
    if not ops or ops[0].shape[0] == 1:
        # a line: every coordinate left is the 1x1 entry (Rayleigh quotient)
        out.append((mu_prefix + tuple(complex(op[0, 0]) for op in ops),
                    carrier))
        return
    a = ops[0]
    try:
        vals, vecs = np.linalg.eig(a)
        dist = np.abs(vals[:, None] - vals)
        certified = _certified(a, vals, vecs, dist)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = 1.0 + fro_norm(a)
    limits = [10.0 * tol * (1.0 + fro_norm(op)) for op in ops[1:]]
    for group in _clusters(dist, CLUSTER_TOL * scale):
        members = vals[group]
        lam = complex(np.mean(members))
        if len(group) == 1 and certified[group[0]]:
            w = vecs[:, group] / fro_norm(vecs[:, group])  # the eigenspace
        else:
            radius = float(np.max(np.abs(members - lam)))
            w = _null_basis(a - lam * np.eye(a.shape[0]), radius, scale)
        points = []
        _recurse(_compress(ops[1:], limits, w), carrier @ w,
                 mu_prefix + (lam,), points, tol)
        if len(group) > 1 and len(points) > 1:
            # the cluster split below: the mean is no point's own coordinate
            i = len(mu_prefix)
            points = [(mu[:i] + (_rayleigh(a, carrier.conj().T @ basis),)
                       + mu[i + 1:], basis) for mu, basis in points]
        out.extend(points)


def joint_point_spectrum(r, tol=TOL_SPECTRA):
    """All mu in C^d with a common eigenvector, with eigenspace bases.

    Eigenvalues within CLUSTER_TOL (relative) are merged before null-space
    extraction.  Results are sorted by (re, im) per coordinate; every
    returned pair satisfies residual <= tol * (1 + max_j ||R_j||).
    """
    checked_tolerance(tol)
    if r.dim > MAX_JOINT_DIM:
        raise InvalidParams(f"dimension {r.dim} exceeds {MAX_JOINT_DIM}")
    raw = []
    _recurse(list(r.matrices), np.eye(r.dim, dtype=np.complex128), (), raw, tol)
    bound = tol * (1.0 + r.max_norm())
    pairs = []
    for mu, basis in raw:
        resid = 0.0
        for lam, op in zip(mu, r.matrices):
            resid = max(resid, fro_norm(op @ basis - lam * basis))
        if resid > bound:
            raise ConvergenceFailure(
                f"joint eigenpair residual {resid:.3e} exceeds {bound:.3e}")
        gram = basis.conj().T @ basis
        if fro_norm(gram - np.eye(basis.shape[1])) > 1e-10:
            raise ConvergenceFailure("eigenspace basis lost orthonormality")
        pairs.append(JointEigenpair(mu=mu, basis=basis, residual=resid))
    pairs.sort(key=lambda p: tuple((z.real, z.imag) for z in p.mu))
    return pairs


def _classify(pairs, tol):
    out = []
    for pair in pairs:
        norm = float(np.sqrt(sum(abs(z) ** 2 for z in pair.mu)))
        on_sphere = abs(norm - 1.0) <= tol
        real_sum = abs(sum(pair.mu).imag) <= tol
        out.append(SpectralClassification(mu=pair.mu, on_sphere=on_sphere,
                                          real_sum=real_sum,
                                          compliant=on_sphere or real_sum))
    return out


def _orthogonality(pairs, tol):
    out = []
    for p, q in combinations(pairs, 2):
        mu, mup = p.mu, q.mu
        g1 = abs(sum(a * b.conjugate() for a, b in zip(mu, mup)) - 1.0)
        g2 = abs(sum(a - b.conjugate() for a, b in zip(mu, mup)))
        required = g1 > tol and g2 > tol
        gram = fro_norm(p.basis.conj().T @ q.basis)
        out.append(OrthogonalityCheck(
            mu=mu, mu_prime=mup, gram_norm=gram,
            required_orthogonal=required,
            compliant=(not required) or gram <= tol,
            gate_product=g1, gate_sum=g2))
    return out


def _zero_coordinate(r, pairs, tol):
    adj_sum = adjoint(op_sum(r))
    try:
        adj_eigs = np.linalg.eigvals(adj_sum)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = 1.0 + fro_norm(adj_sum)
    entries = []
    for pair in pairs:
        prod = math.prod(abs(z) for z in pair.mu)
        if prod > tol:
            continue
        total = sum(pair.mu)
        dist = float(np.min(np.abs(adj_eigs - total)))
        entries.append(ZeroCoordinateEntry(
            mu=pair.mu, product_modulus=prod, coordinate_sum=total,
            adjoint_sum_distance=dist, consistent=dist <= tol * scale))
    return ZeroCoordinateReport(consistent=all(e.consistent for e in entries),
                                entries=entries)


def spectral_checks(r, m, n, tol=None):
    """The joint spectrum of r and every spectral check, from one pass.

    The joint spectrum is computed once, at spectral_tolerance(tol), which
    also gates the classification and the zero-coordinate check; the
    orthogonality gates and Gram test use the same ``tol`` floored at
    TOL_ORTHOGONALITY (the default).  The isosymmetry hypothesis is
    decided once, by the default zero test; when it fails, the three
    check fields are None.
    """
    tol_spectra = spectral_tolerance(tol)
    tol_orthogonality = (TOL_ORTHOGONALITY if tol is None
                         else max(tol, TOL_ORTHOGONALITY))
    pairs = tuple(joint_point_spectrum(r, tol_spectra))
    verdict = is_isosymmetric(r, m, n)
    if not verdict.holds:
        return SpectralChecks(verdict, pairs, tol_spectra, tol_orthogonality)
    return SpectralChecks(verdict, pairs, tol_spectra, tol_orthogonality,
                          _classify(pairs, tol_spectra),
                          _orthogonality(pairs, tol_orthogonality),
                          _zero_coordinate(r, pairs, tol_spectra))


def classify_spectrum(r, m, n, tol=TOL_SPECTRA):
    """Locate every joint eigenvalue of an (m,n)-isosymmetric tuple.

    Each point must lie on the unit sphere of C^d or have a real
    coordinate sum; non-compliance is reported, not raised.  The
    ``classifications`` of spectral_checks(r, m, n, tol).
    """
    return spectral_checks(r, m, n, tol).require_isosymmetric().classifications


def check_orthogonality(r, m, n, tol=TOL_ORTHOGONALITY):
    """Pairwise Gram test between joint eigenspaces.

    A pair (mu, mu') must be orthogonal whenever both gate quantities are
    nonzero: sum_j mu_j conj(mu'_j) != 1 and sum_j (mu_j - conj(mu'_j)) != 0,
    each tested against tol.  Pairs failing a gate carry no constraint.
    The ``orthogonality`` of spectral_checks(r, m, n, tol).
    """
    return spectral_checks(r, m, n, tol).require_isosymmetric().orthogonality


def check_zero_coordinate_exclusion(r, m, n, tol=TOL_SPECTRA):
    """Contrapositive of the zero-coordinate exclusion, point by point.

    The ``zero_coordinate`` of spectral_checks(r, m, n, tol).
    """
    return spectral_checks(r, m, n, tol).require_isosymmetric().zero_coordinate
