"""Joint point spectrum of commuting tuples and the spectral checks.

The joint point spectrum is computed by recursive eigenspace intersection:
take an eigenvalue cluster of the first component, extract the null space
of the shifted operator, compress the remaining components onto it (the
eigenspace is invariant because the tuple commutes) and recurse.  In
finite dimension this is the whole approximate point spectrum as well.

Each level makes one eigendecomposition of its first component.  A simple
eigenvalue whose gap, divided by the condition number of the eigenvector
matrix, provably clears the null-space SVD's rank threshold is certified:
its eigenvector is the eigenspace and no SVD runs.  A level's certified
eigenvectors are taken as one block of columns W: one product
carrier @ W gives every basis, and none of them recurses.  Clusters of
several eigenvalues and the simple eigenvalues the certificate declines
take the SVD null space, are compressed onto it and recurse; the one
invariance limit 10 tol (1 + max_j ||R_j||) guards each such subspace.
The recursion yields bases only.  Every point's coordinates are read
once, from its own basis B, as mu_l = trace(B* R_l B)/k, in the one pass
over the stacked bases that also checks every pair against the bound
tol (1 + max_j ||R_j||): the only check an output point gets.

The spectral checks of an (m,n)-isosymmetric tuple (classification,
eigenspace orthogonality, zero-coordinate exclusion) all come from one
spectral_checks call: one joint spectrum, one isosymmetry verdict and one
tolerance rule.  classify_spectrum, check_orthogonality and
check_zero_coordinate_exclusion are views of it.
"""

import math
from dataclasses import dataclass, field

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
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), k]
    return [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


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


def _compress(ops, limit, w):
    """The stack ``ops`` restricted to the invariant subspace spanned by w's
    columns; ``limit`` is the largest invariance residual accepted."""
    proj = ops @ w
    out = w.conj().T @ proj
    for p, o in zip(proj, out):
        resid = fro_norm(p - w @ o)
        if resid > limit:
            raise InvarianceViolation(
                f"eigenspace not invariant (residual {resid:.3e}); "
                "the tuple may not commute")
    return out


def _recurse(ops, carrier, out, limit):
    """Append the basis of every joint eigenspace of the stack ``ops``.

    ``ops`` are the components still to split, compressed onto the
    subspace whose orthonormal basis, in the original coordinates, is
    ``carrier``.  One eigendecomposition of ops[0] per call.  Its
    certified simple eigenvalues are handled as one block of eigenvector
    columns: one carrier product gives every basis, and none of them
    recurses.  Every other cluster takes an SVD null space around the
    cluster mean, is compressed onto it, within the invariance residual
    ``limit``, and recurses.  Only bases come out; joint_point_spectrum
    reads every point's coordinates from its own and checks its residual.
    """
    if not len(ops) or ops.shape[1] == 1:
        out.append(carrier)  # a line, or nothing left to split: one point
        return
    a = ops[0]
    try:
        vals, vecs = np.linalg.eig(a)
        dist = np.abs(vals[:, None] - vals)
        certified = _certified(a, vals, vecs, dist)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = 1.0 + fro_norm(a)
    groups = _clusters(dist, CLUSTER_TOL * scale)
    single = [g[0] for g in groups if len(g) == 1 and certified[g[0]]]
    if single:
        w = vecs[:, single]
        w = w / np.linalg.norm(w, axis=0)  # each column spans its eigenspace
        bases = carrier @ w
        out.extend(bases[:, [j]] for j in range(len(single)))  # a copy each
    for group in groups:
        if len(group) == 1 and certified[group[0]]:
            continue
        members = vals[group]
        lam = complex(np.mean(members))
        radius = float(np.max(np.abs(members - lam)))
        w = _null_basis(a - lam * np.eye(a.shape[0]), radius, scale)
        _recurse(_compress(ops[1:], limit, w), carrier @ w, out, limit)


def _stacked(bases):
    """(B, owner, blocks) for the list ``bases`` of P orthonormal bases.

    B holds the bases side by side, owner[c] is the index of the basis
    that column c of B comes from, and blocks[p, q] is the Frobenius norm
    of the (p, q) block of B* B - I: the orthonormality defect of basis p
    when p = q, the Gram norm between bases p and q otherwise.
    """
    stacked = np.concatenate(bases, axis=1)
    owner = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
    member = (owner[:, None] == np.arange(len(bases))).astype(float)
    gram = stacked.conj().T @ stacked - np.eye(len(owner))
    squares = gram.real ** 2 + gram.imag ** 2
    return stacked, owner, np.sqrt(member.T @ squares @ member)


def joint_point_spectrum(r, tol=TOL_SPECTRA):
    """All mu in C^d with a common eigenvector, with eigenspace bases.

    Eigenvalues within CLUSTER_TOL (relative) are merged before null-space
    extraction; the certified simple eigenvalues of each level are taken
    as one block of eigenvector columns (see _recurse), which yields the
    eigenspace bases only.  Each subspace the recursion continues from
    must be invariant within 10 tol (1 + max_j ||R_j||), else
    InvarianceViolation.  Every pair is verified, and every coordinate
    read once, in one pass over the stacked bases B.  Point p, with the
    k_p columns B_p, must have B_p* B_p within 1e-10 of I, else
    ConvergenceFailure; it then gets mu_l = trace(B_p* R_l B_p)/k_p, the
    scalar that minimises its residual.  That residual, the largest over
    l of the Frobenius norm of R_l B_p - mu_l B_p, must be
    <= tol * (1 + max_j ||R_j||), else InvarianceViolation.  Results are
    sorted by (re, im) per coordinate.
    """
    checked_tolerance(tol)
    if r.dim > MAX_JOINT_DIM:
        raise InvalidParams(f"dimension {r.dim} exceeds {MAX_JOINT_DIM}")
    bound = tol * (1.0 + r.max_norm())
    bases = []
    _recurse(r.stack, np.eye(r.dim, dtype=np.complex128), bases,
             10.0 * bound)
    stacked, owner, blocks = _stacked(bases)
    if np.any(np.diag(blocks) > 1e-10):
        raise ConvergenceFailure("eigenspace basis lost orthonormality")

    def per_point(cols):  # sums over each basis's columns
        return np.bincount(owner, weights=cols)

    sizes = per_point(None)  # k_p
    mus = np.empty((len(bases), r.d), dtype=np.complex128)
    resid = np.zeros(len(bases))
    for l, op in enumerate(r.matrices):
        prod = op @ stacked
        quot = np.einsum("ij,ij->j", stacked.conj(), prod)
        mus[:, l] = (per_point(quot.real) + 1j * per_point(quot.imag)) / sizes
        diff = prod - stacked * mus[owner, l]
        resid = np.maximum(resid, np.sqrt(per_point(
            (diff.real ** 2 + diff.imag ** 2).sum(axis=0))))
    worst = int(np.argmax(resid))
    if resid[worst] > bound:
        raise InvarianceViolation(
            f"joint eigenpair residual {resid[worst]:.3e} exceeds "
            f"{bound:.3e}; the tuple may not commute")
    pairs = [JointEigenpair(mu=tuple(mu), basis=basis, residual=res)
             for mu, basis, res in zip(mus.tolist(), bases, resid.tolist())]
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
    """One OrthogonalityCheck per two pairs, in combinations order.

    Every Gram norm is an off-diagonal block norm of one Gram matrix of
    the stacked bases (_stacked); both gates come from the stacked mu.
    """
    if len(pairs) < 2:
        return []
    blocks = _stacked([p.basis for p in pairs])[2]
    i, j = np.triu_indices(len(pairs), 1)
    mus = np.array([p.mu for p in pairs], dtype=np.complex128)
    g1 = np.abs((mus[i] * mus[j].conj()).sum(axis=1) - 1.0)
    g2 = np.abs((mus[i] - mus[j].conj()).sum(axis=1))
    required = (g1 > tol) & (g2 > tol)
    norms = blocks[i, j]
    compliant = ~required | (norms <= tol)
    return [OrthogonalityCheck(
        mu=pairs[a].mu, mu_prime=pairs[b].mu, gram_norm=gram_norm,
        required_orthogonal=req, compliant=ok, gate_product=p, gate_sum=q)
        for a, b, gram_norm, req, ok, p, q in zip(
            i.tolist(), j.tolist(), norms.tolist(), required.tolist(),
            compliant.tolist(), g1.tolist(), g2.tolist())]


def _zero_coordinate(total, pairs, tol):
    """The zero-coordinate report; (sum_l R_l)* = ``total``* is only
    decomposed when some point's coordinate product is <= tol."""
    products = [(pair, math.prod(abs(z) for z in pair.mu)) for pair in pairs]
    hits = [(pair, prod) for pair, prod in products if prod <= tol]
    if not hits:
        return ZeroCoordinateReport()
    adj_sum = adjoint(total)
    try:
        adj_eigs = np.linalg.eigvals(adj_sum)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = 1.0 + fro_norm(adj_sum)
    entries = []
    for pair, prod in hits:
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
                          _zero_coordinate(op_sum(r), pairs, tol_spectra))


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
