"""Builders for the structured tuple families and random test instances.

Every builder returns a MultiOperator whose commutation invariant holds by
construction: scaled tuples and polynomial families commute exactly, block
and tensor constructions commute exactly in the cross terms and inherit
the base residuals elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from .defect import MultiOperator
from .errors import BetaNotNormalized, DMismatch, InvalidParams, TooLarge
from .linalg import as_matrix, checked_count, fro_norm, kron

#: rounding allowance on |sum(beta_j^2) - 1| and on a vanishing sum(beta_j)
BETA_TOL = 1e-12
#: largest dim of a built result: one component is then 16 MB, and so is a
#: whole random or nilpotent tuple of at most MAX_BUILT_DIM ** 2 entries
MAX_BUILT_DIM = 1024


def _check_built_dim(dim, what):
    """Refuse a result of more than MAX_BUILT_DIM before it is allocated."""
    if dim > MAX_BUILT_DIM:
        raise TooLarge(f"the {what} would be {dim}x{dim}, above the "
                       f"{MAX_BUILT_DIM}x{MAX_BUILT_DIM} limit")


def _check_built_entries(d, dim, what):
    """Refuse a tuple of more than MAX_BUILT_DIM ** 2 entries in all before
    it is allocated."""
    if d * dim ** 2 > MAX_BUILT_DIM ** 2:
        raise TooLarge(f"the {what} would hold {d} x {dim}x{dim} entries, "
                       f"above the {MAX_BUILT_DIM ** 2} limit")


@dataclass(frozen=True)
class ScaledTupleSpec:
    """A single operator spread over d slots with l2-normalized weights."""

    base: np.ndarray
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", as_matrix(self.base))
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        # "not <=" also refuses NaN weights, for which every comparison fails
        if not abs(sum(b * b for b in beta) - 1.0) <= BETA_TOL:
            raise BetaNotNormalized(
                f"sum of squared weights is {sum(b * b for b in beta)!r}, not 1")


@dataclass(frozen=True)
class JordanAugmentSpec:
    """Block upper-bidiagonal augmentation of a base tuple.

    Component k of the result is the q x q block matrix with the base
    component A_k down the diagonal and mu_k * I on the superdiagonal.
    """

    base_tuple: MultiOperator
    mu: tuple
    q: int

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(complex(m) for m in self.mu))
        if len(self.mu) != self.base_tuple.d:
            raise InvalidParams("need one mu per tuple component")
        object.__setattr__(self, "q", checked_count("q", self.q, 1))


def scaled_tuple(spec):
    """The tuple (beta_1 R, ..., beta_d R); commutes exactly."""
    return MultiOperator(np.multiply.outer(spec.beta, spec.base))


def reference_pair():
    """The canonical 3x3 pair that is (1,1)-isosymmetric but neither
    1-isometric nor 1-symmetric: a rank-one nilpotent plus the identity."""
    r1 = np.zeros((3, 3), dtype=np.complex128)
    r1[1, 0] = 1.0
    return MultiOperator([r1, np.eye(3, dtype=np.complex128)])


def tensor_sum_parts(r, q):
    """The pair (R_k (x) I, I (x) Q_k) on the product space.

    The two returned tuples cross-commute exactly (entrywise, including
    adjoints); their sum is :func:`tensor_sum` of the inputs.
    """
    if r.d != q.d:
        raise DMismatch("tuples must have the same number of components")
    _check_built_dim(r.dim * q.dim, "tensor sum")
    eye_r = np.eye(r.dim, dtype=np.complex128)
    eye_q = np.eye(q.dim, dtype=np.complex128)
    left = MultiOperator([kron(m, eye_q) for m in r.matrices])
    right = MultiOperator([kron(eye_r, m) for m in q.matrices])
    return left, right


def tensor_sum(r, q):
    """Component k = R_k (x) I + I (x) Q_k; dims multiply."""
    left, right = tensor_sum_parts(r, q)
    return MultiOperator(left.stack + right.stack)


def jordan_augment_parts(spec):
    """The block-diagonal part and the nilpotent superdiagonal part.

    The first tuple repeats each base component q times down the diagonal;
    the second is mu_k times the block shift, which is exactly q-nilpotent
    (or identically zero when all mu_k vanish) and cross-commutes exactly
    with the first.
    """
    a = spec.base_tuple
    _check_built_dim(spec.q * a.dim, "Jordan augmentation")
    eye_q = np.eye(spec.q, dtype=np.complex128)
    shift = _block_shift(spec.q, spec.q)
    eye_dim = np.eye(a.dim, dtype=np.complex128)
    diag = MultiOperator([kron(eye_q, m) for m in a.matrices])
    nil = MultiOperator(np.multiply.outer(spec.mu, kron(shift, eye_dim)))
    return diag, nil


def jordan_augment(spec):
    """Block q x q upper-bidiagonal tuple over the base tuple."""
    diag, nil = jordan_augment_parts(spec)
    return MultiOperator(diag.stack + nil.stack)


def _block_shift(dim, q):
    """Nilpotent matrix of index exactly q: shift blocks of size <= q."""
    n = np.zeros((dim, dim), dtype=np.complex128)
    for start in range(0, dim, q):
        stop = min(start + q, dim)
        for i in range(start, stop - 1):
            n[i, i + 1] = 1.0
    return n


def nilpotent_tuple(d, dim, order, seed):
    """Random commuting tuple with Q^gamma = 0 for every |gamma| = order.

    Each component is a random polynomial with zero constant term in one
    fixed shift of nilpotency index ``order``, so products of ``order``
    components vanish exactly (strictly triangular support).  The linear
    coefficient is bounded away from zero so the order is exact.
    """
    seed = checked_count("seed", seed, 0)
    if order < 1 or order > dim:
        raise InvalidParams(f"need 1 <= order <= dim, got order={order}")
    _check_built_dim(dim, "nilpotent tuple")
    _check_built_entries(d, dim, "nilpotent tuple")
    rng = np.random.default_rng(seed)
    shift = _block_shift(dim, order)
    powers = [np.linalg.matrix_power(shift, p) for p in range(order)]
    mats = []
    for _ in range(d):
        m = np.zeros((dim, dim), dtype=np.complex128)
        lead = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        if order > 1:
            m = m + lead * powers[1]
        for p in range(2, order):
            c = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            m = m + c * powers[p]
        mats.append(m)
    return MultiOperator(mats)


def random_commuting_tuple(d, dim, seed):
    """Random commuting tuple: polynomials in one fixed random matrix.

    Commutation is exact up to rounding without any simultaneous
    triangularization; components are scaled to Frobenius norm <= 1 so the
    defect zero-test scale factors stay moderate.  Deterministic in
    ``seed`` (PCG64 stream).
    """
    seed = checked_count("seed", seed, 0)
    if not 1 <= dim <= 64:
        raise InvalidParams(f"random tuples need 1 <= dim <= 64, got {dim}")
    _check_built_entries(d, dim, "random tuple")
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t = t / max(1.0, fro_norm(t))
    deg = min(dim - 1, 3)
    powers = [np.linalg.matrix_power(t, p) for p in range(deg + 1)]
    mats = []
    for _ in range(d):
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        m = sum(c * p for c, p in zip(coeffs, powers))
        mats.append(m / max(1.0, fro_norm(m)))
    if dim > 1:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(g)
        mats = [u @ m @ u.conj().T for m in mats]
    return MultiOperator(mats)


def identity_tuple(d, dim):
    """The tuple of d identity matrices."""
    return MultiOperator([np.eye(dim, dtype=np.complex128)] * d)
