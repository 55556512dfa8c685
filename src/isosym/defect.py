"""Defect operators of commuting tuples.

For a commuting tuple R = (R_1, ..., R_d) on C^dim the three defect
families are

    S_l(R)   = sum_{k=0..l} (-1)^(l-k) C(l,k) (sum_j R_j*)^k (sum_j R_j)^(l-k)
    M_l(R)   = sum_{k=0..l} (-1)^(l-k) C(l,k)
                   sum_{|gamma|=k} (k!/gamma!) R*^gamma R^gamma
    L_{m,n}(R) = the interleaving of the two, computable either as the
                 S-style alternating sum wrapped around M_m ("sym_outer")
                 or as the M-style weighted sum wrapped around S_n
                 ("iso_outer"); both agree on commuting input.

R^gamma means R_1^g1 ... R_d^gd.  Vanishing of M_m, S_n, L_{m,n} defines
m-isometric, n-symmetric and (m,n)-isosymmetric tuples respectively.

Zero tests are Frobenius-norm tests against a scaled tolerance: the defect
of order (m, n) is a polynomial of degree at most 2(m+n) in the tuple
entries, so the scale is tol * (1 + max_j ||R_j||)^(2(m+n)) * dim.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import kernels
from .errors import (CrossCommutationViolated, CommutationViolated,
                     DimensionMismatch, DMismatch, FormsDisagree,
                     InvalidParams)
from .linalg import adjoint, as_matrix, fro_norm
from .multiindex import binomial, mi_factorial, multi_indices, trinomial_coeff

#: base tolerance of all defect zero tests
TOL_ZERO = 1e-8
#: relative tolerance of the pairwise commutation invariant
TOL_COMM = 1e-10


class MultiOperator:
    """Ordered tuple of pairwise-commuting square matrices of one size.

    Commutation is enforced at construction: for every i < j the residual
    ||R_i R_j - R_j R_i|| must stay within
    tol_comm * (1 + ||R_i||) * (1 + ||R_j||), else CommutationViolated.
    Matrices are stored read-only; instances are immutable and safe to
    share between threads.
    """

    __slots__ = ("matrices", "d", "dim", "commutation_residual")

    def __init__(self, matrices, tol_comm=TOL_COMM):
        mats = tuple(as_matrix(m) for m in matrices)
        if not mats:
            raise InvalidParams("a tuple needs at least one component")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (dim, dim):
                raise DimensionMismatch(
                    f"components must all be {dim}x{dim}, got {m.shape}")
        norms = [fro_norm(m) for m in mats]
        worst = 0.0
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                resid = fro_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                rel = resid / ((1.0 + norms[i]) * (1.0 + norms[j]))
                worst = max(worst, rel)
        if worst > tol_comm:
            raise CommutationViolated(
                f"commutation residual {worst:.3e} exceeds {tol_comm:.3e}")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "d", len(mats))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "commutation_residual", worst)

    def __setattr__(self, name, value):
        raise AttributeError("MultiOperator is immutable")

    def max_norm(self):
        return max(fro_norm(m) for m in self.matrices)

    def __repr__(self):
        return f"MultiOperator(d={self.d}, dim={self.dim})"


@dataclass(frozen=True)
class DefectReport:
    """A computed defect operator with its zero verdict."""

    kind: str              # "S", "M" or "Lambda"
    orders: tuple          # (l,) or (m, n)
    matrix: np.ndarray
    norm: float
    tolerance_used: float
    is_zero: bool


def zero_tolerance(r, m, n, tol=None):
    """Scaled zero-test tolerance for an order-(m, n) defect of r."""
    base = TOL_ZERO if tol is None else tol
    return base * (1.0 + r.max_norm()) ** (2 * (m + n)) * r.dim


def op_sum(r):
    """Sum of the tuple components."""
    out = np.zeros((r.dim, r.dim), dtype=np.complex128)
    for m in r.matrices:
        out = out + m
    return out


def _ladder(mat, kmax):
    """Stack of powers [I, M, M^2, ..., M^kmax]."""
    n = mat.shape[0]
    out = np.empty((kmax + 1, n, n), dtype=np.complex128)
    out[0] = np.eye(n)
    for p in range(1, kmax + 1):
        out[p] = out[p - 1] @ mat
    return out


def _ladder_stack(mats, kmax):
    """(d, kmax+1, n, n) stack of per-component power ladders."""
    return np.ascontiguousarray([_ladder(m, kmax) for m in mats])


def _graded_weights(order, d):
    """Flattened (gamma, weight) terms of the M-style sum of one order.

    Yields every |gamma| <= order with weight
    (-1)^(order-|gamma|) C(order,|gamma|) |gamma|!/gamma!.
    """
    gammas, weights = [], []
    for k in range(order + 1):
        sign = -1.0 if (order - k) % 2 else 1.0
        c = binomial(order, k)
        for g in multi_indices(d, k):
            gammas.append(g)
            weights.append(sign * c * factorial(k) / mi_factorial(g))
    return (np.array(gammas, dtype=np.intp).reshape(len(gammas), d),
            np.array(weights, dtype=np.float64))


def _check_orders(**orders):
    for name, value in orders.items():
        if value < 0:
            raise InvalidParams(f"defect order {name} must be >= 0, got {value}")


def symmetry_defect_matrix(r, l):
    """S_l(r) as a raw matrix."""
    _check_orders(l=l)
    total = op_sum(r)
    lad_star = _ladder(adjoint(total), l)
    lad = _ladder(total, l)
    ks = np.arange(l + 1)
    weights = np.array([(-1.0) ** (l - k) * binomial(l, k) for k in ks])
    return kernels.active.weighted_sandwich_sum(
        lad_star[ks], None, lad[l - ks], weights)


def isometry_defect_matrix(r, l):
    """M_l(r) as a raw matrix."""
    _check_orders(l=l)
    gammas, weights = _graded_weights(l, r.d)
    lad_star = _ladder_stack([adjoint(m) for m in r.matrices], l)
    lad = _ladder_stack(r.matrices, l)
    lefts = kernels.active.gamma_products(lad_star, gammas)
    rights = kernels.active.gamma_products(lad, gammas)
    return kernels.active.weighted_sandwich_sum(lefts, None, rights, weights)


def _lambda_sym_outer(r, m, n, mid=None):
    """L_{m,n}(r): S-style alternating sum around M_m."""
    if mid is None:
        mid = isometry_defect_matrix(r, m)
    total = op_sum(r)
    lad_star = _ladder(adjoint(total), n)
    lad = _ladder(total, n)
    ks = np.arange(n + 1)
    weights = np.array([(-1.0) ** (n - k) * binomial(n, k) for k in ks])
    return kernels.active.weighted_sandwich_sum(
        lad_star[ks], mid, lad[n - ks], weights)


def _lambda_iso_outer(r, m, n, mid=None):
    """L_{m,n}(r): M-style weighted sum around S_n."""
    if mid is None:
        mid = symmetry_defect_matrix(r, n)
    gammas, weights = _graded_weights(m, r.d)
    lad_star = _ladder_stack([adjoint(a) for a in r.matrices], m)
    lad = _ladder_stack(r.matrices, m)
    lefts = kernels.active.gamma_products(lad_star, gammas)
    rights = kernels.active.gamma_products(lad, gammas)
    return kernels.active.weighted_sandwich_sum(lefts, mid, rights, weights)


def isosymmetry_defect_matrix(r, m, n, tol=None):
    """L_{m,n}(r), evaluated through both equivalent forms.

    The forms must agree within the scaled tolerance (this is the cheapest
    end-to-end detector of a corrupted input); FormsDisagree otherwise.
    Returns the sym_outer value.
    """
    _check_orders(m=m, n=n)
    a = _lambda_sym_outer(r, m, n)
    b = _lambda_iso_outer(r, m, n)
    gap = fro_norm(a - b)
    allowed = zero_tolerance(r, m, n, tol)
    if gap > allowed:
        raise FormsDisagree(
            f"the two L_({m},{n}) forms differ by {gap:.3e} "
            f"(allowed {allowed:.3e}); input likely fails commutation")
    return a


def _report(kind, orders, matrix, tolerance_used):
    norm = fro_norm(matrix)
    return DefectReport(kind=kind, orders=orders, matrix=matrix, norm=norm,
                        tolerance_used=tolerance_used,
                        is_zero=norm <= tolerance_used)


def symmetry_defect(r, l, tol=None):
    """S_l(r) with a zero verdict; S_n(r) = 0 means r is n-symmetric."""
    return _report("S", (l,), symmetry_defect_matrix(r, l),
                   zero_tolerance(r, 0, l, tol))


def isometry_defect(r, l, tol=None):
    """M_l(r) with a zero verdict; M_m(r) = 0 means r is m-isometric."""
    return _report("M", (l,), isometry_defect_matrix(r, l),
                   zero_tolerance(r, l, 0, tol))


def isosymmetry_defect(r, m, n, tol=None):
    """L_{m,n}(r) with a zero verdict; zero means (m,n)-isosymmetric."""
    return _report("Lambda", (m, n), isosymmetry_defect_matrix(r, m, n, tol),
                   zero_tolerance(r, m, n, tol))


def raise_isometry_order(r, m, n):
    """One recurrence step in m: sum_j R_j* L_{m,n} R_j - L_{m,n}.

    Equals L_{m+1,n}(r) within tolerance.
    """
    lam = isosymmetry_defect_matrix(r, m, n)
    out = -lam
    for rj in r.matrices:
        out = out + adjoint(rj) @ lam @ rj
    return out


def raise_symmetry_order(r, m, n):
    """One recurrence step in n: (sum_j R_j*) L_{m,n} - L_{m,n} (sum_j R_j).

    Equals L_{m,n+1}(r) within tolerance.
    """
    lam = isosymmetry_defect_matrix(r, m, n)
    total = op_sum(r)
    return adjoint(total) @ lam - lam @ total


def cross_commutation_residual(r, q):
    """Worst relative residual of [R_j, Q_i] and [R_j, Q_i*] over all i, j."""
    worst = 0.0
    for rj in r.matrices:
        nr = 1.0 + fro_norm(rj)
        for qi in q.matrices:
            nq = 1.0 + fro_norm(qi)
            for qc in (qi, adjoint(qi)):
                resid = fro_norm(rj @ qc - qc @ rj)
                worst = max(worst, resid / (nr * nq))
    return worst


def perturbation_expansion(r, q, m, n, tol_comm=TOL_COMM):
    """Expansion of L_{m,n}(r + q) in defects of r and q separately.

    Requires [R_j, Q_i] = [R_j, Q_i*] = 0 (within tol_comm, relative).
    Evaluates

        sum_{j=0..n} sum_{|a|+|g|+k=m} C(n,j) m!/(a! g! k!)
            (R+Q)*^a Q*^g  L_{k,n-j}(R) S_j(Q)  R^g Q^a

    which equals L_{m,n}(r + q) within tolerance.
    """
    _check_orders(m=m, n=n)
    if r.d != q.d:
        raise DMismatch("tuples must have the same number of components")
    if r.dim != q.dim:
        raise DimensionMismatch("tuples must act on the same space")
    resid = cross_commutation_residual(r, q)
    if resid > tol_comm:
        raise CrossCommutationViolated(
            f"cross-commutation residual {resid:.3e} exceeds {tol_comm:.3e}")

    d, dim = r.d, r.dim
    lad_star_rq = _ladder_stack(
        [adjoint(a + b) for a, b in zip(r.matrices, q.matrices)], m)
    lad_star_q = _ladder_stack([adjoint(b) for b in q.matrices], m)
    lad_r = _ladder_stack(r.matrices, m)
    lad_q = _ladder_stack(q.matrices, m)

    lam_r = [[isosymmetry_defect_matrix(r, k, l) for l in range(n + 1)]
             for k in range(m + 1)]
    s_q = [symmetry_defect_matrix(q, j) for j in range(n + 1)]

    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(m + 1):
        pairs = []
        coeffs = []
        for a in range(m - k + 1):
            for alpha in multi_indices(d, a):
                for gamma in multi_indices(d, m - k - a):
                    pairs.append((alpha, gamma))
                    coeffs.append(float(trinomial_coeff(m, alpha, gamma, k)))
        alphas = np.array([p[0] for p in pairs], dtype=np.intp).reshape(len(pairs), d)
        gammas = np.array([p[1] for p in pairs], dtype=np.intp).reshape(len(pairs), d)
        coeffs = np.array(coeffs)
        lefts = kernels.active.pairwise_matmul(
            kernels.active.gamma_products(lad_star_rq, alphas),
            kernels.active.gamma_products(lad_star_q, gammas))
        rights = kernels.active.pairwise_matmul(
            kernels.active.gamma_products(lad_r, gammas),
            kernels.active.gamma_products(lad_q, alphas))
        for j in range(n + 1):
            mid = lam_r[k][n - j] @ s_q[j]
            out = out + kernels.active.weighted_sandwich_sum(
                lefts, mid, rights, binomial(n, j) * coeffs)
    return out
