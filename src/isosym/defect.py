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

Every zero test is one Frobenius-norm test, in ``_judged``, against a
scaled tolerance: the defect of order (m, n) is a polynomial of degree at
most 2(m+n) in the tuple entries, so the scale is tol * (1 + max_j
||R_j||)^(2(m+n)) * dim.  An order whose scale or weights overflow a
float is refused (TooLarge) before any matrix is formed.

Two sums around a middle operator X make every defect: the S-style
sandwich sum_k (-1)^(n-k) C(n,k) T*^k X T^(n-k), T = sum_j R_j, gives S_n
(X = I = M_0) and the "sym_outer" form (X = M_m).  Both middles are
Hermitian, so term n-k is (-1)^n times the adjoint of term k: only the
terms k <= n/2 are formed, 2(n//2 + 1) matrix products, and their sum P
gives P + (-1)^n P*.  The M-style sum sum_k (-1)^(m-k) C(m,k) B_k(X) of

    B_k(X) = sum_{|gamma|=k} (k!/gamma!) R*^gamma X R^gamma

gives M_m (X = I = S_0) and the "iso_outer" form (X = S_n).  B_k is never
enumerated over gamma: for commuting R_j the multinomial theorem makes it
the k-th power of one map,

    B_k(X) = Phi_0^k(X),   Phi_0(X) = sum_j R_j* X R_j,

so B_0..B_K around one middle X cost 2K matrix products and no power
ladder of any R_j: each application of Phi_0 is [R_1*; ...; R_d*] @ X,
d blocks tall, then its blocks side by side times [R_1; ...; R_d], whose
inner dimension sums the d terms.  The perturbation expansion of
L_{m,n}(R + Q) is the same multinomial sum over 2d components around a
stack of middles X_0..X_m; ``_multinomial_steps`` evaluates both.  It
only adds matrix products and scales none, so an integer tuple's sums
stay exact while its entries do.  One function, ``_combine``, reduces
every other weighted sum of matrices.

Every defect is evaluated by a DefectTable, which keeps the ladder of T,
the M-style sums and the checked cells L_{m,n} of one tuple, M_m = L_{m,0}
and S_n = L_{0,n} among them: on an axis the two forms are one sum.  The
tuple itself (MultiOperator) owns its components' stack, norms and T.
Every function here and in ``classify`` that reads a defect takes a
tuple, for which it builds a throwaway table, or its DefectTable, which
it reads and grows.  A caller reading several defects of one tuple
passes one table wherever the tuple goes; the table is never stored on
the tuple or in this module, so it lives exactly as long as its caller
keeps it.  Cells are always evaluated from the definitions, never from
the recurrence, and the arrays a table hands out are read-only because
it keeps them for later reads.
"""

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, pairwise

import numpy as np

from . import kernels
from .errors import (CrossCommutationViolated, CommutationViolated,
                     DimensionMismatch, DMismatch, FormsDisagree,
                     InvalidParams, TooLarge)
from .linalg import adjoint, as_stack, checked_tolerance, fro_norm, is_int
from .multiindex import binomial, multinomial_weight

#: base tolerance of all defect zero tests
TOL_ZERO = 1e-8
#: width of the indeterminate band above a zero test's threshold, as a factor
STRICTNESS_BAND = 10.0
#: relative tolerance of the pairwise commutation invariant
TOL_COMM = 1e-10


def _commutator_residual(a, b, norm_a, norm_b):
    """||AB - BA|| / ((1 + ||A||)(1 + ||B||)), given the two norms.

    Where the squares of the commutator's entries overflow a float, its
    norm is taken on it scaled by its largest entry.  Call under
    ``np.errstate(over="ignore")``.
    """
    comm = a @ b - b @ a
    norm = fro_norm(comm)
    if norm == np.inf:
        big = float(np.abs(comm).max())
        norm = big * fro_norm(comm / big)
    return norm / ((1.0 + norm_a) * (1.0 + norm_b))


class MultiOperator:
    """Ordered tuple of pairwise-commuting square matrices of one size.

    The components are one read-only array ``stack`` (d, dim, dim), from
    a list of matrices or a 3-D array; ``matrices`` are its views stack[j]
    and ``norms`` their Frobenius norms.  Their sum T is formed once and
    read through ``op_sum``.

    Commutation is enforced at construction: for every i < j the residual
    ||R_i R_j - R_j R_i|| must stay within
    tol_comm * (1 + ||R_i||) * (1 + ||R_j||), else CommutationViolated; a
    component whose norm overflows a float is refused (TooLarge).
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("stack", "matrices", "norms", "d", "dim",
                 "commutation_residual", "_total")

    def __init__(self, matrices, tol_comm=TOL_COMM):
        stack = as_stack(matrices)
        mats = tuple(stack)
        # an overflow is refused here, not raised as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            norms = tuple(fro_norm(m) for m in mats)
            if max(norms) == np.inf:
                raise TooLarge("a component's norm overflows a float")
            worst = max((_commutator_residual(mats[i], mats[j], norms[i],
                                              norms[j])
                         for i in range(len(mats))
                         for j in range(i + 1, len(mats))), default=0.0)
        if not worst <= tol_comm:  # a NaN residual fails too
            raise CommutationViolated(
                f"commutation residual {worst:.3e} exceeds {tol_comm:.3e}")
        # T from a zero matrix, one component at a time
        total = sum(mats, np.zeros(stack.shape[1:], dtype=np.complex128))
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "d", len(mats))
        object.__setattr__(self, "dim", stack.shape[1])
        object.__setattr__(self, "commutation_residual", worst)
        object.__setattr__(self, "_total", _frozen(total))

    def __setattr__(self, name, value):
        raise AttributeError("MultiOperator is immutable")

    def max_norm(self):
        """max_j ||R_j||, of the norms taken at construction."""
        return max(self.norms)

    def __repr__(self):
        return f"MultiOperator(d={self.d}, dim={self.dim})"


@dataclass(frozen=True)
class DefectReport:
    """A computed defect operator and its zero verdict, from ``_judged``."""

    kind: str              # "S", "M" or "Lambda"
    orders: tuple          # (l,) or (m, n)
    matrix: np.ndarray
    norm: float
    tolerance_used: float
    is_zero: bool          # norm <= tolerance_used
    gap: float | None      # ||sym - iso|| of L_{m,n}; None for S and M
    margin: float          # norm / tolerance_used: zero means <= 1

    @property
    def within_band(self):
        """A zero, or a nonzero within STRICTNESS_BAND of its threshold."""
        return self.margin <= STRICTNESS_BAND


def zero_test_base(tol=None):
    """The base of the defect zero tests: TOL_ZERO, or ``tol`` once usable."""
    return TOL_ZERO if tol is None else checked_tolerance(tol)


def zero_tolerance(r, m, n, tol=None):
    """Scaled zero-test tolerance for an order-(m, n) defect of r."""
    base = zero_test_base(tol)
    try:
        scale = base * (1.0 + r.max_norm()) ** (2 * (m + n)) * r.dim
    except OverflowError:
        scale = np.inf
    if scale == np.inf:
        raise TooLarge(f"the zero-test scale of order ({m},{n}) overflows "
                       "a float")
    return scale


def op_sum(r):
    """T = sum_j R_j, summed once when the tuple was built (read-only)."""
    return r._total


def _frozen(a):
    """Mark ``a`` read-only and return it."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=128)
def _alternating_weights(l):
    """(-1)^(l-k) C(l,k) for k = 0..l, the weights of the S-style sum."""
    return _frozen(np.array([(-1.0) ** (l - k) * binomial(l, k)
                             for k in range(l + 1)]))


@lru_cache(maxsize=128)
def _paired_weights(l):
    """The S-style weights of k = 0..l // 2, the middle one of an even l
    halved: the sum over k <= l/2 and its (-1)^l-adjoint give all l + 1
    terms.  C(l, l/2) is even, so every weight stays an integer."""
    weights = _alternating_weights(l)[:l // 2 + 1].copy()
    if l % 2 == 0:
        weights[-1] /= 2
    return _frozen(weights)


#: entries of complex128 (32 MB) that one step's product stack may hold; a
#: table's steps over more middle operators are split into runs of this size
_NESTING_ENTRIES = 2 ** 21


def _multinomial_steps(lefts, rights, stack, order):
    """Y_t = sum_k C(t,k) Psi^(t-k)(X_k) for t = 0..order, Psi(X) = sum_c
    L_c X R_c over the pairs (``lefts[c]``, ``rights[c]``).

    ``stack`` is (b, s, n, n): b stacks X_0..X_(s-1), with X_k = 0 past
    them; the (b, order+1, n, n) Y_0..Y_order of each are returned.  Each
    step is one level of Pascal's triangle over the entries y_i still
    needed, i <= order - t, and nonzero, i < s:

        y_i <- y_(i+1) + Psi(y_i),

    so after t steps y_0 = Y_t.  Psi(y) is two products per entry: the
    tall [L_1; ...; L_c] @ y, whose blocks laid side by side make
    [L_1 y | ... | L_c y], times the tall [R_1; ...; R_c], whose inner
    dimension sums the c components.  With commuting factors on each
    side, Psi^p(X) = sum_{|gamma|=p} (p!/gamma!) L^gamma X R^gamma
    (multinomial theorem), and Y_t sums t!/(gamma! k!) L^gamma X_k
    R^gamma over every split |gamma| + k = t.  Every weight comes from
    adding, none from scaling.  Each entry's products are its own, so its
    Y's do not depend on the entries stacked beside it, and a one-entry
    stack [X] gives Y_t = Psi^t(X): steps continued from a kept Y_t
    repeat the later Y's bit for bit.
    """
    c, n = lefts.shape[:2]
    tall_lefts = lefts.reshape(c * n, n)
    tall_rights = rights.reshape(c * n, n)
    b = stack.shape[0]
    out = np.empty((b, order + 1, n, n), dtype=np.complex128)
    out[:, 0] = stack[:, 0]
    y = stack
    for t in range(1, order + 1):
        live = min(y.shape[1], order - t + 1)
        wide = (tall_lefts @ y[:, :live]).reshape(b, live, c, n, n) \
            .transpose(0, 1, 3, 2, 4).reshape(b, live, n, c * n)
        step = wide @ tall_rights
        carry = y[:, 1:live + 1]
        step[:, :carry.shape[1]] += carry
        y = step
        out[:, t] = y[:, 0]
    return out


def _combine(weights, stack):
    """sum_k weights[k] * stack[k] over the first len(weights) matrices."""
    k = len(weights)
    flat = stack[:k].reshape(k, -1).view(np.float64)
    return np.dot(weights, flat).view(np.complex128).reshape(stack.shape[1:])


@lru_cache(maxsize=None)
def _weights_overflow(l):
    """Whether C(l, l // 2), the largest weight of order l, overflows a
    float; it first does at 1030."""
    return binomial(l, l // 2) > sys.float_info.max


def _check_order(what, value):
    """Refuse an order that is not an int (TypeError) or is below 0."""
    if not is_int(value):
        raise TypeError(f"{what} is not an int: {value!r}")
    if value < 0:
        raise InvalidParams(f"{what} must be >= 0, got {value}")


def _check_orders(**orders):
    for name, value in orders.items():
        _check_order(f"defect order {name}", value)
        if _weights_overflow(value):
            raise TooLarge(f"the binomial weights of order {name} = {value} "
                           "overflow a float")


def _judged(kind, orders, matrix, norm, gap, threshold):
    """The report of a defect of Frobenius norm ``norm``: the one place a
    defect norm is compared with its zero-test threshold."""
    return DefectReport(kind=kind, orders=orders, matrix=matrix, norm=norm,
                        tolerance_used=threshold, is_zero=norm <= threshold,
                        gap=gap, margin=norm / threshold)


class DefectTable:
    """The defects of one tuple and their shared ingredients, each built once.

    Three stores are built on first use and grown when a higher order
    needs more: ``_t_powers``, the one power ladder of T = sum_j R_j,
    whose adjoints give the powers T*^k = (T^k)*; ``_sums``, the sums
    B_k(S_l) = Phi_0^k(S_l), k = 0..K, around each S_l read; and
    ``_cells``, every L_{m,n} judged.  S_0 is the identity itself, the
    ladder's first entry; any other S_l is made by one sandwich of its
    terms k <= l/2, the first time it is read.  Each is kept as the sums
    [S_l], whose B_0 it stays; M_m is one weighted sum of the B_k around
    S_0 = I, formed when read.  One run of multinomial steps re-steps
    every middle operator's sums that are too short for the order asked,
    each from its stored S_l, with the tuple's ``stack`` and its adjoint;
    order 0 asks for no run.  ``prepare(m_max, n_max)`` asks for a whole
    box.
    A cell, S_l = L_{0,l} and M_l = L_{l,0} too, is kept with its norm and
    forms gap (0 on an axis, whose forms are one array), which every
    judged read checks against the caller's tolerance.

    The module functions read it in place of the tuple; it offers only
    ``r``, ``of``, ``prepare`` and ``forms``.  The caller owns the table:
    ``r`` does not refer to it, so it is freed with the caller's last
    reference.  Every array it hands out is kept for later reads and is
    therefore read-only.
    """

    __slots__ = ("r", "_t_powers", "_sums", "_cells")

    def __init__(self, r):
        self.r = r
        # [I, T, ..., T^k] as (k+1, n, n)
        self._t_powers = _frozen(np.eye(r.dim, dtype=np.complex128)[None])
        self._sums = {}      # l -> B_0..B_k(S_l) as (k+1, n, n), B_0 = S_l
        self._cells = {}     # (m, n) -> (L_{m,n}, its norm, its forms gap)

    @classmethod
    def of(cls, r):
        """``r`` if it is a DefectTable, else a new table of the tuple r."""
        return r if isinstance(r, cls) else cls(r)

    def _powers(self, k):
        """Power ladder of T = sum_j R_j up to at least power k."""
        if len(self._t_powers) <= k:
            total = op_sum(self.r)
            ladder = list(self._t_powers)
            while len(ladder) <= k:
                ladder.append(ladder[-1] @ total)
            self._t_powers = _frozen(np.array(ladder))
        return self._t_powers

    def _nested(self, middles, order):
        """B_0..B_order(S_l) for each l in ``middles``, in that order.

        B_k(X) = Phi_0^k(X), Phi_0(X) = sum_j R_j* X R_j: the one-entry
        stack [S_l] (S_0 = I) through ``order`` multinomial steps.  Each
        S_l is made first; every middle whose sums then stop short of
        ``order`` is stepped again from its stored S_l, all of them
        together, in as few runs as _NESTING_ENTRIES allows, and none is
        run when no middle is short.
        """
        for l in middles:
            self._forms(0, l)  # S_l, stored as its sums [S_l]
        short = [l for l in dict.fromkeys(middles)
                 if len(self._sums[l]) <= order]
        if short:
            rights = self.r.stack
            lefts = rights.conj().transpose(0, 2, 1)
            batch = max(1, _NESTING_ENTRIES // (self.r.d * self.r.dim ** 2))
            for start in range(0, len(short), batch):
                part = short[start:start + batch]
                stack = np.array([[self._sums[l][0]] for l in part])
                steps = _multinomial_steps(lefts, rights, stack, order)
                for l, b in zip(part, steps):
                    self._sums[l] = _frozen(b)
        return [self._sums[l] for l in middles]

    def prepare(self, m_max, n_max):
        """Build the M-style sums of every cell (m <= m_max, n <= n_max).

        One run of steps then serves the whole box, where reading its cells
        one by one would run one per middle operator S_n.
        """
        _check_orders(m_max=m_max, n_max=n_max)
        self._nested(range(n_max + 1), m_max)

    def _sandwich(self, n, mid):
        """The S-style sum_k (-1)^(n-k) C(n,k) T*^k X T^(n-k), X = ``mid``
        (None: I): S_n around I, the sym form of L_{m,n} around M_m.

        X must be Hermitian, as I and M_m are for every tuple: term n-k is
        then (-1)^n times the adjoint of term k.  Only the terms k <= n/2
        are formed, in one batched product, and summed by one ``_combine``
        into P, the middle term of an even n at half its weight; the sum
        is P + (-1)^n P*, exactly (-1)^n-Hermitian.  Every weight stays an
        integer.  Order 0 gives (X + X*)/2 = X, but the table never asks
        for it: S_0 and M_0 are the ladder's stored I.
        """
        half = n // 2
        ladder = self._powers(n)
        stars = ladder[:half + 1].conj().transpose(0, 2, 1)  # T*^k = (T^k)*
        plain = ladder[n - half:n + 1][::-1]
        prods = stars @ plain if mid is None else stars @ mid @ plain
        part = _combine(_paired_weights(n), prods)
        return part + adjoint(part) if n % 2 == 0 else part - adjoint(part)

    def forms(self, m, n):
        """L_{m,n} through both of its forms, as read-only (sym, iso) arrays:
        the S-style alternating sum around M_m and the M-style weighted sum
        around S_n, which agree on commuting input and on an axis are one
        array, S_n (m = 0) or M_m (n = 0).  Only the orders are checked,
        and the table keeps neither: ``isosymmetry_defect_matrix`` is the
        checked, stored read."""
        _check_orders(m=m, n=n)
        return self._forms(m, n)

    def _forms(self, m, n):
        """``forms``, the orders checked by the caller.  At m = 0 both are
        the B_0 of the sums of S_n, which start as [S_n] when S_n is first
        read: [T^0] = [I] for n = 0, else one sandwich."""
        if not n and (m, 0) in self._cells:  # M_m, kept by a judged read
            return (self._cells[(m, 0)][0],) * 2
        if not m:
            if n not in self._sums:
                self._sums[n] = (_frozen(self._sandwich(n, None)[None]) if n
                                 else self._t_powers[:1])
            return (self._sums[n][0],) * 2
        zero, around = self._nested((0, n), m)  # one pass for M_m and iso
        weights = _alternating_weights(m)
        iso = _frozen(_combine(weights, around))
        sym = self._sandwich(n, _combine(weights, zero)) if n else iso
        return _frozen(sym), iso

    def _checked_cell(self, m, n, tol):
        """The judged read of cell (m, n), S_l and M_l too, its orders checked
        by the caller: L_{m,n}, its norm, checked forms gap and tolerance."""
        allowed = zero_tolerance(self.r, m, n, tol)
        if (m, n) not in self._cells:
            sym, iso = self._forms(m, n)
            gap = 0.0 if sym is iso else fro_norm(sym - iso)
            self._cells[(m, n)] = sym, fro_norm(sym), gap
        matrix, norm, gap = self._cells[(m, n)]
        if gap > allowed:
            raise FormsDisagree(
                f"the two L_({m},{n}) forms differ by {gap:.3e} "
                f"(allowed {allowed:.3e}); input likely fails commutation")
        return matrix, norm, gap, allowed


def symmetry_defect_matrix(r, l):
    """S_l(r) = L_{0,l}(r) as a raw (read-only) matrix, no norm formed."""
    _check_orders(l=l)
    return DefectTable.of(r)._forms(0, l)[0]


def isometry_defect_matrix(r, l):
    """M_l(r) = L_{l,0}(r) as a raw (read-only) matrix, no norm formed."""
    _check_orders(l=l)
    return DefectTable.of(r)._forms(l, 0)[0]


def isosymmetry_defect_matrix(r, m, n, tol=None):
    """L_{m,n}(r) as a raw (read-only) matrix; ``r`` a tuple or its table.

    Its two forms must agree within the scaled tolerance (the cheapest
    end-to-end detector of a corrupted input), else FormsDisagree.
    """
    _check_orders(m=m, n=n)
    return DefectTable.of(r)._checked_cell(m, n, tol)[0]


def symmetry_defect(r, l, tol=None):
    """S_l(r) with a zero verdict; S_n(r) = 0 means r is n-symmetric."""
    _check_orders(l=l)
    s, norm, _, allowed = DefectTable.of(r)._checked_cell(0, l, tol)
    return _judged("S", (l,), s, norm, None, allowed)


def isometry_defect(r, l, tol=None):
    """M_l(r) with a zero verdict; M_m(r) = 0 means r is m-isometric."""
    _check_orders(l=l)
    m, norm, _, allowed = DefectTable.of(r)._checked_cell(l, 0, tol)
    return _judged("M", (l,), m, norm, None, allowed)


def isosymmetry_defect(r, m, n, tol=None):
    """L_{m,n}(r) with a zero verdict; zero means (m,n)-isosymmetric."""
    _check_orders(m=m, n=n)
    cell = DefectTable.of(r)._checked_cell(m, n, tol)
    return _judged("Lambda", (m, n), *cell)


def raise_isometry_order(r, m, n):
    """One recurrence step in m: sum_j R_j* L_{m,n} R_j - L_{m,n}.

    Equals L_{m+1,n}(r) within tolerance; ``r`` a tuple or its DefectTable.
    """
    table = DefectTable.of(r)
    lam = isosymmetry_defect_matrix(table, m, n)
    out = -lam
    for rj in table.r.matrices:
        out = out + adjoint(rj) @ lam @ rj
    return out


def raise_symmetry_order(r, m, n):
    """One recurrence step in n: (sum_j R_j*) L_{m,n} - L_{m,n} (sum_j R_j).

    Equals L_{m,n+1}(r) within tolerance; ``r`` a tuple or its DefectTable.
    """
    table = DefectTable.of(r)
    lam = isosymmetry_defect_matrix(table, m, n)
    total = op_sum(table.r)
    return adjoint(total) @ lam - lam @ total


def cross_commutation_residual(r, q):
    """Worst relative residual of [R_j, Q_i] and [R_j, Q_i*] over all i, j."""
    if r.d != q.d:
        raise DMismatch("tuples must have the same number of components")
    if r.dim != q.dim:
        raise DimensionMismatch("tuples must act on the same space")
    with np.errstate(over="ignore"):
        sides = [(qc, nq) for qi, nq in zip(q.matrices, q.norms)
                 for qc in (qi, adjoint(qi))]
        return max(_commutator_residual(rj, qc, nr, nq)
                   for rj, nr in zip(r.matrices, r.norms)
                   for qc, nq in sides)


def nilpotency_residuals(stack):
    """sqrt(tr G_k) for k = 0, 1, ...: G_0 = I, G_k = sum_j R_j G_(k-1) R_j*.

    The R_j are the (d, n, n) array ``stack``, a tuple's.
    For commuting R_j, G_k = sum_{|alpha|=k} (k!/alpha!) R^alpha R^alpha*,
    so max ||R^alpha|| <= sqrt(tr G_k) <= d^(k/2) max ||R^alpha||, 0 iff
    every product of k components is.  ``kernels.active.gram_step`` carries
    a factor G_k = F_k F_k*, read as ||F_k||: G_k would round 0 to sqrt(eps).
    """
    factor = np.eye(stack.shape[-1], dtype=np.complex128)
    while True:
        # scaled by the largest entry, whose square may overflow or underflow
        big = np.abs(factor).max()
        yield big * fro_norm(factor / big) if big else 0.0
        factor = kernels.active.gram_step(stack, factor)


def nilpotency_residual(r, k):
    """sqrt(tr G_k) of ``nilpotency_residuals``; 0 iff r is k-nilpotent."""
    _check_order("order k", k)
    return next(islice(nilpotency_residuals(r.stack), k, None))


def nilpotency_order(r):
    """The smallest q with every product of q components numerically 0,
    the one q-nilpotency rule; None if no q <= dim qualifies.

    Scale-free: each component is divided by its Frobenius norm, and order
    q counts as 0 once sqrt(tr G_q) of ``nilpotency_residuals`` is at most
    1e-12 times that of q - 1 (sqrt(dim) for q = 1).  That is well above
    the rounding one more Gram step leaves on a zero sum, and below the
    ratio 1 / (sqrt(dim) cond(R_j)) that an invertible R_j keeps up, so a
    tuple is never called nilpotent while a component's condition number
    is below 1e12 / sqrt(dim).
    """
    unit = r.stack / np.reshape([n or 1.0 for n in r.norms], (-1, 1, 1))
    pairs = pairwise(nilpotency_residuals(unit))
    for k, (previous, residual) in zip(range(1, r.dim + 1), pairs):
        if residual <= 1e-12 * previous:
            return k
    return None


def perturbation_expansion(r, q, m, n):
    """Expansion of L_{m,n}(r + q) in defects of r and q separately.

    Requires [R_j, Q_i] = [R_j, Q_i*] = 0 (within TOL_COMM, relative).
    Evaluates

        sum_{|a|+|g|+k=m} m!/(a! g! k!) (R+Q)*^a Q*^g  X_k  Q^a R^g,
        X_k = sum_{j=0..n} C(n,j) L_{k,n-j}(R) S_j(Q),

    which equals L_{m,n}(r + q) within tolerance.  The sum is multinomial
    over 2d + 1 parts: with Psi(X) = sum_j (R_j+Q_j)* X Q_j + Q_j* X R_j,
    whose factors commute on each side under the hypothesis, it is
    sum_k C(m,k) Psi^(m-k)(X_k), the entry Y_m of the multinomial steps
    over the stack X_0..X_m: m(m+1) matrix products, each 2d blocks tall
    or wide, and no ladder.
    """
    _check_orders(m=m, n=n)
    resid = cross_commutation_residual(r, q)
    if resid > TOL_COMM:
        raise CrossCommutationViolated(
            f"cross-commutation residual {resid:.3e} exceeds {TOL_COMM:.3e}")
    # the largest coefficient is the multinomial of the most even split of
    # m into 2d + 1 parts
    even, rest = divmod(m, 2 * r.d + 1)
    split = [even + 1] * rest + [even] * (2 * r.d + 1 - rest)
    if multinomial_weight(split) > sys.float_info.max:
        raise TooLarge(f"the expansion coefficients of order {m} overflow "
                       "a float")

    table_r, table_q = DefectTable(r), DefectTable(q)
    table_r.prepare(m, n)  # one step run for every L_{k,l}(r) read below
    # L_{k,l}(r) S_(n-l)(q), indexed [k, l] and weighted by C(n, n-l) = C(n, l)
    pairs = np.array([[isosymmetry_defect_matrix(table_r, k, l)
                       for l in range(n + 1)] for k in range(m + 1)]) \
        @ np.array([symmetry_defect_matrix(table_q, n - l)
                    for l in range(n + 1)])
    binomials = np.abs(_alternating_weights(n))
    stack = np.array([[_combine(binomials, pair) for pair in pairs]])
    lefts = np.concatenate([r.stack + q.stack, q.stack]).conj() \
        .transpose(0, 2, 1)
    rights = np.concatenate([q.stack, r.stack])
    return _multinomial_steps(lefts, rights, stack, m)[0, m]
