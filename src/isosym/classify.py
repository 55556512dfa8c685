"""Membership verdicts, minimal orders, family ranks, perturbed orders."""

from dataclasses import dataclass

from .defect import DefectTable, isometry_defect, isosymmetry_defect, \
    isosymmetry_defect_matrix, symmetry_defect
from .errors import HypothesisUnmet, InvalidParams
from .linalg import matrix_rank


@dataclass(frozen=True)
class ClassVerdict:
    """Holds/fails verdict of one membership test: its DefectReport, copied."""

    property: str          # "m_isometric", "n_symmetric" or "mn_isosymmetric"
    orders: tuple
    holds: bool            # the report's is_zero
    defect_norm: float
    tolerance: float
    gap: float | None      # the forms gap of L_{m,n}; None for M_m and S_n
    margin: float          # defect_norm / tolerance: holds means <= 1


@dataclass(frozen=True)
class MinimalOrders:
    """Minimal antichain of vanishing orders inside a scanned box."""

    staircase: list        # [(m, n), ...], no pair dominating another
    search_bounds: tuple   # (m_max, n_max)
    exhausted: bool        # True when no cell of the box vanished: the
                           # search ran out of box


@dataclass(frozen=True)
class FamilyRank:
    """Rank report for a defect family along one axis."""

    rank: int
    independent: bool
    hypothesis: str        # "met" or "indeterminate"


def _verdict(prop, read, r, orders, tol):
    """``prop``'s verdict: the report ``read(r, *orders, tol)``, copied."""
    if sum(orders) < 1:  # named by prop's prefix: "m", "n" or "m + n"
        raise InvalidParams(f"{' + '.join(prop.split('_')[0])} must be >= 1")
    report = read(r, *orders, tol)
    return ClassVerdict(prop, orders, report.is_zero, report.norm,
                        report.tolerance_used, report.gap, report.margin)


def is_m_isometric(r, m, tol=None):
    """Does M_m(r) vanish?  ``r``: a tuple or its DefectTable."""
    return _verdict("m_isometric", isometry_defect, r, (m,), tol)


def is_n_symmetric(r, n, tol=None):
    """Does S_n(r) vanish?  ``r``: a tuple or its DefectTable."""
    return _verdict("n_symmetric", symmetry_defect, r, (n,), tol)


def is_isosymmetric(r, m, n, tol=None):
    """Does L_{m,n}(r) vanish?  ``r``: a tuple or its DefectTable."""
    return _verdict("mn_isosymmetric", isosymmetry_defect, r, (m, n), tol)


def minimal_orders(r, m_max, n_max, tol=None):
    """Minimal (m, n) pairs with vanishing defect inside a box.

    Raising either order keeps a vanishing defect zero, so the zero cells
    form an up-set; its minimal antichain is a staircase falling as m grows.
    The walk keeps n at the lowest zero row of the column before and steps
    it down while the cell below is zero; each column where n fell adds one
    pair, so at most m_max + n_max + 2 cells are read.  The table builds the
    M-style sums of the whole box first, so each cell only combines them.
    ``r`` is a tuple or its DefectTable; a caller that reads more cells
    afterwards passes its table and finds them built.
    """
    for name, bound in (("m_max", m_max), ("n_max", n_max)):
        if not 0 <= bound <= 12:
            raise InvalidParams(f"{name} must be in 0..12, got {bound}")
    table = DefectTable.of(r)
    table.prepare(m_max, n_max)
    found, n = [], n_max + 1  # n: the lowest zero row of the column before
    for m in range(m_max + 1):
        top = n
        while n > 0 and isosymmetry_defect(table, m, n - 1, tol).is_zero:
            n -= 1
        if n < top:
            found.append((m, n))
    return MinimalOrders(staircase=found, search_bounds=(m_max, n_max),
                         exhausted=not found)


def minimal_pairs(pairs):
    """The pairs no other pair dominates, once each, in increasing m."""
    pairs = set(pairs)
    return sorted(p for p in pairs
                  if not any(o != p and o[0] <= p[0] and o[1] <= p[1]
                             for o in pairs))


def perturbed_orders(staircase, q):
    """Vanishing orders of R + Q, Q cross-commuting and q-nilpotent, from
    R's: each pair raised to (>= 1, >= 1), shifted by (2q - 2, 2q - 1), and
    the ``minimal_pairs`` of the results (raising may make one dominate)."""
    return minimal_pairs((max(m, 1) + 2 * q - 2, max(n, 1) + 2 * q - 1)
                         for m, n in staircase)


def defect_family_rank(r, m, n, direction, tol=None):
    """Numerical rank of a one-axis defect family.

    direction "vary_m": the family {L_{k,n-1} : k = 0..m-1} (independent
    means rank m); "vary_n": {L_{m-1,l} : l = 0..n-1} (rank n).  Requires
    the corner defect L_{m-1,n-1} to be nonzero; when its report is
    ``within_band`` of the threshold the rank is still reported but
    flagged "indeterminate".
    """
    if direction not in ("vary_m", "vary_n"):
        raise InvalidParams(f"unknown direction {direction!r}")
    if direction == "vary_m" and (m < 2 or n < 1):
        raise InvalidParams("vary_m needs m >= 2 and n >= 1")
    if direction == "vary_n" and (n < 2 or m < 1):
        raise InvalidParams("vary_n needs n >= 2 and m >= 1")
    table = DefectTable.of(r)
    corner = isosymmetry_defect(table, m - 1, n - 1, tol)
    if corner.is_zero:
        raise HypothesisUnmet(
            f"L_({m - 1},{n - 1}) vanishes (norm {corner.norm:.3e}); "
            "the independence hypothesis needs it nonzero")
    hypothesis = "indeterminate" if corner.within_band else "met"
    family = ([isosymmetry_defect_matrix(table, k, n - 1) for k in range(m)]
              if direction == "vary_m" else
              [isosymmetry_defect_matrix(table, m - 1, l) for l in range(n)])
    rank = matrix_rank(family)
    return FamilyRank(rank=rank, independent=rank == len(family),
                      hypothesis=hypothesis)
