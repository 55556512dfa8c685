"""Multi-index arithmetic and the coefficients weighting the defect sums.

A multi-index is a plain tuple of nonnegative ints.  All coefficients are
computed in exact integer arithmetic and converted to float only where a
matrix gets scaled.
"""

import math
from itertools import combinations_with_replacement

from .errors import InvariantViolation, TooLarge

#: hard cap on the number of multi-indices one enumeration may produce
MAX_ENUM = 10**6


def degree(gamma):
    """|gamma|: the sum of the components."""
    return sum(gamma)


def mi_factorial(gamma):
    """gamma!: the product of the component factorials."""
    out = 1
    for g in gamma:
        out *= math.factorial(g)
    return out


def binomial(n, k):
    """C(n, k), with the convention that any negative index gives 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial_weight(gamma):
    """|gamma|! / gamma!  (the number of words with letter counts gamma)."""
    if any(g < 0 for g in gamma):
        return 0
    return math.factorial(sum(gamma)) // mi_factorial(gamma)


def trinomial_coeff(m, alpha, gamma, k):
    """m! / (alpha! gamma! k!) for |alpha| + |gamma| + k == m.

    Any negative component (including k < 0) gives 0.  Raises
    InvariantViolation when the degrees do not add up to m.
    """
    if any(a < 0 for a in alpha) or any(g < 0 for g in gamma) or k < 0:
        return 0
    if degree(alpha) + degree(gamma) + k != m:
        raise InvariantViolation(
            f"|alpha| + |gamma| + k = {degree(alpha) + degree(gamma) + k} != m = {m}")
    return math.factorial(m) // (mi_factorial(alpha) * mi_factorial(gamma) * math.factorial(k))


def multi_indices(d, k):
    """All gamma in N_0^d with |gamma| = k, lexicographically increasing."""
    count = math.comb(k + d - 1, d - 1)
    if count > MAX_ENUM:
        raise TooLarge(f"{count} multi-indices exceed the bound {MAX_ENUM}")
    out = []
    # choose positions of the d-1 separators among k stars (stars and bars)
    for cuts in combinations_with_replacement(range(k + 1), d - 1):
        bounds = (0,) + cuts + (k,)
        out.append(tuple(bounds[i + 1] - bounds[i] for i in range(d)))
    out.sort()
    return out


def _unit(d, i):
    e = [0] * d
    e[i] = 1
    return tuple(e)


def _sub(gamma, eps):
    return tuple(g - e for g, e in zip(gamma, eps))


def verify_multinomial_recurrence(n, d):
    """Check the Pascal-style recurrence of the three-part coefficients.

    For every (alpha, gamma, k) with |alpha| + |gamma| + k = n + 1:

        C(n+1; alpha, gamma, k) = sum_i [ C(n; alpha - e_i, gamma, k)
                                        + C(n; alpha, gamma - e_i, k) ]
                                        + C(n; alpha, gamma, k - 1)

    where coefficients with any negative entry count as 0.  Exhaustive over
    the full decomposition set; returns True iff every case holds.
    """
    total = n + 1
    units = [_unit(d, i) for i in range(d)]
    for a in range(total + 1):
        for g in range(total + 1 - a):
            k = total - a - g
            for alpha in multi_indices(d, a):
                for gamma in multi_indices(d, g):
                    lhs = trinomial_coeff(total, alpha, gamma, k)
                    rhs = trinomial_coeff(n, alpha, gamma, k - 1)
                    for e in units:
                        rhs += trinomial_coeff(n, _sub(alpha, e), gamma, k)
                        rhs += trinomial_coeff(n, alpha, _sub(gamma, e), k)
                    if lhs != rhs:
                        return False
    return True

