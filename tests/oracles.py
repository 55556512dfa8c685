"""Naive reference implementations used as independent test oracles.

Everything here is written with plain numpy loops and matrix_power, with
multi-index enumeration via itertools -- deliberately sharing no
evaluation code with the package.  The gamma enumeration at the end is
the package's former evaluation of the M-style sums, kept as the
reference for the powers of Phi_0 that replaced it: its chained
products and its weighted sums (reduced by ``np.tensordot``) are
computed here, and only the enumeration order, ``multi_indices``, comes
from the package.
"""

import math
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from isosym.multiindex import multi_indices


def degree_indices(d, k):
    """All multi-indices of degree k via filtered cartesian product."""
    return [g for g in product(range(k + 1), repeat=d) if sum(g) == k]


def gamma_power(mats, gamma):
    out = np.eye(mats[0].shape[0], dtype=np.complex128)
    for mat, g in zip(mats, gamma):
        out = out @ np.linalg.matrix_power(mat, g)
    return out


def naive_s(mats, l):
    dim = mats[0].shape[0]
    fwd = sum(mats)
    bwd = sum(m.conj().T for m in mats)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(l + 1):
        coeff = (-1) ** (l - k) * math.comb(l, k)
        out += coeff * (np.linalg.matrix_power(bwd, k)
                        @ np.linalg.matrix_power(fwd, l - k))
    return out


def naive_m(mats, l):
    d = len(mats)
    dim = mats[0].shape[0]
    stars = [m.conj().T for m in mats]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(l + 1):
        coeff = (-1) ** (l - k) * math.comb(l, k)
        for gamma in degree_indices(d, k):
            weight = math.factorial(k)
            for g in gamma:
                weight //= math.factorial(g)
            out += coeff * weight * (gamma_power(stars, gamma)
                                     @ gamma_power(mats, gamma))
    return out


def naive_lambda(mats, m, n):
    """The weighted-sum form around the symmetry defect."""
    d = len(mats)
    dim = mats[0].shape[0]
    stars = [mat.conj().T for mat in mats]
    mid = naive_s(mats, n)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(m + 1):
        coeff = (-1) ** (m - k) * math.comb(m, k)
        for gamma in degree_indices(d, k):
            weight = math.factorial(k)
            for g in gamma:
                weight //= math.factorial(g)
            out += coeff * weight * (gamma_power(stars, gamma) @ mid
                                     @ gamma_power(mats, gamma))
    return out


def expansion_terms(d, m):
    """Every (alpha, gamma, k) with |alpha| + |gamma| + k = m and its
    weight m!/(alpha! gamma! k!), alpha and gamma over d components."""
    terms = []
    for k in range(m + 1):
        for a in range(m - k + 1):
            for alpha in degree_indices(d, a):
                for gamma in degree_indices(d, m - k - a):
                    weight = math.factorial(m) // math.factorial(k)
                    for g in alpha + gamma:
                        weight //= math.factorial(g)
                    terms.append((alpha, gamma, k, weight))
    return terms


def naive_expansion(r_mats, q_mats, m, n):
    """The perturbation expansion of L_{m,n}(R + Q), term by term:

        sum_{|a|+|g|+k=m} m!/(a! g! k!) (R+Q)*^a Q*^g X_k Q^a R^g,
        X_k = sum_{j=0..n} C(n,j) L_{k,n-j}(R) S_j(Q).
    """
    sum_stars = [(a + b).conj().T for a, b in zip(r_mats, q_mats)]
    q_stars = [b.conj().T for b in q_mats]
    mids = [sum(math.comb(n, j) * naive_lambda(r_mats, k, n - j)
                @ naive_s(q_mats, j) for j in range(n + 1))
            for k in range(m + 1)]
    out = np.zeros(r_mats[0].shape, dtype=np.complex128)
    for alpha, gamma, k, weight in expansion_terms(len(r_mats), m):
        out += weight * (gamma_power(sum_stars, alpha)
                         @ gamma_power(q_stars, gamma) @ mids[k]
                         @ gamma_power(q_mats, alpha)
                         @ gamma_power(r_mats, gamma))
    return out


def random_tuple_mats(d, dim, seed, degree=2):
    """Commuting matrices (polynomials in one matrix), oracle-side."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t /= np.linalg.norm(t)
    mats = []
    for _ in range(d):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        mats.append(sum(c * np.linalg.matrix_power(t, p)
                        for p, c in enumerate(coeffs)))
    return mats


# Constants of isosym.spectra and isosym.linalg, restated here so the
# spectrum oracle below shares no code with the package.
CLUSTER_TOL = 1e-7
TOL_RANK = 1e-9


def _svd_null_basis(shifted, radius, scale):
    _, s, vh = np.linalg.svd(shifted)
    thresh = max(TOL_RANK * s[0],
                 4.0 * radius + 64.0 * np.finfo(float).eps * scale)
    keep = min(int(np.sum(s > thresh)), shifted.shape[0] - 1)
    return np.ascontiguousarray(vh[keep:].conj().T)


def _svd_recurse(ops, carrier, prefix, out):
    if not ops:
        out.append((prefix, carrier))
        return
    a = ops[0]
    vals = np.linalg.eigvals(a)
    scale = 1.0 + np.linalg.norm(a)
    radius = CLUSTER_TOL * scale
    groups = []  # connected components of "within radius", by first index
    for i in range(len(vals)):
        linked = [g for g in groups
                  if any(abs(vals[i] - vals[j]) <= radius for j in g)]
        merged = sorted([i] + [j for g in linked for j in g])
        groups = [g for g in groups if g not in linked] + [merged]
    groups.sort(key=min)
    for group in groups:
        members = vals[group]
        lam = complex(np.mean(members))
        w = _svd_null_basis(a - lam * np.eye(a.shape[0]),
                            float(np.max(np.abs(members - lam))), scale)
        _svd_recurse([w.conj().T @ (op @ w) for op in ops[1:]], carrier @ w,
                     prefix + (lam,), out)


def svd_joint_spectrum(mats):
    """Joint eigenvalues with eigenspace bases, one SVD per cluster.

    The reference for ``joint_point_spectrum``: every eigenvalue cluster
    of the first component, simple eigenvalues included, gets a full SVD
    of its shifted matrix, and the other components are compressed onto
    the null space and recursed on.  Returns (mu, basis) pairs sorted by
    (re, im) per coordinate.
    """
    out = []
    _svd_recurse(list(mats), np.eye(mats[0].shape[0], dtype=np.complex128),
                 (), out)
    out.sort(key=lambda pair: tuple((z.real, z.imag) for z in pair[0]))
    return out


def pairwise_orthogonality(pairs, tol):
    """The orthogonality table, one pair of eigenpairs at a time.

    The reference for ``spectra._orthogonality``: for every two (mu,
    basis) of ``pairs``, in combinations order, the tuple (mu, mu',
    ||basis* basis'||_F, required, compliant, |sum mu_j conj(mu'_j) - 1|,
    |sum (mu_j - conj(mu'_j))|), with orthogonality required when both
    gates exceed tol and compliant when not required or the norm is <= tol.
    """
    out = []
    for (mu, basis), (mup, basisp) in combinations(pairs, 2):
        product_gate = abs(sum(a * b.conjugate() for a, b in zip(mu, mup))
                           - 1.0)
        sum_gate = abs(sum(a - b.conjugate() for a, b in zip(mu, mup)))
        required = product_gate > tol and sum_gate > tol
        gram = float(np.linalg.norm(basis.conj().T @ basisp))
        out.append((mu, mup, gram, required, not required or gram <= tol,
                    product_gate, sum_gate))
    return out


# ---------------------------------------------------------------------------
# gamma enumeration: every M-style sum as sum_gamma w_gamma R*^gamma X R^gamma
# over degree-ordered gamma-product stacks, reduced by _weighted_sandwiches


@lru_cache(maxsize=128)
def graded_weights(order, d):
    """Flattened (gamma, weight) terms of the M-style sum of one order.

    Yields every |gamma| <= order with weight
    (-1)^(order-|gamma|) C(order,|gamma|) |gamma|!/gamma!, ordered by
    degree, so the gammas of a lower order are a prefix.  Read-only.
    """
    gammas, weights = [], []
    for k in range(order + 1):
        sign = -1.0 if (order - k) % 2 else 1.0
        c = math.comb(order, k)
        for g in multi_indices(d, k):
            weights.append(sign * c * math.factorial(k)
                           / math.prod(math.factorial(x) for x in g))
            gammas.append(g)
    gammas = np.array(gammas, dtype=np.intp).reshape(len(gammas), d)
    weights = np.array(weights, dtype=np.float64)
    gammas.setflags(write=False)
    weights.setflags(write=False)
    return gammas, weights


def _chained_ladders(mats, kmax):
    """(d, kmax+1, n, n) stack of powers M^p = M^(p-1) @ M per component."""
    n = mats[0].shape[0]
    out = np.empty((len(mats), kmax + 1, n, n), dtype=np.complex128)
    for j, mat in enumerate(mats):
        out[j, 0] = np.eye(n)
        for p in range(1, kmax + 1):
            out[j, p] = out[j, p - 1] @ mat
    return out


def chained_products(ladders, gammas):
    """out[t] = prod_j ladders[j, gammas[t, j]], multiplied out left to
    right in component order, every row on its own."""
    out = ladders[0][gammas[:, 0]]
    for j in range(1, ladders.shape[0]):
        out = out @ ladders[j][gammas[:, j]]
    return out


def _weighted_sandwiches(lefts, mid, rights, weights):
    """sum_t weights[t] lefts[t] mid rights[t]; mid None means identity."""
    prods = lefts @ rights if mid is None else lefts @ mid @ rights
    return np.tensordot(weights, prods, axes=1)


def gamma_weighted_sum(mats, order, mid=None):
    """sum_{|gamma|<=order} w_gamma R*^gamma mid R^gamma (mid None: I)."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    gammas, weights = graded_weights(order, len(mats))
    stars = chained_products(
        _chained_ladders([m.conj().T for m in mats], order), gammas)
    plain = chained_products(_chained_ladders(mats, order), gammas)
    return _weighted_sandwiches(stars, mid, plain, weights)


def gamma_s(mats, l, mid=None):
    """sum_k (-1)^(l-k) C(l,k) T*^k mid T^(l-k); S_l when mid is None."""
    total = np.zeros(mats[0].shape, dtype=np.complex128)
    for m in mats:
        total = total + m
    ladders = _chained_ladders([total.conj().T, total], l)
    ks = np.arange(l + 1)
    alt = np.array([(-1.0) ** (l - k) * math.comb(l, k) for k in range(l + 1)])
    return _weighted_sandwiches(ladders[0][ks], mid, ladders[1][l - ks], alt)


def gamma_forms(mats, m, n):
    """(sym, iso) of L_{m,n}: S-style around M_m, M-style around S_n."""
    return (gamma_s(mats, n, gamma_weighted_sum(mats, m)),
            gamma_weighted_sum(mats, m, gamma_s(mats, n)))


def gamma_minimal_orders(mats, m_max, n_max, tolerance):
    """A diagonal minimal-order scan on gamma cells: a second algorithm,
    over a second cell evaluator, for ``classify.minimal_orders``' walk.

    ``tolerance(m, n)`` is the zero-test threshold of cell (m, n); a cell
    is zero when its sym form's Frobenius norm is at most that.
    """
    found = []
    for total in range(m_max + n_max + 1):
        for m in range(min(m_max, total), -1, -1):
            n = total - m
            if n < 0 or n > n_max:
                continue
            if any(m >= zm and n >= zn for zm, zn in found):
                continue
            sym, _ = gamma_forms(mats, m, n)
            if np.linalg.norm(sym) <= tolerance(m, n):
                found.append((m, n))
    return sorted(found)


def matrix_to_json_entrywise(mat):
    """The [re, im] nested-list encoding of one matrix, entry by entry:
    the reference for ``tupleio.matrix_to_json``."""
    mat = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]
