"""Naive reference implementations used as independent test oracles.

Everything here is written with plain numpy loops and matrix_power, with
multi-index enumeration via itertools -- deliberately sharing no code with
the package's kernel-backed evaluation paths.
"""

import math
from itertools import product

import numpy as np


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
