"""Dense complex matrix primitives shared by every other module.

Matrices are plain numpy arrays of complex128.  LAPACK (through numpy)
supplies the eigen and singular value decompositions; everything here is a
thin contract layer: shape checks, finiteness checks, residual checks and
relative rank thresholds.
"""

from math import sqrt

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch

#: default relative threshold for rank / null-space decisions
TOL_RANK = 1e-9
#: default relative residual bound for returned eigenpairs
TOL_EIG = 1e-9
#: hard cap on dense eigenproblem size
MAX_EIG_DIM = 256


def as_matrix(entries):
    """Coerce to a finite 2-D complex128 array (copy, read-only)."""
    m = np.array(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def adjoint(m):
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def matmul(a, b):
    """Matrix product with an explicit shape check."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def kron(a, b):
    """Kronecker product; out[(i*p)+k, (j*p)+l] = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a), np.asarray(b))


def fro_norm(m):
    """Frobenius norm: sqrt of the sum of squared entry moduli.

    complex128 input takes the branch ``np.linalg.norm`` itself takes for
    it (two real dot products over the raveled entries) without its
    argument dispatch, so the value is bit for bit ``np.linalg.norm``'s.
    """
    m = np.asarray(m)
    if m.dtype != np.complex128:
        return float(np.linalg.norm(m))
    x = m.ravel(order="K")
    re, im = x.real, x.imag
    return sqrt(re.dot(re) + im.dot(im))


def eigenpairs(m, tol_eig=TOL_EIG):
    """Eigenvalues (with algebraic multiplicity) and unit eigenvectors.

    Every returned pair (lam, v) satisfies
    ||m v - lam v|| <= tol_eig * (1 + ||m||); otherwise ConvergenceFailure
    is raised, as it is when LAPACK itself gives up.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    if m.shape != (n, n):
        raise DimensionMismatch("eigenpairs needs a square matrix")
    if n > MAX_EIG_DIM:
        raise DimensionMismatch(f"dimension {n} exceeds the cap {MAX_EIG_DIM}")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = tol_eig * (1.0 + fro_norm(m))
    pairs = []
    for i in range(n):
        v = vecs[:, i]
        v = v / np.linalg.norm(v)
        res = float(np.linalg.norm(m @ v - vals[i] * v))
        if res > scale:
            raise ConvergenceFailure(
                f"eigenpair residual {res:.3e} exceeds {scale:.3e}")
        pairs.append((complex(vals[i]), v))
    return pairs


def null_space(m, tol_rank=TOL_RANK):
    """Orthonormal basis of the numerical null space.

    Singular values above tol_rank * sigma_max count toward the rank; the
    returned basis spans the rest.  May be empty.
    """
    m = np.asarray(m, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol_rank * s[0]))
    basis = vh[rank:].conj().T
    return [basis[:, i].copy() for i in range(basis.shape[1])]


def matrix_rank(mats, tol_rank=TOL_RANK):
    """Numerical rank of a family of equal-shape matrices.

    Each matrix is vectorized into a row; the rank of the stack is the
    number of singular values above tol_rank * sigma_max.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if not mats:
        return 0
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise DimensionMismatch("family members must share one shape")
    stack = np.array([m.ravel() for m in mats])
    s = np.linalg.svd(stack, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rank * s[0]))
