"""Dense complex matrix primitives shared by every other module.

Matrices are plain numpy arrays of complex128.  Everything here is a thin
contract layer over numpy: shape and finiteness checks, the Frobenius norm,
a relative rank threshold and the one test of whether a tolerance is usable.
"""

from math import sqrt

import numpy as np

from .errors import DimensionMismatch, InvalidParams

#: default relative threshold for rank / null-space decisions
TOL_RANK = 1e-9


def checked_tolerance(tol):
    """``tol`` if it is a finite non-boolean number > 0, else InvalidParams: a
    tolerance <= 0 fails every test, and NaN or infinity decides nothing."""
    if isinstance(tol, (bool, np.bool_)) or not 0.0 < tol < np.inf:
        raise InvalidParams(f"tol must be a finite number > 0, got {tol!r}")
    return tol


def as_stack(components):
    """A list of square matrices of one size, or a (d, n, n) array, as one
    finite complex128 stack (copy, C-contiguous, read-only), converted once.
    No component raises InvalidParams, a 0 x 0 or non-square one or one of
    another size DimensionMismatch, a non-finite entry ValueError."""
    if not isinstance(components, np.ndarray):
        components = list(components)  # an iterator is read once
    try:
        stack = np.array(components, dtype=np.complex128, order="C")
    except (TypeError, ValueError):  # ragged, or entries that are no numbers
        stack = np.empty(0)
    if stack.ndim != 3 or not stack.size or stack.shape[1] != stack.shape[2]:
        # each component on its own: entries that are no numbers raise here
        shapes = [np.array(m, dtype=np.complex128).shape for m in components]
        if not shapes:
            raise InvalidParams("a tuple needs at least one component")
        raise DimensionMismatch(
            f"components must be square, of one size >= 1, got {shapes}")
    if not np.isfinite(stack.view(np.float64)).all():
        raise ValueError("matrix entries must be finite")
    stack.setflags(write=False)
    return stack


def as_matrix(entries):
    """One finite square complex128 matrix (copy, read-only), as_stack's."""
    return as_stack([entries])[0]


def adjoint(m):
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def kron(a, b):
    """Kronecker product of two matrices; out[i*p + k, j*q + l] = a[i,j] *
    b[k,l] for a p x q ``b``.

    One broadcast product forms the same products ``np.kron`` forms, bit
    for bit, without its dispatch and shape equalisation.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch(
            f"kron takes two 2-D arrays, got ndim {a.ndim} and {b.ndim}")
    (n, m), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * p, m * q)


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


def matrix_rank(mats):
    """Numerical rank of a family of equal-shape matrices.

    Each matrix is vectorized into a row; the rank of the stack is the
    number of singular values above TOL_RANK * sigma_max.
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
    return int(np.sum(s > TOL_RANK * s[0]))
