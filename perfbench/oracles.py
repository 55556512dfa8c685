"""Ground truths the benchmark checks the program's answers against.

Nothing here calls isosym: expected answers come from how an input was
built (a diagonal tuple's joint spectrum is its diagonal, a q-nilpotent
part shifts vanishing orders by (2q-2, 2q-1)), from exact constructions
redone with numpy, or, for generic inputs whose answer is not known, from
checks that the output is well formed.  Each check returns ``None`` when
the answer is right and a one-line reason otherwise.
"""

import json
import math

import numpy as np

#: relative distance under which a computed joint eigenvalue matches
SPECTRUM_TOL = 1e-6
#: tolerance of the direct-vs-expansion identity, the paper's zero-test
#: scale tol * (1 + max_j ||R_j||)^(2(m+n)) * dim with tol = 1e-8
IDENTITY_TOL = 1e-8


def shifted_orders(known, q):
    """Vanishing orders after adding a cross-commuting q-nilpotent part.

    Vanishing is upward closed, so each known order is first raised to
    (>= 1, >= 1), then shifted by (2q - 2, 2q - 1).
    """
    return sorted({(max(m, 1) + 2 * q - 2, max(n, 1) + 2 * q - 1)
                   for m, n in known})


def dominated(order, known):
    """Is ``order`` at or above some known vanishing order?"""
    return any(order[0] >= m and order[1] >= n for m, n in known)


def check_staircase(staircase, box, known=(), exact=None):
    """A minimal-orders answer: an antichain inside the box that reaches
    every known vanishing order; equal to ``exact`` when that is given."""
    try:
        pairs = [(int(p[0]), int(p[1])) for p in staircase]
    except (TypeError, ValueError, IndexError):
        return f"staircase is not a list of pairs: {staircase!r}"
    if exact is not None and pairs != [tuple(p) for p in exact]:
        return f"staircase {pairs} != expected {list(map(tuple, exact))}"
    for m, n in pairs:
        if not (0 <= m <= box[0] and 0 <= n <= box[1]):
            return f"staircase point {(m, n)} outside box {box}"
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            if a == b or (a[0] <= b[0] and a[1] <= b[1]) \
                    or (b[0] <= a[0] and b[1] <= a[1]):
                return f"staircase {pairs} is not an antichain"
    for order in known:
        if order[0] <= box[0] and order[1] <= box[1] \
                and not dominated(order, pairs):
            return f"known vanishing order {order} missing from {pairs}"
    return None


def check_spectrum(eigenpairs, d, dim, expected=None, multiplicity=False):
    """Joint eigenpairs as emitted by the CLI (``mu`` as [re, im] pairs).

    Always: each mu has d coordinates and multiplicities sum to 1..dim.
    With ``expected`` (a list of complex d-vectors): the computed points
    match it within SPECTRUM_TOL, as a multiset when ``multiplicity``,
    else as a set.
    """
    points, total = [], 0
    for pair in eigenpairs:
        mu = [complex(re, im) for re, im in pair["mu"]]
        mult = int(pair["multiplicity"])
        if len(mu) != d or mult < 1 or not math.isfinite(pair["residual"]):
            return f"malformed eigenpair {pair!r}"
        points.extend([mu] * (mult if multiplicity else 1))
        total += mult
    if not 1 <= total <= dim:
        return f"multiplicities sum to {total}, dim is {dim}"
    if expected is None:
        return None
    want = [list(map(complex, mu)) for mu in expected]
    if not multiplicity:
        want = _distinct(want)
    scale = 1.0 + max((abs(z) for mu in want for z in mu), default=0.0)
    if len(points) != len(want):
        return f"{len(points)} joint eigenvalues, expected {len(want)}"
    left = list(want)
    for mu in points:
        gaps = [max(abs(a - b) for a, b in zip(mu, w)) for w in left]
        best = int(np.argmin(gaps))
        if gaps[best] > SPECTRUM_TOL * scale:
            return f"joint eigenvalue {mu} not in the expected spectrum"
        left.pop(best)
    return None


def _distinct(points):
    out = []
    for mu in points:
        if not any(max(abs(a - b) for a, b in zip(mu, w)) <= SPECTRUM_TOL
                   for w in out):
            out.append(mu)
    return out


def read_matrices(path):
    """The matrices of a tuple file, parsed without the program."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    mats = [np.array([[complex(re, im) for re, im in row] for row in mat],
                     dtype=np.complex128) for mat in data["matrices"]]
    if len(mats) != data["d"] or any(m.shape != (data["dim"],) * 2
                                     for m in mats):
        raise ValueError("d or dim disagrees with the matrices")
    return mats


def kron_sum(left, right):
    """Component k = L_k (x) I + I (x) R_k, as the tensor construction."""
    eye_l = np.eye(left[0].shape[0], dtype=np.complex128)
    eye_r = np.eye(right[0].shape[0], dtype=np.complex128)
    return [np.kron(a, eye_r) + np.kron(eye_l, b)
            for a, b in zip(left, right)]


def jordan_blocks(base, mu, q):
    """Component k = I_q (x) A_k + mu_k S (x) I, S the q x q shift."""
    eye_q = np.eye(q, dtype=np.complex128)
    shift = np.eye(q, k=1, dtype=np.complex128)
    eye_n = np.eye(base[0].shape[0], dtype=np.complex128)
    return [np.kron(eye_q, a) + m * np.kron(shift, eye_n)
            for a, m in zip(base, mu)]


def nilpotency_error(mats, order):
    """None when every product of ``order`` components is exactly zero and
    every component is strictly upper triangular."""
    for m in mats:
        if np.any(np.tril(m) != 0):
            return "component is not strictly upper triangular"
    prods = [np.eye(mats[0].shape[0], dtype=np.complex128)]
    for _ in range(order):
        prods = [p @ m for p in prods for m in mats]
    if any(np.any(p != 0) for p in prods):
        return f"a product of {order} components is nonzero"
    return None


def commutation_error(mats, rel=1e-10):
    """None when the components commute to relative precision ``rel``."""
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            resid = np.linalg.norm(a @ b - b @ a)
            if resid > rel * (1 + np.linalg.norm(a)) * (1 + np.linalg.norm(b)):
                return f"components do not commute (residual {resid:.2e})"
    return None


def identity_error(lhs, rhs, mats, m, n):
    """Direct L_{m,n}(R + Q) against its expansion, at the paper's scale."""
    scale = (1.0 + max(np.linalg.norm(a) for a in mats)) ** (2 * (m + n)) \
        * mats[0].shape[0]
    gap = float(np.linalg.norm(lhs - rhs))
    if not gap <= IDENTITY_TOL * scale:
        return f"direct and expanded L_({m},{n}) differ by {gap:.3e}"
    return None


def report_error(report, dim, zero=None):
    """A defect report: a finite dim x dim matrix whose Frobenius norm is
    the reported norm, and a zero verdict where the truth is known."""
    if report.matrix.shape != (dim, dim):
        return f"defect matrix shape {report.matrix.shape}"
    norm = float(np.linalg.norm(report.matrix))
    if not math.isfinite(norm) or abs(norm - report.norm) > 1e-12 * (1 + norm):
        return f"reported norm {report.norm!r} is not the matrix norm {norm!r}"
    if zero is not None and bool(report.is_zero) != zero:
        return f"is_zero={report.is_zero}, the defect is {'' if zero else 'non'}zero"
    return None
