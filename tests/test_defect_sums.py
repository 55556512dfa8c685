"""The two sums every defect is made of, against sums built here.

``defect._multinomial_steps`` takes each step as two products per middle
operator, [L_1; ...; L_c] @ y and then [L_1 y | ... | L_c y] @ [R_1; ...;
R_c]; ``DefectTable._sandwich`` forms the terms k <= n/2 of the S-style
sum and adds the (-1)^n-adjoint of their sum.  A middle's sums must not
depend on the middles stepped beside it, the sandwich must be the
unpaired sum within rounding and exactly (-1)^n-Hermitian, and integer
tuples must keep their exact integer values.
"""

import math

import numpy as np
import pytest

from isosym import defect
from isosym.construct import random_commuting_tuple, reference_pair
from isosym.defect import DefectTable, MultiOperator
from isosym.linalg import fro_norm

EPS = np.finfo(float).eps
MAX_ORDER = 6


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _noncommuting(seed, d=3, dim=8):
    """Components of Frobenius norm 1 that do not commute: their relative
    commutator residual stays below 1, so ``tol_comm=1.0`` admits them."""
    mats = _complex(np.random.default_rng(seed), d, dim, dim)
    return MultiOperator([m / fro_norm(m) for m in mats], tol_comm=1.0)


def _tuples():
    yield random_commuting_tuple(3, 8, 41)
    yield MultiOperator([3.0 * m for m in
                         random_commuting_tuple(2, 6, 43).matrices])
    yield _noncommuting(45)


@pytest.mark.parametrize("s", [1, 3])
def test_a_middles_steps_do_not_depend_on_the_stack(s):
    rng = np.random.default_rng([3, s])
    c, n, b = 4, 8, 3
    lefts, rights = _complex(rng, c, n, n), _complex(rng, c, n, n)
    stack = _complex(rng, b, s, n, n)
    together = defect._multinomial_steps(lefts, rights, stack, MAX_ORDER)
    for i in range(b):
        alone = defect._multinomial_steps(lefts, rights, stack[i:i + 1],
                                          MAX_ORDER)
        assert alone.tobytes() == together[i:i + 1].tobytes(), i
    if s == 1:
        # steps continued from a kept Y_t repeat the later Y's
        for t in range(1, MAX_ORDER):
            kept = together[:, t:t + 1].copy()
            later = defect._multinomial_steps(lefts, rights, kept,
                                              MAX_ORDER - t)
            assert later.tobytes() == together[:, t:].tobytes(), t


def test_a_middles_sums_are_the_same_alone_stacked_and_split(monkeypatch):
    r = random_commuting_tuple(3, 8, 47)
    stacked = DefectTable(r)
    stacked.prepare(MAX_ORDER, MAX_ORDER)  # every middle in one run
    alone = DefectTable(r)
    for l in range(MAX_ORDER + 1):  # S_l stepped after S_0, on its own
        alone.forms(MAX_ORDER, l)
    monkeypatch.setattr(defect, "_NESTING_ENTRIES", 2 * r.d * r.dim ** 2)
    split = DefectTable(r)
    split.prepare(MAX_ORDER, MAX_ORDER)  # two middles a run
    for l in range(MAX_ORDER + 1):
        want = stacked._sums[l].tobytes()
        assert alone._sums[l].tobytes() == want, l
        assert split._sums[l].tobytes() == want, l


def _same_bytes(a, b):
    """a and b bit for bit, with -0.0 read as 0.0."""
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


@pytest.mark.parametrize("r", list(_tuples()),
                         ids=["commuting", "scaled", "noncommuting"])
def test_sandwiches_are_exactly_signed_hermitian(r):
    table = DefectTable(r)
    for n in range(1, MAX_ORDER + 1):
        s = defect.symmetry_defect_matrix(table, n)
        adj = s.conj().T if n % 2 == 0 else -s.conj().T
        assert _same_bytes(s, adj), n
        for m in range(MAX_ORDER + 1):
            sym, _ = table.forms(m, n)
            adj = sym.conj().T if n % 2 == 0 else -sym.conj().T
            assert _same_bytes(sym, adj), (m, n)


def _unpaired(mats, n, mid):
    """sum_k (-1)^(n-k) C(n,k) T*^k X T^(n-k), every term formed."""
    total = sum(mats)
    powers = [np.eye(len(total), dtype=np.complex128)]
    for _ in range(n):
        powers.append(powers[-1] @ total)
    out = np.zeros_like(total)
    for k in range(n + 1):
        out += (-1) ** (n - k) * math.comb(n, k) \
            * (powers[k].conj().T @ mid @ powers[n - k])
    return out


@pytest.mark.parametrize("r", list(_tuples()),
                         ids=["commuting", "scaled", "noncommuting"])
def test_sandwich_is_the_unpaired_sum(r):
    rng = np.random.default_rng(r.dim)
    h = _complex(rng, r.dim, r.dim)
    table = DefectTable(r)
    eye = np.eye(r.dim, dtype=np.complex128)
    mids = [None, defect.isometry_defect_matrix(table, 2), h + h.conj().T]
    size = 2.0 * fro_norm(sum(r.matrices))
    for n in range(MAX_ORDER + 1):
        for mid in mids:
            x = eye if mid is None else mid
            got = table._sandwich(n, mid)
            bound = 64.0 * EPS * r.dim * size ** n * fro_norm(x)
            assert fro_norm(got - _unpaired(r.matrices, n, x)) <= bound, n


def _exact_forms(mats, m, n):
    """(S_n, M_m, sym, iso) of a real integer tuple in Python integers."""
    mats = [np.array(a.real.astype(int), dtype=object) for a in mats]
    eye = np.array(np.eye(len(mats[0]), dtype=int), dtype=object)
    total = sum(mats)

    def power(a, k):
        out = eye
        for _ in range(k):
            out = out @ a
        return out

    def s_style(x, l):
        out = 0 * eye
        for k in range(l + 1):
            out = out + (-1) ** (l - k) * math.comb(l, k) \
                * (power(total.T, k) @ x @ power(total, l - k))
        return out

    def m_style(x, l):
        out, b = 0 * eye, x
        for k in range(l + 1):
            out = out + (-1) ** (l - k) * math.comb(l, k) * b
            b = sum(a.T @ b @ a for a in mats)
        return out

    s_n, m_m = s_style(eye, n), m_style(eye, m)
    return s_n, m_m, s_style(m_m, n), m_style(s_n, m)


@pytest.mark.parametrize("r", [
    MultiOperator([np.array([[1.0, 1.0], [0.0, 1.0]])]),
    reference_pair(),
], ids=["jordan-2", "reference-pair"])
def test_integer_tuples_keep_exact_integer_values(r):
    table = DefectTable(r)
    for m in range(MAX_ORDER + 1):
        for n in range(MAX_ORDER + 1):
            exact = _exact_forms(r.matrices, m, n)
            assert max(abs(int(v)) for e in exact for v in e.flat) < 2 ** 53
            got = (defect.symmetry_defect_matrix(table, n),
                   defect.isometry_defect_matrix(table, m)) + table.forms(m, n)
            for g, e in zip(got, exact):
                assert np.array_equal(g, e.astype(np.complex128)), (m, n)
