"""The multinomial steps of the M-style sums against the gamma enumeration.

``oracles.gamma_*`` evaluate every M-style sum the way the package did
before it took powers of Phi_0(X) = sum_j R_j* X R_j: degree-ordered
R*^gamma / R^gamma stacks weighted by (-1)^(m-|gamma|) C(m,|gamma|)
|gamma|!/gamma!, sandwiched and reduced by the oracle's own
``np.tensordot``.  The steps must agree with it within the rounding of
the terms summed, give the same exact zeros and exact integer values, and
find the same staircases.
"""

import math

import numpy as np
import pytest

from isosym import defect
from isosym.classify import minimal_orders
from isosym.construct import (JordanAugmentSpec, ScaledTupleSpec,
                              jordan_augment, nilpotent_tuple,
                              random_commuting_tuple, reference_pair,
                              scaled_tuple, tensor_sum, tensor_sum_parts)
from isosym.defect import DefectTable, MultiOperator, perturbation_expansion, \
    zero_tolerance
from isosym.linalg import fro_norm

from oracles import gamma_forms, gamma_minimal_orders, gamma_s, \
    gamma_weighted_sum, naive_expansion

EPS = np.finfo(float).eps
MAX_ORDER = 6


def _corpus(seed, count):
    """Seeded tuples: random (d 1-4, dim 1-16, a quarter scaled by 3),
    Jordan augmentations and tensor sums with a nilpotent right factor."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        d = int(rng.integers(1, 5))
        child = int(rng.integers(2 ** 31))
        if i % 6 == 4:
            base = random_commuting_tuple(d, int(rng.integers(1, 6)), child)
            q = int(rng.integers(1, 4))
            mu = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            out.append(jordan_augment(JordanAugmentSpec(base_tuple=base,
                                                        mu=mu, q=q)))
        elif i % 6 == 5:
            base = random_commuting_tuple(d, int(rng.integers(1, 5)), child)
            q = int(rng.integers(1, 4))
            nil = nilpotent_tuple(d, q, q, child + 1)
            out.append(tensor_sum(base, nil))
        else:
            r = random_commuting_tuple(d, int(rng.integers(1, 17)), child)
            if i % 4 == 3:
                r = MultiOperator([3.0 * m for m in r.matrices])
            out.append(r)
    return out


def _bound(r, m, n):
    """64 eps dim B, B the size of the terms the (m, n) sums add up."""
    spread = sum(fro_norm(a) ** 2 for a in r.matrices)
    total = fro_norm(sum(r.matrices))
    b = sum(math.comb(m, k) * spread ** k for k in range(m + 1)) \
        * (2.0 * total) ** n
    return 64.0 * EPS * r.dim * b


@pytest.mark.parametrize("seed", range(4))
def test_every_sum_agrees_with_the_gamma_enumeration(seed):
    rng = np.random.default_rng([9, seed])
    for r in _corpus([7, seed], 12):
        table = DefectTable(r)
        for m in range(MAX_ORDER + 1):
            got = defect.isometry_defect_matrix(table, m)
            expect = gamma_weighted_sum(r.matrices, m)
            assert fro_norm(got - expect) <= _bound(r, m, 0), (r, m)
        for _ in range(4):
            m, n = (int(x) for x in rng.integers(0, MAX_ORDER + 1, size=2))
            sym, iso = table.forms(m, n)
            want_sym, want_iso = gamma_forms(r.matrices, m, n)
            assert fro_norm(sym - want_sym) <= _bound(r, m, n), (r, m, n)
            assert fro_norm(iso - want_iso) <= _bound(r, m, n), (r, m, n)


def test_reference_pair_keeps_its_exact_values():
    r = reference_pair()
    table = DefectTable(r)
    for m in range(5):
        assert np.array_equal(defect.isometry_defect_matrix(table, m),
                              gamma_weighted_sum(r.matrices, m))
        for n in range(5):
            sym, iso = table.forms(m, n)
            want_sym, want_iso = gamma_forms(r.matrices, m, n)
            assert np.array_equal(sym, want_sym), (m, n)
            assert np.array_equal(iso, want_iso), (m, n)
    assert defect.isosymmetry_defect(r, 1, 1).norm == 0.0
    assert defect.isometry_defect(r, 1).norm == fro_norm(
        gamma_weighted_sum(r.matrices, 1)) > 0.0


def _shift(q):
    """J_q: ones on the superdiagonal, q-nilpotent."""
    return np.eye(q, k=1, dtype=np.complex128)


def _gaussian(diagonal, q):
    """diag(diagonal) (x) I_q + I (x) J_q, a Gaussian-integer matrix."""
    return np.kron(np.diag(diagonal), np.eye(q)) \
        + np.kron(np.eye(len(diagonal)), _shift(q))


@pytest.mark.parametrize("entries", [
    ((1, 1j, 2), 2), ((1, 1j, 2), 3), ((1, 2j), 2)])
def test_gaussian_integer_sums_are_exact(entries):
    # every entry, weight and partial sum is an integer far below 2^53, so
    # the steps and the gamma enumeration both give the exact values
    r = MultiOperator([_gaussian(*entries)])
    table = DefectTable(r)
    for m in range(MAX_ORDER + 1):
        assert np.array_equal(defect.isometry_defect_matrix(table, m),
                              gamma_weighted_sum(r.matrices, m)), m
        for n in range(MAX_ORDER + 1):
            sym, iso = table.forms(m, n)
            want_sym, want_iso = gamma_forms(r.matrices, m, n)
            assert np.array_equal(sym, want_sym), (m, n)
            assert np.array_equal(iso, want_iso), (m, n)


def test_gaussian_integer_expansion_is_exact():
    left = MultiOperator([np.diag([1, 1j, 2]), np.diag([2j, 1, 1 + 1j])])
    right = MultiOperator([_shift(2), 1j * _shift(2)])
    r, q = tensor_sum_parts(left, right)
    for m in range(5):
        for n in range(5):
            assert np.array_equal(
                perturbation_expansion(r, q, m, n),
                naive_expansion(r.matrices, q.matrices, m, n)), (m, n)


def test_split_runs_give_the_unsplit_cells(monkeypatch):
    r = random_commuting_tuple(3, 8, 19)
    whole = DefectTable(r)
    whole.prepare(MAX_ORDER, MAX_ORDER)
    calls = []
    steps = defect._multinomial_steps

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(defect, "_multinomial_steps", counted)
    # two middle operators S_l per run: seven middles take four runs
    monkeypatch.setattr(defect, "_NESTING_ENTRIES", 2 * r.d * r.dim ** 2)
    split = DefectTable(r)
    split.prepare(MAX_ORDER, MAX_ORDER)
    assert [len(args[2]) for args in calls] == [2, 2, 2, 1]
    for m in range(MAX_ORDER + 1):
        for n in range(MAX_ORDER + 1):
            assert defect.isosymmetry_defect_matrix(split, m, n).tobytes() \
                == defect.isosymmetry_defect_matrix(whole, m, n).tobytes()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_nilpotent_symmetry_defect_stays_exactly_zero(q):
    nil = nilpotent_tuple(2, 6, q, 40 + q)
    got = defect.symmetry_defect_matrix(nil, 2 * q)
    assert np.array_equal(got, gamma_s(nil.matrices, 2 * q))
    assert fro_norm(got) == 0.0


def _structured(rng):
    yield reference_pair()
    for d in (1, 2, 3):
        z = np.exp(2j * np.pi * rng.uniform(size=(d, 4)))
        z = z / np.linalg.norm(z, axis=0, keepdims=True)
        yield MultiOperator([np.diag(z[j]) for j in range(d)])
        v = rng.uniform(-2.0, 2.0, size=(d, 4)).astype(np.complex128)
        yield MultiOperator([np.diag(v[j]) for j in range(d)])
    lam = np.exp(0.9j)
    base = np.array([[lam, 1.0], [0.0, lam]])
    yield scaled_tuple(ScaledTupleSpec(base=base, beta=(0.6, 0.8)))
    yield jordan_augment(JordanAugmentSpec(base_tuple=reference_pair(),
                                           mu=(1.0, 0.5), q=2))


@pytest.mark.parametrize("seed", range(3))
def test_staircases_equal_the_gamma_enumerations(seed):
    rng = np.random.default_rng([11, seed])
    tuples = list(_structured(rng))
    for _ in range(8):
        d = int(rng.integers(1, 4))
        r = random_commuting_tuple(d, int(rng.integers(2, 9)),
                                   int(rng.integers(2 ** 31)))
        if rng.integers(4) == 0:
            r = MultiOperator([3.0 * m for m in r.matrices])
        tuples.append(r)
    for r in tuples:
        table = DefectTable(r)
        got = minimal_orders(table, MAX_ORDER, MAX_ORDER).staircase
        expect = gamma_minimal_orders(
            r.matrices, MAX_ORDER, MAX_ORDER,
            lambda m, n, r=r: zero_tolerance(r, m, n))
        assert got == expect == _minimal_zeros(table, MAX_ORDER, MAX_ORDER), r


def _minimal_zeros(table, m_max, n_max):
    """The minimal zero cells of the box, every cell read, in increasing m.
    Asserts the premise of the staircase walk: the zeros form an up-set."""
    zero = {(m, n) for m in range(m_max + 1) for n in range(n_max + 1)
            if defect.isosymmetry_defect(table, m, n).is_zero}
    assert all((m + 1, n) in zero for m, n in zero if m < m_max)
    assert all((m, n + 1) in zero for m, n in zero if n < n_max)
    return sorted((m, n) for m, n in zero
                  if (m - 1, n) not in zero and (m, n - 1) not in zero)


@pytest.mark.parametrize("seed", range(3))
def test_staircase_is_the_brute_force_minimal_zeros(seed):
    for r in _corpus([5, seed], 12):
        table = DefectTable(r)
        for box in [(0, 0), (3, 3), (2, 5), (5, 2), (0, 4), (4, 0),
                    (MAX_ORDER, MAX_ORDER)]:
            assert minimal_orders(table, *box).staircase \
                == _minimal_zeros(table, *box), (r, box)


def test_table_reads_never_take_the_recurrence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table read took the recurrence")

    monkeypatch.setattr(defect, "raise_isometry_order", refuse)
    monkeypatch.setattr(defect, "raise_symmetry_order", refuse)
    r = random_commuting_tuple(3, 5, 17)
    table = DefectTable(r)
    minimal_orders(table, 4, 4)
    for m in range(5):
        defect.isometry_defect(table, m)
        for n in range(5):
            defect.isosymmetry_defect(table, m, n)
            table.forms(m, n)


@pytest.mark.parametrize("order", [2, 3])
def test_perturbation_expansion_makes_one_nesting_pass(monkeypatch, order):
    # r's (order+1)^2 cells L_{k,l} share one step run; read one by one,
    # each with k >= 1 runs its own, and a cell L_{0,l} steps nothing.
    # The expansion itself is one more run.
    calls = []
    steps = defect._multinomial_steps

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(defect, "_multinomial_steps", counted)
    r, q = tensor_sum_parts(random_commuting_tuple(2, 3, 5),
                            nilpotent_tuple(2, 2, 2, seed=1))
    prepared = perturbation_expansion(r, q, order, order)
    assert len(calls) == 1 + 1
    calls.clear()
    monkeypatch.setattr(DefectTable, "prepare", lambda self, m, n: None)
    cell_by_cell = perturbation_expansion(r, q, order, order)
    assert len(calls) == order * (order + 1) + 1
    assert prepared.tobytes() == cell_by_cell.tobytes()


def test_growing_a_sum_keeps_its_lower_orders_bit_for_bit():
    r = random_commuting_tuple(3, 6, 23)
    low, grown = DefectTable(r), DefectTable(r)
    grown.prepare(MAX_ORDER, 3)
    for m in range(MAX_ORDER + 1):
        for n in range(4):
            assert defect.isosymmetry_defect_matrix(grown, m, n).tobytes() \
                == defect.isosymmetry_defect_matrix(low, m, n).tobytes()
