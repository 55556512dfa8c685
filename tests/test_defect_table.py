import dataclasses
import gc

import numpy as np
import pytest

from isosym import defect
from isosym.classify import (defect_family_rank, is_isosymmetric,
                             is_m_isometric, is_n_symmetric, minimal_orders)
from isosym.construct import random_commuting_tuple, reference_pair
from isosym.defect import (DefectTable, MultiOperator, isometry_defect,
                           isometry_defect_matrix, isosymmetry_defect,
                           isosymmetry_defect_matrix, raise_isometry_order,
                           raise_symmetry_order, symmetry_defect,
                           symmetry_defect_matrix, zero_tolerance)
from isosym.errors import FormsDisagree, InvalidParams, TooLarge
from isosym.linalg import fro_norm
from isosym.spectra import spectral_checks

from test_defect import _noncommuting_pair


def _cells(rng, max_order=4):
    """Every S_l, M_l and L_{m,n} up to order 4, in a scrambled order."""
    cells = [("S", l) for l in range(max_order + 1)]
    cells += [("M", l) for l in range(max_order + 1)]
    cells += [("L", m, n) for m in range(max_order + 1)
              for n in range(max_order + 1)]
    return [cells[i] for i in rng.permutation(len(cells))]


def _read(r, cell):
    """One cell of ``r``, a tuple or its DefectTable."""
    if cell[0] == "S":
        return symmetry_defect_matrix(r, cell[1])
    if cell[0] == "M":
        return isometry_defect_matrix(r, cell[1])
    return isosymmetry_defect_matrix(r, cell[1], cell[2])


@pytest.mark.parametrize("seed", range(8))
def test_shared_table_matches_one_shot_bit_for_bit(seed):
    rng = np.random.default_rng([2024, seed])
    d = int(rng.integers(1, 4))
    dim = int(rng.integers(2, 9))
    r = random_commuting_tuple(d, dim, int(rng.integers(0, 2 ** 31)))
    table = DefectTable(r)
    for cell in _cells(rng):
        got = _read(table, cell)
        assert got.tobytes() == _read(r, cell).tobytes(), cell
    # a second pass reads the stored cells, still unchanged
    for cell in _cells(rng):
        assert _read(table, cell).tobytes() == _read(r, cell).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_forms_first_form_is_the_checked_cell(seed):
    rng = np.random.default_rng([2025, seed])
    d = int(rng.integers(1, 4))
    dim = int(rng.integers(1, 9))
    r = random_commuting_tuple(d, dim, int(rng.integers(0, 2 ** 31)))
    table = DefectTable(r)
    for m in range(4):
        for n in range(4):
            sym, iso = table.forms(m, n)
            assert sym.tobytes() == isosymmetry_defect_matrix(r, m, n).tobytes()
            assert fro_norm(sym - iso) <= zero_tolerance(r, m, n)


def test_forms_disagree_from_a_table_cell_on_every_read():
    bad = MultiOperator(_noncommuting_pair(), tol_comm=1.0)
    table = DefectTable(bad)
    for _ in range(2):
        with pytest.raises(FormsDisagree):
            isosymmetry_defect_matrix(table, 2, 2)
        with pytest.raises(FormsDisagree):
            isosymmetry_defect(table, 2, 2)
        sym, iso = table.forms(2, 2)  # the raw forms are not checked
        assert fro_norm(sym - iso) > zero_tolerance(bad, 2, 2)


def test_forms_gap_is_checked_against_each_reads_tolerance():
    bad = MultiOperator(_noncommuting_pair(), tol_comm=1.0)
    table = DefectTable(bad)
    loose = isosymmetry_defect(table, 2, 2, tol=1e6)
    with pytest.raises(FormsDisagree):
        isosymmetry_defect(table, 2, 2)
    again = isosymmetry_defect(table, 2, 2, tol=1e6)
    assert again.matrix is loose.matrix and again.norm == loose.norm


def _reachable(root):
    """Objects reachable from ``root`` through instance data.

    Types, modules and functions are not followed, so the walk stays on
    what the object itself holds.
    """
    seen = {id(root)}
    stack = [root]
    out = []
    while stack:
        obj = stack.pop()
        out.append(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, type) or type(ref).__name__ in (
                    "module", "function", "builtin_function_or_method"):
                continue
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return out


def test_one_shot_leaves_no_table_on_the_tuple():
    r = random_commuting_tuple(2, 4, 5)
    isosymmetry_defect(r, 4, 4)
    minimal_orders(r, 4, 4)
    spectral_checks(r, 1, 1)
    reached = _reachable(r)
    assert any(m is r.matrices[0] for m in reached)  # the walk does descend
    assert not any(isinstance(o, DefectTable) for o in reached)


@pytest.mark.parametrize("read", [
    lambda t: symmetry_defect_matrix(t, 2),
    lambda t: isometry_defect_matrix(t, 2),
    lambda t: isosymmetry_defect_matrix(t, 2, 1),
    lambda t: isosymmetry_defect(t, 2, 1).matrix,
    lambda t: t.forms(2, 1)[0],
    lambda t: t.forms(2, 1)[1],
], ids=["S", "M", "L", "L-report", "forms-sym", "forms-iso"])
def test_returned_matrices_cannot_alias_the_table(read):
    table = DefectTable(random_commuting_tuple(2, 3, 9))
    first = read(table)
    before = first.tobytes()
    with pytest.raises(ValueError):
        first[0, 0] = 123.0
    with pytest.raises(ValueError):
        first += 1.0
    assert read(table).tobytes() == before


def test_negative_orders_rejected_by_the_table():
    table = DefectTable(reference_pair())
    with pytest.raises(InvalidParams):
        symmetry_defect_matrix(table, -1)
    with pytest.raises(InvalidParams):
        isometry_defect(table, -1)
    with pytest.raises(InvalidParams):
        isosymmetry_defect(table, 1, -1)
    with pytest.raises(InvalidParams):
        table.forms(-1, 0)


def test_scan_with_shared_table_matches_fresh_scan():
    r = random_commuting_tuple(2, 4, 1)
    table = DefectTable(r)
    isosymmetry_defect_matrix(table, 5, 5)  # grow the ingredients first
    assert minimal_orders(table, 6, 6) == minimal_orders(r, 6, 6)


def test_raw_axis_reads_keep_their_reach():
    # no norm is formed, so no overflow warning is raised: S_7 is
    # (-2e25 i)^7 and M_6 is (1e50 - 1)^6, both finite, whose squares are not
    r = MultiOperator([np.array([[1e25j]])])
    assert symmetry_defect_matrix(r, 7)[0, 0] == pytest.approx(1.28e177j)
    assert isometry_defect_matrix(r, 6)[0, 0] == pytest.approx(1e300)
    with pytest.raises(TooLarge):  # the judged read forms its scale first
        symmetry_defect(r, 7)


def test_a_judged_cell_is_built_once(monkeypatch):
    table = DefectTable(random_commuting_tuple(2, 4, 7))
    verdicts = [is_m_isometric(table, 2), is_n_symmetric(table, 3),
                is_isosymmetric(table, 2, 3)]  # the order ``cli check`` reads
    calls = []

    def spy(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    monkeypatch.setattr(defect, "fro_norm", spy("fro_norm", defect.fro_norm))
    for name in ("forms", "_forms"):
        monkeypatch.setattr(DefectTable, name,
                            spy(name, getattr(DefectTable, name)))
    again = [isometry_defect(table, 2), symmetry_defect(table, 3),
             isosymmetry_defect(table, 2, 3)]
    assert calls == []
    assert [v.defect_norm for v in verdicts] == [a.norm for a in again]


@pytest.mark.parametrize("raw, judged", [
    (isometry_defect_matrix, isometry_defect),
    (symmetry_defect_matrix, symmetry_defect),
], ids=["M", "S"])
def test_a_raw_axis_read_of_a_judged_cell_sums_nothing(monkeypatch, raw,
                                                       judged):
    table = DefectTable(random_commuting_tuple(2, 4, 7))
    report = judged(table, 3)
    sums = []
    combine = defect._combine

    def counted(weights, stack):
        sums.append(len(weights))
        return combine(weights, stack)

    monkeypatch.setattr(defect, "_combine", counted)
    reads = [raw(table, 3) for _ in range(3)]
    assert sums == []
    assert all(m.tobytes() == report.matrix.tobytes() for m in reads)


#: every reader of a defect, each called with its first argument left open
READERS = {
    "symmetry_defect_matrix": lambda r: symmetry_defect_matrix(r, 3),
    "isometry_defect_matrix": lambda r: isometry_defect_matrix(r, 3),
    "isosymmetry_defect_matrix": lambda r: isosymmetry_defect_matrix(r, 2, 3),
    "symmetry_defect": lambda r: symmetry_defect(r, 2),
    "isometry_defect": lambda r: isometry_defect(r, 4),
    "isosymmetry_defect": lambda r: isosymmetry_defect(r, 3, 1),
    "is_m_isometric": lambda r: is_m_isometric(r, 2),
    "is_n_symmetric": lambda r: is_n_symmetric(r, 1),
    "is_isosymmetric": lambda r: is_isosymmetric(r, 1, 2),
    "minimal_orders": lambda r: minimal_orders(r, 4, 4),
    "raise_isometry_order": lambda r: raise_isometry_order(r, 2, 2),
    "raise_symmetry_order": lambda r: raise_symmetry_order(r, 1, 3),
    "defect_family_rank": lambda r: defect_family_rank(r, 3, 2, "vary_m"),
}


def _bytes(value):
    """A result as bytes: arrays by their data, dataclasses field by field,
    everything else by its repr (exact for floats)."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if dataclasses.is_dataclass(value):
        return b"|".join(_bytes(getattr(value, f.name))
                         for f in dataclasses.fields(value))
    return repr(value).encode()


def test_table_is_read_wherever_the_tuple_is(monkeypatch):
    assert len(READERS) == 13
    r = random_commuting_tuple(3, 5, 31)
    table = DefectTable(r)
    # one table grown by every reader in turn answers as the tuple does
    for name, read in READERS.items():
        assert _bytes(read(table)) == _bytes(read(r)), name
    assert DefectTable.of(table) is table
    assert DefectTable.of(r) is not table

    calls = []
    steps = defect._multinomial_steps

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(defect, "_multinomial_steps", counted)
    for name, read in READERS.items():
        assert _bytes(read(table)) == _bytes(read(r)), name
        calls.clear()
        read(table)  # a second read finds every ingredient built
        assert calls == [], name


def test_symmetry_defect_is_made_once_for_the_cell_that_reads_it(monkeypatch):
    table = DefectTable(random_commuting_tuple(2, 4, 3))
    made = []
    sandwich = DefectTable._sandwich

    def counted(self, n, mid):
        if mid is None:
            made.append(n)
        return sandwich(self, n, mid)

    monkeypatch.setattr(DefectTable, "_sandwich", counted)
    s = symmetry_defect(table, 3)  # the order ``cli check`` reads them in
    isosymmetry_defect(table, 2, 3)
    isosymmetry_defect(table, 4, 3)  # longer sums, re-stepped from S_3
    assert symmetry_defect(table, 3).matrix.tobytes() == s.matrix.tobytes()
    assert made.count(3) == 1


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_order_0_defects_are_the_identity_with_no_sandwich(monkeypatch,
                                                            shared):
    r = random_commuting_tuple(2, 4, 9)
    made = []
    sandwich = DefectTable._sandwich

    def counted(self, n, mid):
        if mid is None:
            made.append(n)
        return sandwich(self, n, mid)

    monkeypatch.setattr(DefectTable, "_sandwich", counted)
    source = r
    if shared:
        source = DefectTable(r)
        isosymmetry_defect_matrix(source, 2, 2)  # ladder and sums grown first
    eye = np.eye(r.dim, dtype=np.complex128)
    for matrix in (symmetry_defect_matrix(source, 0),
                   isometry_defect_matrix(source, 0),
                   isosymmetry_defect_matrix(source, 0, 0)):
        assert matrix.shape == eye.shape
        assert matrix.tobytes() == eye.tobytes()
    assert 0 not in made
