"""The zero verdict has one owner: ``defect._judged`` makes every report.

Every reader of "is this defect zero" follows that one function, and
every report carries its forms gap and its margin to the threshold as
their definitions say.
"""

import dataclasses

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from isosym import cli, defect
from isosym.classify import (defect_family_rank, is_isosymmetric,
                             is_m_isometric, is_n_symmetric, minimal_orders)
from isosym.construct import random_commuting_tuple, reference_pair
from isosym.defect import (DefectTable, MultiOperator, isometry_defect,
                           isosymmetry_defect, symmetry_defect)
from isosym.errors import FormsDisagree, HypothesisUnmet, TooLarge
from isosym.linalg import fro_norm
from isosym.tupleio import write_tuple


def _diagonal_plus_jordan(diagonal, q):
    """diag(diagonal) (x) I_q + I (x) J_q, the one component of a tuple."""
    k = len(diagonal)
    return MultiOperator([np.kron(np.diag(diagonal), np.eye(q))
                          + np.kron(np.eye(k), np.eye(q, k=1))])


def _conjugated_jordan():
    """U J_3(e^{0.7i}) U* for a seeded random unitary U."""
    g = np.random.default_rng(0).standard_normal((3, 6)).view(np.complex128)
    u = np.linalg.qr(g)[0]
    return MultiOperator([u @ (np.exp(0.7j) * np.eye(3) + np.eye(3, k=1))
                          @ u.conj().T])


#: the tuples of ROADMAP item 1, whose float zero verdicts are known wrong
NAMED = {
    "diag(1,i,2)+J_2": _diagonal_plus_jordan([1, 1j, 2], 2),
    "diag(1,i,2)+J_3": _diagonal_plus_jordan([1, 1j, 2], 3),
    "diag(1,2i)+J_2": _diagonal_plus_jordan([1, 2j], 2),
    "random(4,64,1)": random_commuting_tuple(4, 64, 1),
    "random(2,8,1)": random_commuting_tuple(2, 8, 1),
    "[[1000i]]": MultiOperator([np.array([[1000j]])]),
    "[[1e25i]]": MultiOperator([np.array([[1e25j]])]),
    "[[2i]]": MultiOperator([np.array([[2j]])]),
    "diag(2i,1000)": MultiOperator([np.diag([2j, 1000])]),
    "U J_3 U*": _conjugated_jordan(),
}

TUPLES = st.one_of(
    st.builds(random_commuting_tuple, st.integers(1, 3), st.integers(1, 6),
              st.integers(0, 10 ** 6)),
    st.sampled_from(sorted(NAMED)).map(NAMED.__getitem__))


@given(TUPLES, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_reports_carry_gap_and_margin_by_their_definitions(r, m, n):
    table = DefectTable(r)
    # [[1e25i]]'s high-order norms overflow to inf (a known fault, item 1)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            reports = [symmetry_defect(table, n), isometry_defect(table, m),
                       isosymmetry_defect(table, m, n)]
        except (FormsDisagree, TooLarge):
            reject()
        sym, iso = table.forms(m, n)
        gap = fro_norm(sym - iso)
    for report in reports:
        assert report.margin == report.norm / report.tolerance_used
        assert report.is_zero == (report.norm <= report.tolerance_used)
    s, mm, lam = reports
    assert s.gap is None and mm.gap is None
    assert lam.gap == gap
    reads = [(is_n_symmetric, (n,), s), (is_m_isometric, (m,), mm),
             (is_isosymmetric, (m, n), lam)]
    for read, orders, report in reads:
        if sum(orders):
            v = read(table, *orders)
            assert (v.holds, v.defect_norm, v.tolerance, v.gap, v.margin) \
                == (report.is_zero, report.norm, report.tolerance_used,
                    report.gap, report.margin)


@given(TUPLES, st.integers(0, 5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_s_and_m_are_the_axis_cells_of_l(r, l, warm):
    # S_l = L_{0,l} and M_l = L_{l,0}: on an axis the two forms are one
    # array, the raw S or M read, and the forms gap is no evidence
    table = DefectTable(r)
    with np.errstate(over="ignore", invalid="ignore"):
        if warm:  # cells on and off the axes, sums and ladder grown first
            for m, n in ((0, l), (l, 0), (l, l), (3, 3)):
                try:
                    isosymmetry_defect(table, m, n)
                except (FormsDisagree, TooLarge):
                    pass
        axes = [(defect.symmetry_defect_matrix(table, l), table.forms(0, l)),
                (defect.isometry_defect_matrix(table, l), table.forms(l, 0))]
        for raw, forms in axes:
            for form in forms:
                assert form.shape == raw.shape
                assert form.tobytes() == raw.tobytes()
        try:
            gaps = [isosymmetry_defect(table, 0, l).gap,
                    isosymmetry_defect(table, l, 0).gap]
        except TooLarge:  # the zero-test scale of [[1e25i]] overflows
            reject()
    assert gaps == [0.0, 0.0]


def _jordan(lam):
    return MultiOperator([np.array([[lam, 1.0], [0.0, lam]], dtype=complex)])


def _raises_unmet(r):
    try:
        defect_family_rank(r, 3, 2, "vary_m")
    except HypothesisUnmet:
        return True
    return False


def _readings(path, capsys):
    """What every reader of the zero verdict says about a few tuples."""
    r = reference_pair()
    out = {"isosymmetry_defect": isosymmetry_defect(r, 1, 1).is_zero,
           "is_isosymmetric": is_isosymmetric(r, 1, 1).holds,
           "minimal_orders": minimal_orders(r, 3, 3).staircase,
           # the corner L_{2,1} of J_2(1) vanishes, that of J_2(i) does not
           "family_rank_unmet": (_raises_unmet(_jordan(1.0)),
                                 _raises_unmet(_jordan(1j))),
           "check": cli.main(["check", str(path), "--m", "1", "--n", "1"])}
    capsys.readouterr()
    return out


def test_every_reader_follows_the_one_zero_test(monkeypatch, tmp_path,
                                                capsys):
    path = tmp_path / "reference.json"
    write_tuple(path, reference_pair())
    truth = _readings(path, capsys)
    assert truth == {"isosymmetry_defect": True, "is_isosymmetric": True,
                     "minimal_orders": [(0, 3), (1, 1), (2, 0)],
                     "family_rank_unmet": (True, False), "check": 0}
    judged = defect._judged

    def inverted(*args):
        report = judged(*args)
        return dataclasses.replace(report, is_zero=not report.is_zero)

    monkeypatch.setattr(defect, "_judged", inverted)
    planted = _readings(path, capsys)
    assert planted["isosymmetry_defect"] is False
    assert planted["is_isosymmetric"] is False
    assert planted["minimal_orders"] != truth["minimal_orders"]
    assert planted["family_rank_unmet"] == (False, True)
    assert planted["check"] == 1
