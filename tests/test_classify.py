import numpy as np
import pytest

from isosym import classify
from isosym.classify import (defect_family_rank, is_isosymmetric,
                             is_m_isometric, is_n_symmetric, minimal_orders,
                             minimal_pairs, perturbed_orders)
from isosym.construct import (identity_tuple, nilpotent_tuple, reference_pair,
                              random_commuting_tuple)
from isosym.defect import MultiOperator
from isosym.errors import HypothesisUnmet, InvalidParams, TooLarge


def _jordan(lam):
    return MultiOperator([np.array([[lam, 1.0], [0.0, lam]], dtype=complex)])


def test_identity_verdicts():
    r = identity_tuple(1, 3)
    assert is_m_isometric(r, 1).holds
    assert is_n_symmetric(r, 1).holds
    assert is_isosymmetric(r, 1, 1).holds


def test_reference_verdicts():
    r = reference_pair()
    assert not is_m_isometric(r, 1).holds
    assert not is_n_symmetric(r, 1).holds
    assert is_isosymmetric(r, 1, 1).holds


def test_hermitian_is_1_symmetric():
    r = MultiOperator([np.array([[2.0, 1.0], [1.0, -1.0]], dtype=complex)])
    assert is_n_symmetric(r, 1).holds


def test_jordan_block_is_3_isometric():
    r = _jordan(1.0)
    assert not is_m_isometric(r, 2).holds
    assert is_m_isometric(r, 3).holds


def test_verdict_invariant():
    v = is_isosymmetric(random_commuting_tuple(2, 4, 3), 2, 1)
    assert v.holds == (v.defect_norm <= v.tolerance)


def test_containment_in_isosymmetric_class():
    # an m-isometric tuple is (m,n)-isosymmetric for every n, and an
    # n-symmetric tuple is (m,n)-isosymmetric for every m
    jordan = _jordan(1.0)
    assert is_m_isometric(jordan, 3).holds
    for n in range(1, 4):
        assert is_isosymmetric(jordan, 3, n).holds
    hermitian = MultiOperator([np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)])
    assert is_n_symmetric(hermitian, 1).holds
    for m in range(1, 4):
        assert is_isosymmetric(hermitian, m, 1).holds


def test_order_validation():
    r = identity_tuple(1, 2)
    with pytest.raises(InvalidParams):
        is_m_isometric(r, 0)
    with pytest.raises(InvalidParams):
        is_isosymmetric(r, 0, 0)


class TestMinimalOrders:
    def test_identity(self):
        found = minimal_orders(identity_tuple(1, 3), 3, 3)
        assert found.staircase == [(0, 1), (1, 0)]
        assert not found.exhausted

    def test_reference(self):
        found = minimal_orders(reference_pair(), 4, 4)
        assert (1, 1) in found.staircase
        assert (1, 0) not in found.staircase
        assert (0, 1) not in found.staircase
        # the full antichain for this pair inside the box
        assert found.staircase == [(0, 3), (1, 1), (2, 0)]

    def test_zero_tuple(self):
        zero = MultiOperator([np.zeros((2, 2))] * 2)
        found = minimal_orders(zero, 3, 3)
        assert (0, 1) in found.staircase

    def test_random_not_isosymmetric(self):
        found = minimal_orders(random_commuting_tuple(2, 5, 11), 3, 3)
        assert found.staircase == []
        assert found.exhausted

    def test_staircase_is_antichain_and_consistent(self):
        r = reference_pair()
        found = minimal_orders(r, 4, 4)
        for a in found.staircase:
            for b in found.staircase:
                if a != b:
                    assert not (a[0] <= b[0] and a[1] <= b[1]) or a == b
        for m, n in found.staircase:
            assert is_isosymmetric(r, m, n).holds
            if m > 0 and m + n > 1:
                assert not is_isosymmetric(r, m - 1, n).holds
            if n > 0 and m + n > 1:
                assert not is_isosymmetric(r, m, n - 1).holds

    @staticmethod
    def _counted(monkeypatch):
        """The cells minimal_orders reads from now on, in order."""
        cells, read = [], classify.isosymmetry_defect

        def counted(table, m, n, tol=None):
            cells.append((m, n))
            return read(table, m, n, tol)

        monkeypatch.setattr(classify, "isosymmetry_defect", counted)
        return cells

    @pytest.mark.parametrize("box, count", [(3, 4), (6, 11)])
    def test_walk_reads_one_cell_per_step(self, monkeypatch, box, count):
        # the diagonal scan read 16 and 43 cells here
        cells = self._counted(monkeypatch)
        minimal_orders(random_commuting_tuple(2, 5, 11), box, box)
        assert len(cells) == count
        assert cells[0] == (0, box)

    @pytest.mark.parametrize("box", [(0, 0), (2, 5), (5, 2), (4, 4), (12, 12)])
    def test_walk_reads_at_most_the_box_perimeter(self, monkeypatch, box):
        cells = self._counted(monkeypatch)
        found = minimal_orders(reference_pair(), *box)
        assert len(cells) <= box[0] + box[1] + 2
        assert len(set(cells)) == len(cells)
        assert set(found.staircase) <= set(cells)

    def test_overflowing_corner_is_too_large(self):
        # the walk reads (0, 6) first, whose zero-test scale overflows; the
        # diagonal scan answered [(0, 1), (2, 0)] from false zeros, where
        # the unscaled tuple's staircase is [(0, 3)]
        r = nilpotent_tuple(2, 4, 2, 3)
        assert minimal_orders(r, 6, 6).staircase == [(0, 3)]
        with pytest.raises(TooLarge, match=r"\(0,6\)"):
            minimal_orders(MultiOperator([1e27 * m for m in r.matrices]), 6, 6)

    def test_bounds_cap(self):
        with pytest.raises(InvalidParams):
            minimal_orders(identity_tuple(1, 2), 13, 3)

    def test_infinite_tolerance_rejected(self):
        # would call every cell zero: the staircase [(0, 0)]
        with pytest.raises(InvalidParams):
            minimal_orders(reference_pair(), 2, 2, tol=float("inf"))


class TestFamilyRank:
    def test_strict_3_isometry_isometry_family(self):
        # the classic family {M_0, M_1, M_2} of the 2x2 unimodular Jordan
        # block has full rank (rank 3 for m = 3, n = 1)
        result = defect_family_rank(_jordan(1.0), 3, 1, "vary_m")
        assert result.rank == 3
        assert result.independent
        assert result.hypothesis == "met"

    def test_full_hypothesis_with_nonreal_eigenvalue(self):
        # with a nonreal unimodular eigenvalue the corner defect L_{2,1}
        # survives, so the n = 2 family is exercised in full
        result = defect_family_rank(_jordan(1j), 3, 2, "vary_m")
        assert result.rank == 3
        assert result.independent

    def test_vary_n_real_jordan(self):
        result = defect_family_rank(_jordan(2.0), 2, 3, "vary_n")
        assert result.rank == 3
        assert result.independent

    def test_hypothesis_gate(self):
        # at a real unimodular eigenvalue L_{1,1} vanishes identically, so
        # every corner above it does too
        with pytest.raises(HypothesisUnmet):
            defect_family_rank(_jordan(1.0), 3, 2, "vary_m")

    def test_rank_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        conjugated = MultiOperator([u @ m @ u.conj().T
                                    for m in _jordan(1j).matrices])
        a = defect_family_rank(_jordan(1j), 3, 2, "vary_m")
        b = defect_family_rank(conjugated, 3, 2, "vary_m")
        assert a.rank == b.rank

    def test_direction_validation(self):
        with pytest.raises(InvalidParams):
            defect_family_rank(_jordan(1j), 3, 2, "sideways")
        with pytest.raises(InvalidParams):
            defect_family_rank(_jordan(1j), 1, 2, "vary_m")


@pytest.mark.parametrize("pairs, expect", [
    ([], []),
    ([(2, 0), (0, 3), (1, 1)], [(0, 3), (1, 1), (2, 0)]),
    ([(1, 3), (1, 1), (2, 1), (1, 1)], [(1, 1)]),
    ([(0, 3), (3, 0), (0, 1)], [(0, 1), (3, 0)]),
], ids=["empty", "antichain", "dominated-and-repeated", "joined"])
def test_minimal_pairs_keeps_the_undominated_once_in_increasing_m(pairs,
                                                                  expect):
    assert minimal_pairs(pairs) == expect


@pytest.mark.parametrize("staircase, q, expect", [
    ([(1, 1)], 1, [(1, 2)]),
    ([(2, 1)], 3, [(6, 6)]),
    # ex22's staircase raises to (1, 3), (1, 1), (2, 1): only (1, 1) stays
    ([(0, 3), (1, 1), (2, 0)], 2, [(3, 4)]),
    ([(0, 2), (3, 0)], 2, [(3, 5), (5, 4)]),
    ([], 2, []),
])
def test_perturbed_orders_raise_shift_and_keep_the_minimal(staircase, q,
                                                           expect):
    assert perturbed_orders(staircase, q) == expect
