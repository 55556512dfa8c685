"""Harness power: a comparison suite must fail on a planted defect.

A suite that compares two code paths shows something only if a fault in
one of them makes it fail.  The recurrence step is planted with R_j in
place of R_j*, so its residual against the definition is of the size of
the defect itself.
"""

from isosym import defect, harness
from isosym.defect import DefectTable, isosymmetry_defect_matrix
from isosym.harness import SuiteConfig, run_suite


def _raise_isometry_order_without_adjoints(r, m, n):
    """sum_j R_j L_{m,n} R_j - L_{m,n}: the step with R_j for R_j*."""
    table = DefectTable.of(r)
    lam = isosymmetry_defect_matrix(table, m, n)
    out = -lam
    for rj in table.r.matrices:
        out = out + rj @ lam @ rj
    return out


def test_recurrence_fails_with_a_planted_step(monkeypatch):
    cfg = SuiteConfig("recurrence", 40, seed=7)
    assert run_suite(cfg).trials_passed == 40
    # the harness calls the step by the name it imported
    for module in (defect, harness):
        monkeypatch.setattr(module, "raise_isometry_order",
                            _raise_isometry_order_without_adjoints)
    report = run_suite(cfg)
    assert report.trials_run - report.trials_passed >= 30, report
