"""Harness power: a comparison suite must fail on a planted defect.

A suite that compares two code paths shows something only if a fault in
one of them makes it fail.  The recurrence step is planted with R_j in
place of R_j*, so its residual against the definition is of the size of
the defect itself.  The spectral checks are planted with verdicts their
own numbers contradict, and with a pair on one orthogonality gate held
to orthogonality; the perturbation theorem with an m-shift one order too
low, a cell where L(R + Q) does not vanish in general.  The theorem's
hypotheses have one rule each, so planting a rule that refuses every
draw must reach every suite and command that reads it.
"""

import dataclasses
import json

import pytest

from isosym import cli, defect, harness, spectra
from isosym.classify import minimal_pairs
from isosym.construct import nilpotent_tuple, reference_pair
from isosym.defect import DefectTable, isosymmetry_defect_matrix
from isosym.harness import SuiteConfig, run_suite
from isosym.tupleio import write_tuple


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


def _failures(suite, seed=7, trials=200):
    report = run_suite(SuiteConfig(suite, trials, seed=seed))
    return report.trials_run - report.trials_passed


def test_spectral_fails_with_points_classified_by_and(monkeypatch):
    classify = spectra._classify

    def planted(pairs, tol):  # on_sphere and real_sum, not or
        return [dataclasses.replace(c, compliant=c.on_sphere and c.real_sum)
                for c in classify(pairs, tol)]

    assert _failures("spectral") == 0
    monkeypatch.setattr(spectra, "_classify", planted)
    assert _failures("spectral") >= 1


def test_spectral_fails_with_flipped_orthogonality_verdicts(monkeypatch):
    orthogonality = spectra._orthogonality

    def planted(pairs, tol):
        return [dataclasses.replace(o, compliant=not o.compliant)
                for o in orthogonality(pairs, tol)]

    monkeypatch.setattr(spectra, "_orthogonality", planted)
    assert _failures("spectral") >= 1


@pytest.mark.parametrize("seed", [7, 2026])
def test_spectral_fails_with_either_gate_requiring_orthogonality(
        monkeypatch, seed):
    """``|`` for ``&`` in ``spectra._orthogonality``: the suite's "gated"
    trials have one pair on a gate and eigenspaces that are not
    orthogonal, so the verdict their own gates give differs."""
    orthogonality = spectra._orthogonality

    def planted(pairs, tol):
        out = []
        for o in orthogonality(pairs, tol):
            required = o.gate_product > tol or o.gate_sum > tol
            out.append(dataclasses.replace(
                o, required_orthogonal=required,
                compliant=not required or o.gram_norm <= tol))
        return out

    assert _failures("spectral", seed) == 0
    monkeypatch.setattr(spectra, "_orthogonality", planted)
    assert _failures("spectral", seed) >= 1


def _perturbed_orders_m_one_lower(staircase, q):
    return minimal_pairs((max(m, 1) + 2 * q - 3, max(n, 1) + 2 * q - 1)
                         for m, n in staircase)


@pytest.mark.parametrize("suite", ["perturbation", "jordan", "tensor"])
def test_theorem_suites_fail_with_an_m_shift_one_lower(monkeypatch, suite):
    assert _failures(suite) == 0
    # the harness calls the theorem by the name it imported
    monkeypatch.setattr(harness, "perturbed_orders",
                        _perturbed_orders_m_one_lower)
    assert _failures(suite) >= 1


@pytest.mark.parametrize("suite", ["perturbation", "jordan", "tensor"])
def test_theorem_suites_read_the_one_hypothesis_check(monkeypatch, suite):
    assert _failures(suite) == 0
    # the harness calls the check by the name it imported
    monkeypatch.setattr(harness, "perturbation_hypothesis",
                        lambda *args: False)
    assert _failures(suite) == 200


def _predicted_orders(tmp_path, capsys):
    """``construct tensor`` of the reference pair and a 2-nilpotent pair."""
    left, right = tmp_path / "ex22.json", tmp_path / "nil.json"
    write_tuple(left, reference_pair())
    write_tuple(right, nilpotent_tuple(2, 3, 2, 0))
    capsys.readouterr()
    assert cli.main(["construct", "tensor", "--left", str(left), "--right",
                     str(right), "--out", str(tmp_path / "t.json")]) == 0
    return json.loads(capsys.readouterr().out)["results"]["predicted_orders"]


def test_construct_tensor_reads_the_one_nilpotency_rule(monkeypatch, tmp_path,
                                                        capsys):
    assert _predicted_orders(tmp_path, capsys) == [[3, 4]]
    # the CLI calls the rule by the name it imported
    monkeypatch.setattr(cli, "nilpotency_order", lambda r: None)
    assert _predicted_orders(tmp_path, capsys) is None
