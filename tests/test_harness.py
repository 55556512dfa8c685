import json

import jsonschema
import pytest

from isosym.construct import random_commuting_tuple, tensor_sum, \
    tensor_sum_parts
from isosym.defect import isosymmetry_defect_matrix, zero_tolerance
from isosym.errors import InvalidParams, IsosymError
from isosym.harness import (SUITE_NAMES, SuiteConfig, _shifted_residual,
                            dump_counterexample, replay_counterexample,
                            run_suite)
from isosym.linalg import fro_norm


SMALL = dict(trials=12, seed=42)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_small(suite):
    report = run_suite(SuiteConfig(suite=suite, **SMALL))
    assert report.trials_passed == report.trials_run == SMALL["trials"]
    assert report.counterexamples == []


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_determinism(suite):
    a = run_suite(SuiteConfig(suite=suite, trials=8, seed=5)).to_dict()
    b = run_suite(SuiteConfig(suite=suite, trials=8, seed=5)).to_dict()
    assert a == b  # includes worst_residual, bit for bit


def test_different_seeds_change_residuals():
    a = run_suite(SuiteConfig(suite="forms", trials=8, seed=1))
    b = run_suite(SuiteConfig(suite="forms", trials=8, seed=2))
    assert a.worst_residual != b.worst_residual


@pytest.mark.parametrize("m, n, q, shifted", [(1, 1, 1, (1, 2)),
                                              (1, 1, 2, (3, 4)),
                                              (2, 1, 2, (4, 4))])
def test_conclusion_reads_the_theorems_shifted_orders(m, n, q, shifted):
    # generic factors: the defect differs from one order to the next
    p, r = random_commuting_tuple(2, 2, 1), random_commuting_tuple(2, 2, 2)
    total = tensor_sum(p, r)
    expect = fro_norm(isosymmetry_defect_matrix(total, *shifted)) \
        / zero_tolerance(total, *shifted, 1.0)
    assert _shifted_residual(*tensor_sum_parts(p, r), m, n, q) == expect


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParams):
        SuiteConfig(suite="nonsense")
    with pytest.raises(InvalidParams):
        SuiteConfig(suite="forms", trials=0)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_unusable_tolerance_rejected(tol):
    with pytest.raises(InvalidParams, match="tol"):
        SuiteConfig(suite="forms", tol=tol)


def test_report_schema(schemas):
    report = run_suite(SuiteConfig(suite="scaled", trials=6, seed=3))
    jsonschema.validate(report.to_dict(), schemas["suite_report"])


def _failing_config(suite, trials):
    """A config whose tolerance no residual meets, not even 0.0.

    SuiteConfig refuses tol <= 0 from its callers, so the negative
    tolerance is set past that check: every trial fails, which exercises
    shrinking, serialization and replay on real payloads.
    """
    cfg = SuiteConfig(suite=suite, trials=trials, seed=8)
    object.__setattr__(cfg, "tol", -1.0)
    return cfg


class TestCounterexamples:
    def _failing_report(self):
        return run_suite(_failing_config("forms", 3))

    def test_failures_become_counterexamples(self):
        report = self._failing_report()
        assert report.trials_passed == 0
        assert len(report.counterexamples) == 3
        for ce in report.counterexamples:
            assert ce["residual"] > ce["params"]["tol"]
            assert "r" in ce["tuples"]

    def test_counterexamples_iff_failures(self):
        good = run_suite(SuiteConfig(suite="forms", trials=4, seed=8))
        assert good.trials_passed == good.trials_run
        assert good.counterexamples == []

    def test_dump_and_replay_bit_exact(self, tmp_path):
        report = self._failing_report()
        ce = report.counterexamples[0]
        path = dump_counterexample(ce, tmp_path / "ce.json")
        reloaded = json.loads(open(path).read())
        assert replay_counterexample(reloaded) == ce["residual"]
        assert replay_counterexample(path) == ce["residual"]

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_replay_reproduces_every_counterexample(self, suite):
        report = run_suite(_failing_config(suite, 6))
        assert len(report.counterexamples) == 6
        for ce in report.counterexamples:
            payload = json.loads(json.dumps(ce))  # as dumped to a file
            try:
                replayed = replay_counterexample(payload)
            except IsosymError:
                replayed = float("inf")  # what run_suite records for a raise
            assert replayed == ce["residual"]

    def test_schema_with_counterexamples(self, schemas):
        from referencing import Registry, Resource
        report = self._failing_report()
        registry = Registry().with_resource(
            "isosym/tuple.schema.json", Resource.from_contents(schemas["tuple"]))
        validator = jsonschema.Draft202012Validator(
            schemas["suite_report"], registry=registry)
        validator.validate(report.to_dict())
