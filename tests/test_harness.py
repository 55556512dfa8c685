import json
from dataclasses import fields, replace

import jsonschema
import numpy as np
import pytest

from isosym import cli, harness, spectra
from isosym.construct import identity_tuple, nilpotent_tuple, \
    random_commuting_tuple, reference_pair, tensor_sum, tensor_sum_parts
from isosym.defect import (MultiOperator, isosymmetry_defect_matrix,
                           nilpotency_order, zero_tolerance)
from isosym.errors import DMismatch, InvalidParams, IsosymError, ParseError
from isosym.harness import (_SUITES, SUITE_NAMES, SuiteConfig,
                            _shifted_residual, _trial_rng,
                            dump_counterexample, replay_counterexample,
                            run_suite)
from isosym.linalg import fro_norm
from isosym.spectra import spectral_checks
from isosym.tupleio import dumps, tuple_to_dict


SMALL = dict(trials=12, seed=42)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_small(suite):
    report = run_suite(SuiteConfig(suite=suite, **SMALL))
    assert report.trials_passed == report.trials_run == SMALL["trials"]
    assert report.counterexamples == []


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_determinism(suite):
    cfg = SuiteConfig(suite=suite, trials=8, seed=5)
    a = json.loads(dumps(run_suite(cfg)))
    b = json.loads(dumps(run_suite(cfg)))
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


#: (R, Q) pairs that miss one hypothesis of the perturbation theorem: Q
#: is a multiple of the identity, which no power annihilates, however
#: small; or Q is nilpotent and fails to commute with R by 5.2e-10 > TOL_COMM
_MISSED_HYPOTHESES = {
    "q-is-1e-9-identity": lambda: (
        reference_pair(), MultiOperator([1e-9 * np.eye(3)] * 2)),
    "q-is-1e-14-identity": lambda: (
        reference_pair(), MultiOperator([1e-14 * np.eye(3)] * 2)),
    "q-fails-cross-commutation": lambda: (
        MultiOperator([np.diag([1.0, 1j, -1.0])]),
        MultiOperator([1e-9 * np.outer([1.0, 0, 0], [0, 1.0, 0])])),
}


#: (base, right factor) pairs of the tensor suite whose lifted factor
#: I (x) Q misses q-nilpotency: Q is a small multiple of the identity
_MISSED_BY_TENSOR = {
    "q-is-1e-9-identity": lambda: (
        reference_pair(), MultiOperator([1e-9 * np.eye(2)] * 2)),
    "q-is-1e-14-identity": lambda: (
        reference_pair(), MultiOperator([1e-14 * np.eye(2)] * 2)),
}


@pytest.mark.parametrize("suite, labels, pair", [
    pytest.param(suite, labels, pair, id=f"{name}-{suite}")
    for cases, suites in (
        (_MISSED_HYPOTHESES, (("perturbation", ("r", "q")),
                              ("jordan", ("r", "q")))),
        (_MISSED_BY_TENSOR, (("tensor", ("left", "right")),)))
    for name, pair in cases.items() for suite, labels in suites])
def test_a_draw_that_misses_a_hypothesis_replays_to_one(suite, labels, pair):
    payload = {"suite": suite, "params": {"m": 1, "n": 1, "q": 1},
               "tuples": {label: tuple_to_dict(t)
                          for label, t in zip(labels, pair())}}
    assert replay_counterexample(json.loads(dumps(payload))) == 1.0


@pytest.mark.parametrize("scale", [1e-9, 1e-14])
def test_a_small_identity_is_not_nilpotent(scale):
    for d in (1, 2):
        assert nilpotency_order(MultiOperator([scale * np.eye(3)] * d)) is None


@pytest.mark.parametrize("q", [1, 2, 3])
def test_nilpotency_order_of_a_nilpotent_tuple(q):
    assert nilpotency_order(nilpotent_tuple(2, 6, q, 0)) == q


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParams):
        SuiteConfig(suite="nonsense")
    with pytest.raises(InvalidParams):
        SuiteConfig(suite="forms", trials=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, False])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(InvalidParams, match="seed"):
        SuiteConfig(suite="forms", seed=seed)


@pytest.mark.parametrize("trials", [0, -1, 1.5, 2.0, True, "3", None])
def test_trials_must_be_a_positive_integer(trials):
    with pytest.raises(InvalidParams, match="trials"):
        SuiteConfig(suite="forms", trials=trials)


def test_a_seed_of_2_to_the_64_is_its_own_seed():
    # no seed wraps round onto another: 2^64 draws other trials than 0
    draws = [_trial_rng(SuiteConfig(suite="forms", seed=seed), 0).random()
             for seed in (0, 2 ** 64, 2 ** 64 - 1)]
    assert len(set(draws)) == 3


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), True,
                                 np.True_])
def test_unusable_tolerance_rejected(tol):
    with pytest.raises(InvalidParams, match="tol"):
        SuiteConfig(suite="forms", tol=tol)


def test_report_schema(schemas):
    report = run_suite(SuiteConfig(suite="scaled", trials=6, seed=3))
    jsonschema.validate(json.loads(dumps(report)), schemas["suite_report"])


def _failing_config(suite, trials):
    """A config whose tolerance no residual meets, not even 0.0.

    SuiteConfig refuses tol <= 0 from its callers, so the negative
    tolerance is set past that check: every trial fails, which exercises
    serialization and replay on real payloads.
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
                replayed = None  # what run_suite records for a raise
            assert replayed == ce["residual"]

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}", "truncated"],
                             ids=["missing", "not-utf-8", "truncated"])
    def test_replaying_an_unreadable_file_is_a_parse_error(self, tmp_path,
                                                           content):
        path = tmp_path / "ce.json"
        if content == "truncated":
            dump_counterexample(self._failing_report().counterexamples[0],
                                path)
            content = path.read_bytes()[:100]
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError):
            replay_counterexample(path)

    @pytest.mark.parametrize("payload", [
        lambda ce: [],
        lambda ce: {"suite": "forms"},
        lambda ce: {"suite": ["forms"]},
        lambda ce: dict(ce, tuples=[]),
        lambda ce: {k: v for k, v in ce.items() if k != "params"},
        lambda ce: dict(ce, params={"n": ce["params"]["n"]}),
        lambda ce: dict(ce, params=dict(ce["params"], m="x")),
        lambda ce: dict(ce, params=dict(ce["params"], m=1.5)),
        lambda ce: dict(ce, params=dict(ce["params"], m=None)),
        lambda ce: dict(ce, params=dict(ce["params"], m=[1])),
        lambda ce: dict(ce, params=dict(ce["params"], m=True)),
    ], ids=["list", "suite-only", "list-suite", "list-tuples", "no-params",
            "no-m", "string-m", "float-m", "null-m", "list-m", "bool-m"])
    def test_replaying_a_payload_that_is_no_counterexample_is_a_parse_error(
            self, tmp_path, payload):
        ce = json.loads(json.dumps(self._failing_report().counterexamples[0]))
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(payload(ce)))
        with pytest.raises(ParseError):
            replay_counterexample(path)

    @pytest.mark.parametrize("suite, labels", [
        ("jordan", ("r", "q")), ("tensor", ("left", "right")),
        ("perturbation", ("r", "q"))])
    def test_replaying_tuples_of_unequal_d_is_a_d_mismatch(self, suite,
                                                           labels):
        """Their sum is not a tuple: one of d 1 would broadcast over d 2."""
        payload = {"suite": suite, "params": {"m": 1, "n": 1, "q": 2},
                   "tuples": dict(zip(labels, (
                       tuple_to_dict(identity_tuple(1, 3)),
                       tuple_to_dict(nilpotent_tuple(2, 3, 2, 0)))))}
        with pytest.raises(DMismatch):
            replay_counterexample(payload)

    def test_replaying_an_unknown_suite_is_invalid(self, tmp_path):
        ce = dict(self._failing_report().counterexamples[0], suite="nope")
        with pytest.raises(InvalidParams, match="nope"):
            replay_counterexample(dump_counterexample(ce, tmp_path / "ce.json"))

    def test_schema_with_counterexamples(self, schemas):
        _report_validator(schemas).validate(
            json.loads(dumps(self._failing_report())))

    def test_every_instance_is_evaluated_once(self, monkeypatch):
        gen, evaluate = _SUITES["forms"]
        evaluated, built = [], []

        def counting_evaluate(tuples, params, tol):
            evaluated.append(tuples)
            return evaluate(tuples, params, tol)

        def counting_build(matrices):  # a smaller copy would be built here
            r = MultiOperator(matrices)
            built.append(r)
            return r

        monkeypatch.setitem(_SUITES, "forms", (gen, counting_evaluate))
        monkeypatch.setattr(harness, "MultiOperator", counting_build)
        report = run_suite(_failing_config("forms", 3))
        assert report.trials_passed == 0
        assert built == []  # no failing trial is re-evaluated on a copy
        assert len(evaluated) == report.trials_run


def test_a_counterexample_is_the_drawn_instance_with_its_residual(
        monkeypatch):
    """A failing trial is written as drawn, at the residual it counted: a
    Gram norm 1e-3 too large is what the counterexample shows, not some
    other failure of a smaller instance."""
    orthogonality = spectra._orthogonality

    def planted(pairs, tol):  # every Gram norm 1e-3 larger, verdicts redone
        out = []
        for o in orthogonality(pairs, tol):
            gram_norm = o.gram_norm + 1e-3
            out.append(replace(
                o, gram_norm=gram_norm,
                compliant=not o.required_orthogonal or gram_norm <= tol))
        return out

    monkeypatch.setattr(spectra, "_orthogonality", planted)
    cfg = SuiteConfig(suite="spectral", trials=200, seed=7)
    report = run_suite(cfg)
    assert len(report.counterexamples) == 200 - report.trials_passed == 100
    gen, evaluate = _SUITES["spectral"]
    for ce in report.counterexamples:
        tuples, params = gen(ce["trial"], _trial_rng(cfg, ce["trial"]))
        assert ce["tuples"] == {k: tuple_to_dict(v) for k, v in tuples.items()}
        assert ce["residual"] == evaluate(tuples, params, cfg.tol)
        assert 1e-3 <= ce["residual"] < 1.0


def _report_validator(schemas):
    from referencing import Registry, Resource
    registry = Registry().with_resource(
        "isosym/tuple.schema.json", Resource.from_contents(schemas["tuple"]))
    return jsonschema.Draft202012Validator(schemas["suite_report"],
                                           registry=registry)


def _strict_json(text):
    """``text`` parsed as JSON proper: Infinity and NaN are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_a_raising_trial_is_written_as_null(capsys, tmp_path, monkeypatch,
                                            schemas):
    # trials 0 and 5 of seed 1 raise FormsDisagree at this tolerance
    monkeypatch.chdir(tmp_path)
    code = cli.main(["verify", "--suite", "ascent", "--trials", "6",
                     "--seed", "1", "--tol", "1e-300"])
    assert code == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["worst_residual"] is None
    files = sorted((tmp_path / "counterexamples").glob("*.json"))
    assert [f.name for f in files] == ["ascent_trial0.json",
                                       "ascent_trial5.json"]
    written = [_strict_json(f.read_text()) for f in files]
    assert [ce["residual"] for ce in written] == [None, None]
    _report_validator(schemas).validate(dict(report, counterexamples=written))


def test_gated_tuples_put_one_pair_of_points_on_a_gate():
    """Both "gated" draws of the spectral suite: an exact (1,1) zero whose
    two eigenspaces meet at Gram norm 0.514 and whose pair sits on the
    gate_sum, or the gate_product, of the orthogonality test."""
    seen = set()
    for seed in range(20):
        r, orders, mu = harness._structured("gated", 3, 5,
                                            np.random.default_rng(seed))
        assert (r.d, r.dim, orders) == (2, 2, (1, 1))
        checks = spectral_checks(r, 1, 1)
        assert checks.verdict.holds and checks.verdict.margin == 0.0
        pair, = checks.orthogonality
        assert not pair.required_orthogonal and pair.compliant
        assert pair.gram_norm == pytest.approx(0.6 / np.sqrt(1.36))
        seen.add("sum" if pair.gate_sum <= checks.tol_orthogonality
                 else "product")
        assert min(pair.gate_sum, pair.gate_product) \
            <= checks.tol_orthogonality
        want = [[complex(*z) for z in point] for point in sorted(mu)]
        assert np.allclose([p.mu for p in checks.pairs], want, atol=1e-12)
    assert seen == {"sum", "product"}


def test_config_holds_only_the_settings_callers_set():
    assert [f.name for f in fields(SuiteConfig)] == \
        ["suite", "trials", "seed", "tol"]


#: per suite, the integers trials 0-19 draw at seed 2026: (d, dim) of each
#: tuple in the order the suite names them, then each integer parameter
_DRAWS_2026 = {
    "recurrence": [(3, 3, 1, 1), (2, 5, 0, 2), (1, 2, 2, 0), (2, 6, 1, 0),
                   (1, 8, 0, 2), (1, 2, 0, 1), (1, 4, 0, 0), (2, 8, 0, 2),
                   (2, 4, 2, 1), (2, 7, 2, 0), (3, 2, 2, 0), (2, 2, 0, 2),
                   (3, 5, 0, 1), (2, 5, 1, 1), (2, 3, 2, 2), (2, 5, 0, 0),
                   (2, 7, 0, 0), (2, 8, 1, 1), (3, 4, 2, 0), (3, 3, 0, 1)],
    "expansion": [(3, 3, 3, 3, 2, 2, 1), (2, 6, 2, 6, 1, 3, 2),
                  (1, 2, 1, 2, 2, 1, 1), (2, 4, 2, 4, 2, 2, 2),
                  (1, 8, 1, 8, 2, 2, 3), (1, 2, 1, 2, 2, 1, 1),
                  (1, 6, 1, 6, 3, 2, 1), (2, 6, 2, 6, 3, 1, 3),
                  (2, 6, 2, 6, 2, 3, 2), (2, 9, 2, 9, 3, 2, 3),
                  (3, 4, 3, 4, 2, 3, 1), (2, 4, 2, 4, 1, 2, 1),
                  (3, 6, 3, 6, 1, 1, 2), (2, 6, 2, 6, 3, 2, 2),
                  (2, 3, 2, 3, 3, 1, 1), (2, 4, 2, 4, 1, 3, 2),
                  (2, 6, 2, 6, 2, 2, 3), (2, 9, 2, 9, 3, 3, 3),
                  (3, 9, 3, 9, 3, 2, 2), (3, 3, 3, 3, 1, 1, 1)],
    "perturbation": [(1, 2, 1, 2, 1, 1, 1), (2, 4, 2, 4, 2, 1, 1),
                     (2, 3, 2, 3, 1, 2, 1), (2, 2, 2, 2, 2, 2, 1),
                     (2, 6, 2, 6, 1, 1, 2), (2, 6, 2, 6, 2, 1, 2),
                     (2, 9, 2, 9, 1, 2, 2), (3, 6, 3, 6, 2, 2, 2),
                     (2, 9, 2, 9, 1, 1, 3), (3, 6, 3, 6, 2, 1, 3),
                     (1, 24, 1, 24, 1, 2, 3), (1, 24, 1, 24, 2, 2, 3),
                     (2, 2, 2, 2, 1, 1, 1), (2, 4, 2, 4, 2, 1, 1),
                     (1, 8, 1, 8, 1, 2, 1), (2, 3, 2, 3, 2, 2, 1),
                     (3, 4, 3, 4, 1, 1, 2), (3, 8, 3, 8, 2, 1, 2),
                     (2, 15, 2, 15, 1, 2, 2), (1, 4, 1, 4, 2, 2, 2)],
    "ascent": [(1, 2, 2, 4), (2, 3, 2, 4), (1, 2, 2, 4), (2, 6, 2, 4),
               (1, 8, 2, 4), (1, 2, 2, 4), (2, 3, 2, 4), (2, 3, 2, 4),
               (2, 4, 2, 4), (2, 7, 2, 4), (3, 2, 2, 4), (2, 2, 2, 4),
               (2, 2, 2, 4), (2, 3, 2, 4), (2, 3, 2, 4), (2, 5, 2, 4),
               (2, 7, 2, 4), (2, 8, 2, 4), (2, 2, 2, 4), (2, 3, 2, 4)],
    "independence": [(3, 7, 3, 2), (2, 3, 2, 3), (1, 6, 3, 2), (2, 5, 2, 3),
                     (1, 3, 3, 2), (1, 3, 2, 3), (1, 3, 3, 2), (2, 8, 2, 3),
                     (2, 5, 3, 2), (2, 8, 2, 3), (3, 2, 3, 2), (2, 4, 2, 3),
                     (3, 5, 3, 2), (2, 8, 2, 3), (2, 8, 3, 2), (2, 3, 2, 3),
                     (2, 4, 3, 2), (2, 8, 2, 3), (3, 2, 3, 2), (3, 5, 2, 3)],
    # trials 4 and 12 draw a "gated" pair, of d 2 and dim 2
    "spectral": [(2, 3, 1, 1), (2, 5, 1, 1), (1, 2, 1, 1), (2, 2, 3, 1),
                 (2, 2, 1, 1), (1, 2, 1, 1), (1, 4, 1, 1), (2, 2, 3, 1),
                 (2, 3, 1, 1), (2, 7, 1, 1), (3, 2, 1, 1), (2, 2, 3, 1),
                 (2, 2, 1, 1), (2, 5, 1, 1), (2, 3, 1, 1), (2, 2, 3, 1),
                 (2, 3, 1, 1), (2, 8, 1, 1), (3, 4, 1, 1), (3, 2, 3, 1)],
    "forms": [(3, 3, 1, 1), (2, 5, 0, 2), (1, 2, 3, 0), (2, 6, 2, 0),
              (1, 8, 0, 3), (1, 2, 0, 1), (1, 4, 1, 1), (2, 8, 0, 3),
              (2, 4, 3, 1), (2, 7, 2, 0), (3, 2, 3, 0), (2, 2, 0, 2),
              (3, 5, 0, 2), (2, 5, 1, 1), (2, 3, 3, 3), (2, 5, 0, 0),
              (2, 7, 0, 0), (2, 8, 2, 2), (3, 4, 3, 0), (3, 3, 0, 1)],
    "scaled": [(3, 3, 1, 3, 1, 2), (2, 5, 1, 5, 2, 2), (1, 2, 1, 2, 2, 3),
               (2, 6, 1, 6, 3, 1), (1, 8, 1, 8, 2, 2), (1, 2, 1, 2, 2, 0),
               (1, 4, 1, 4, 2, 2), (2, 8, 1, 8, 3, 1), (2, 4, 1, 4, 1, 3),
               (2, 7, 1, 7, 3, 0), (3, 2, 1, 2, 2, 0), (2, 2, 1, 2, 2, 0),
               (3, 5, 1, 5, 3, 0), (2, 5, 1, 5, 1, 2), (2, 3, 1, 3, 0, 0),
               (2, 5, 1, 5, 3, 0), (2, 7, 1, 7, 3, 3), (2, 8, 1, 8, 1, 3),
               (3, 4, 1, 4, 3, 0), (3, 3, 1, 3, 3, 1)],
    "jordan": [(1, 4, 1, 4, 3, 1, 2), (2, 12, 2, 12, 1, 1, 3),
               (1, 10, 1, 10, 1, 1, 2), (2, 6, 2, 6, 1, 1, 3),
               (2, 3, 2, 3, 1, 1, 1), (2, 3, 2, 3, 1, 1, 1),
               (2, 6, 2, 6, 1, 1, 2), (3, 9, 3, 9, 1, 1, 3),
               (2, 3, 2, 3, 1, 1, 1), (3, 6, 3, 6, 1, 1, 3),
               (1, 2, 1, 2, 3, 1, 1), (1, 24, 1, 24, 1, 1, 3),
               (2, 6, 2, 6, 3, 1, 3), (2, 8, 2, 8, 1, 1, 2),
               (1, 12, 1, 12, 1, 1, 3), (2, 6, 2, 6, 1, 1, 2),
               (3, 4, 3, 4, 1, 1, 2), (3, 12, 3, 12, 1, 1, 3),
               (2, 4, 2, 4, 3, 1, 2), (1, 4, 1, 4, 3, 1, 2)],
    "tensor": [(1, 2, 1, 3, 3, 1, 2), (2, 4, 2, 3, 1, 1, 3),
               (1, 5, 1, 2, 1, 1, 2), (2, 2, 2, 3, 1, 1, 3),
               (2, 3, 2, 1, 1, 1, 1), (2, 3, 2, 1, 1, 1, 1),
               (2, 3, 2, 2, 1, 1, 2), (3, 3, 3, 3, 1, 1, 3),
               (2, 3, 2, 1, 1, 1, 1), (3, 2, 3, 3, 1, 1, 3),
               (1, 2, 1, 1, 3, 1, 1), (1, 8, 1, 3, 1, 1, 3),
               (2, 2, 2, 4, 3, 1, 3), (2, 4, 2, 3, 1, 1, 2),
               (1, 4, 1, 4, 1, 1, 3), (2, 3, 2, 2, 1, 1, 2),
               (3, 2, 3, 2, 1, 1, 2), (3, 4, 3, 4, 1, 1, 3),
               (2, 2, 2, 2, 3, 1, 2), (1, 2, 1, 3, 3, 1, 2)],
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_draws_are_pinned(suite):
    # the suites draw within fixed bounds; moving one moves these integers
    cfg = SuiteConfig(suite=suite, seed=2026)
    gen = _SUITES[suite][0]
    drawn = []
    for idx in range(20):
        tuples, params = gen(idx, _trial_rng(cfg, idx))
        row = [n for r in tuples.values() for n in (r.d, r.dim)]
        row += [v for v in params.values()
                if isinstance(v, int) and not isinstance(v, bool)]
        drawn.append(tuple(row))
    assert drawn == _DRAWS_2026[suite]
