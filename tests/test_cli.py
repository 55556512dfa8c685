import json

import jsonschema
import numpy as np
import pytest

from isosym.cli import main
from isosym.construct import nilpotent_tuple, reference_pair
from isosym.defect import MultiOperator
from isosym.tupleio import read_tuple, write_tuple


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    write_tuple(path, reference_pair())
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    from isosym.construct import identity_tuple
    path = tmp_path / "identity.json"
    write_tuple(path, identity_tuple(1, 2))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_check_reference(capsys, reference_file, schemas):
    code, report = _run(capsys, ["check", reference_file, "--m", "1", "--n", "1"])
    assert code == 0
    jsonschema.validate(report, schemas["report"])
    results = report["results"]
    assert results["isosymmetric"]["holds"]
    assert not results["isometric"]["holds"]
    assert not results["symmetric"]["holds"]
    assert results["commutation_residual"] == 0.0


def test_check_identity_all_hold(capsys, identity_file):
    code, report = _run(capsys, ["check", identity_file, "--m", "1", "--n", "1"])
    assert code == 0
    assert all(report["results"][k]["holds"]
               for k in ("isometric", "symmetric", "isosymmetric"))


def test_check_failing_property_exit_code(capsys, tmp_path):
    from isosym.construct import random_commuting_tuple
    path = tmp_path / "random.json"
    write_tuple(path, random_commuting_tuple(2, 4, 31))
    code, report = _run(capsys, ["check", str(path), "--m", "1", "--n", "1"])
    assert code == 1
    assert not report["results"]["isosymmetric"]["holds"]


def test_check_noncommuting_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "d": 2, "dim": 2,
        "matrices": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                     [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]}))
    assert main(["check", str(path), "--m", "1", "--n", "1"]) == 2


def test_check_missing_file_exit_2(capsys):
    assert main(["check", "/no/such/file.json", "--m", "1", "--n", "1"]) == 2


def test_defect_matrix_payload(capsys, reference_file, schemas):
    code, report = _run(capsys, ["defect", reference_file, "--kind", "M",
                                 "--l", "1"])
    assert code == 0
    jsonschema.validate(report, schemas["report"])
    results = report["results"]
    assert results["kind"] == "M" and results["orders"] == [1]
    assert results["norm"] == 1.0 and not results["is_zero"]
    assert results["matrix"][0][0] == [1.0, 0.0]
    assert results["matrix"][1][1] == [0.0, 0.0]


def test_defect_lambda_zero(capsys, reference_file):
    code, report = _run(capsys, ["defect", reference_file, "--kind", "Lambda",
                                 "--m", "1", "--n", "1"])
    assert code == 0
    assert report["results"]["is_zero"]
    assert report["results"]["norm"] == 0.0


def test_defect_s_requires_l(capsys, reference_file):
    assert main(["defect", reference_file, "--kind", "S"]) == 2


@pytest.mark.parametrize("args", [
    ["defect", "--kind", "S", "--l", "-1"],
    ["defect", "--kind", "M", "--l", "-2"],
    ["defect", "--kind", "Lambda", "--m", "-1", "--n", "2"],
    ["spectrum", "--m", "-1", "--n", "3"],
], ids=["S", "M", "Lambda", "spectrum"])
def test_negative_order_exit_2(capsys, reference_file, args):
    argv = [args[0], reference_file] + args[1:]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_minimal_staircase(capsys, reference_file, schemas):
    code, report = _run(capsys, ["minimal", reference_file,
                                 "--m-max", "4", "--n-max", "4"])
    assert code == 0
    jsonschema.validate(report, schemas["report"])
    assert report["results"]["staircase"] == [[0, 3], [1, 1], [2, 0]]
    assert report["results"]["exhausted"]


def test_spectrum_with_classification(capsys, reference_file, schemas):
    code, report = _run(capsys, ["spectrum", reference_file,
                                 "--m", "1", "--n", "1"])
    assert code == 0
    jsonschema.validate(report, schemas["report"])
    results = report["results"]
    assert results["eigenpairs"] == [{"mu": [[0.0, 0.0], [1.0, 0.0]],
                                      "multiplicity": 2, "residual": 0.0}]
    assert results["classifications"][0]["on_sphere"]
    assert results["zero_coordinate"]["consistent"]


def test_spectrum_computes_spectrum_and_verdict_once(capsys, reference_file,
                                                    monkeypatch):
    import isosym.classify
    import isosym.cli
    import isosym.spectra
    calls = {"joint_point_spectrum": 0, "is_isosymmetric": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    # every binding the command could reach each function through
    for module in (isosym.cli, isosym.spectra, isosym.classify):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(module, name))
    code, report = _run(capsys, ["spectrum", reference_file,
                                 "--m", "1", "--n", "1"])
    assert code == 0
    assert "classifications" in report["results"]
    assert calls == {"joint_point_spectrum": 1, "is_isosymmetric": 1}


def test_spectrum_property_fails(capsys, tmp_path):
    from isosym.construct import random_commuting_tuple
    path = tmp_path / "r.json"
    write_tuple(path, random_commuting_tuple(2, 4, 57))
    code, report = _run(capsys, ["spectrum", str(path), "--m", "1", "--n", "1"])
    assert code == 1
    assert not report["results"]["isosymmetric"]["holds"]
    assert "classifications" not in report["results"]


def test_construct_example22_round_trip(capsys, tmp_path, schemas):
    out = tmp_path / "ex.json"
    code, report = _run(capsys, ["construct", "example22", "--out", str(out)])
    assert code == 0
    jsonschema.validate(report, schemas["report"])
    assert report["results"]["predicted_orders"] == [[1, 1]]
    op, meta = read_tuple(out)
    assert op.d == 2 and op.dim == 3
    assert meta["construction"]["kind"] == "example22"


def test_construct_jordan_prediction(capsys, tmp_path):
    base = tmp_path / "one.json"
    base.write_text(json.dumps({"d": 1, "dim": 1, "matrices": [[[[1, 0]]]]}))
    out = tmp_path / "jordan.json"
    code, report = _run(capsys, ["construct", "jordan", "--base", str(base),
                                 "--mu", "1", "--q", "2", "--out", str(out)])
    assert code == 0
    assert report["results"]["predicted_orders"] == [[3, 4]]
    op, _ = read_tuple(out)
    assert np.array_equal(op.matrices[0],
                          np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_construct_tensor_dims_multiply(capsys, tmp_path, reference_file):
    nil = tmp_path / "nil.json"
    assert main(["construct", "nilpotent", "--d", "2", "--dim", "2",
                 "--order", "2", "--seed", "5", "--out", str(nil)]) == 0
    capsys.readouterr()
    out = tmp_path / "tensor.json"
    code, report = _run(capsys, ["construct", "tensor", "--left", reference_file,
                                 "--right", str(nil), "--out", str(out)])
    assert code == 0
    assert report["results"]["dim"] == 6
    assert [3, 4] in report["results"]["predicted_orders"]


def test_construct_scaled(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"d": 1, "dim": 1, "matrices": [[[[1, 0]]]]}))
    out = tmp_path / "scaled.json"
    code, report = _run(capsys, ["construct", "scaled", "--base", str(base),
                                 "--beta", "0.6,0.8", "--out", str(out)])
    assert code == 0
    op, _ = read_tuple(out)
    assert op.d == 2


def test_construct_requires_out(capsys):
    assert main(["construct", "example22"]) == 2


def test_verify_suite_pass(capsys, tmp_path, schemas, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report = _run(capsys, ["verify", "--suite", "forms",
                                 "--trials", "10", "--seed", "1"])
    assert code == 0
    jsonschema.validate(report, schemas["suite_report"])
    assert report["trials_passed"] == 10


def test_verify_failure_writes_counterexamples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report = _run(capsys, ["verify", "--suite", "forms", "--trials", "2",
                                 "--seed", "1", "--tol", "-1"])
    assert code == 1
    files = list((tmp_path / "counterexamples").glob("forms_trial*.json"))
    assert len(files) == 2


def test_text_format(capsys, reference_file):
    code = main(["check", reference_file, "--m", "1", "--n", "1",
                 "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "isosymmetric" in out and "holds: true" in out


def test_out_file(tmp_path, reference_file, capsys):
    dest = tmp_path / "report.json"
    code = main(["check", reference_file, "--m", "1", "--n", "1",
                 "--out", str(dest)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(dest.read_text())
    assert report["command"] == "check"


@pytest.fixture
def fresh_parser():
    """Start and end without a cached parser."""
    from isosym.cli import _build_parser
    _build_parser.cache_clear()
    yield _build_parser
    _build_parser.cache_clear()


def test_parser_is_built_once_per_process(capsys, reference_file, fresh_parser,
                                          monkeypatch):
    import argparse
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):  # called once per parser built
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    for i in range(20):
        argv = ["check", reference_file, "--m", "1", "--n", str(1 + i % 3)]
        assert main(argv) in (0, 1)
    capsys.readouterr()
    assert built == ["isosym"]


def test_repeated_main_calls_match_fresh_calls(capsys, tmp_path, reference_file,
                                               fresh_parser):
    from isosym.construct import random_commuting_tuple
    generic = str(tmp_path / "random.json")
    write_tuple(generic, random_commuting_tuple(2, 4, 31))
    calls = [["check", reference_file, "--m", "1", "--n", "1", "--tol", "1e-3"],
             ["check", reference_file, "--m", "1", "--n", "1"],
             ["check", reference_file, "--m", "1"],  # argparse: --n missing
             ["construct", "example22", "--out", str(tmp_path / "c.json")],
             ["defect", reference_file, "--kind", "S", "--l", "2"],
             ["check", reference_file, "--m", "0", "--n", "1"],  # InvalidParams
             ["check", generic, "--m", "1", "--n", "1"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_one_process = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        fresh_parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_one_process == fresh
    codes = [code for code, _, _ in fresh]
    assert codes == [0, 0, ("SystemExit", 2), 0, 0, 2, 1]
    assert json.loads(fresh[0][1])["tolerances"]["tol"] == 1e-3
    assert json.loads(fresh[1][1])["tolerances"]["tol"] == 1e-8


@pytest.mark.parametrize("entry", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]",
                                   "[1e999, 0]", "[1%s, 0]" % ("0" * 400),
                                   "[1, 0, 7]", "[1]", "[true, 0]",
                                   "[\"1\", 0]", "{\"re\": 1, \"im\": 0}"],
                         ids=["nan", "inf", "-inf", "float-overflow",
                              "int-overflow", "three-items", "one-item", "bool",
                              "string", "object"])
def test_bad_tuple_entry_exit_2(capsys, tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 1, "dim": 1, "matrices": [[[%s]]]}' % entry)
    assert main(["check", str(path), "--m", "1", "--n", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("counts", ['"d": true, "dim": 2.9', '"d": 1, "dim": "2"',
                                    '"d": 1.5, "dim": 2', '"d": 1, "dim": 0'],
                         ids=["bool-and-fraction", "string", "fraction", "zero"])
def test_bad_count_exit_2(capsys, tmp_path, counts):
    path = tmp_path / "bad.json"
    path.write_text('{%s, "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}'
                    % counts)
    assert main(["check", str(path), "--m", "1", "--n", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _shifted(q):
    """The reference pair's staircase, clamped to >= 1 and shifted by q."""
    return [[2 * q - 1, 2 * q], [2 * q - 1, 2 * q + 2], [2 * q, 2 * q]]


@pytest.mark.parametrize("order, dim", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_construct_tensor_predicted_orders(capsys, tmp_path, reference_file,
                                           order, dim):
    nil = str(tmp_path / "nil.json")
    assert main(["construct", "nilpotent", "--d", "2", "--dim", str(dim),
                 "--order", str(order), "--seed", "5", "--out", nil]) == 0
    capsys.readouterr()
    out = tmp_path / "tensor.json"
    code, report = _run(capsys, ["construct", "tensor", "--left", reference_file,
                                 "--right", nil, "--out", str(out)])
    assert code == 0
    assert report["results"]["predicted_orders"] == _shifted(order)
    _, meta = read_tuple(out)
    assert meta["construction"]["predicted_orders"] == _shifted(order)


def test_construct_tensor_with_a_non_nilpotent_right_predicts_nothing(
        capsys, tmp_path, reference_file):
    from isosym.construct import random_commuting_tuple
    right = tmp_path / "right.json"
    write_tuple(right, random_commuting_tuple(2, 2, 3))
    code, report = _run(capsys, ["construct", "tensor", "--left", reference_file,
                                 "--right", str(right),
                                 "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert report["results"]["predicted_orders"] is None


def _unit(dim, i, j):
    e = np.zeros((dim, dim))
    e[i, j] = 1.0
    return e


@pytest.mark.parametrize("right", [
    # every product of two is 1e-14 I: small, but not nilpotent
    [1e-7 * np.eye(2)] * 2,
    # Frobenius norms of products fall far below max_norm^k
    [np.eye(20)] * 2,
    [np.eye(32)] * 2,
    # idempotents of norm 1e10: max_norm^k overflows a float
    [1e10 * _unit(32, 0, 0)] * 2,
    # a nilpotent component next to a small invertible one
    [_unit(3, 0, 1), 1e-8 * np.eye(3)],
], ids=["small-identity", "identity-20", "identity-32", "large-idempotent",
        "mixed-scales"])
def test_construct_tensor_with_a_non_nilpotent_right_predicts_nothing_at_any_scale(
        capsys, tmp_path, reference_file, right):
    path = tmp_path / "right.json"
    write_tuple(path, MultiOperator(right))
    code, report = _run(capsys, ["construct", "tensor", "--left", reference_file,
                                 "--right", str(path),
                                 "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert report["results"]["predicted_orders"] is None


@pytest.mark.parametrize("right, q", [
    (lambda: nilpotent_tuple(2, 32, 20, 0), 20),
    # with unit-norm components, the products of 19 are at most 2.5e-12
    (lambda: nilpotent_tuple(2, 32, 20, 1), 20),
    # ... and here the products of 31 at most 7.3e-23
    (lambda: nilpotent_tuple(2, 32, 32, 0), 32),
    (lambda: MultiOperator([1e10 * _unit(32, 0, 1)] * 2), 2),
    (lambda: MultiOperator([np.eye(32, k=1)] * 2), 32),
], ids=["dim32-order20", "dim32-order20-small-products", "dim32-order32",
        "large-rank-one", "shift-32"])
def test_construct_tensor_finds_the_exact_order_of_a_large_nilpotent_right(
        capsys, tmp_path, reference_file, right, q):
    path = tmp_path / "right.json"
    write_tuple(path, right())
    code, report = _run(capsys, ["construct", "tensor", "--left", reference_file,
                                 "--right", str(path),
                                 "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert report["results"]["predicted_orders"] == _shifted(q)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_construct_jordan_predicted_orders(capsys, tmp_path, reference_file, q):
    out = tmp_path / "jordan.json"
    code, report = _run(capsys, ["construct", "jordan", "--base", reference_file,
                                 "--mu", "1,0.5j", "--q", str(q),
                                 "--out", str(out)])
    assert code == 0
    assert report["results"]["predicted_orders"] == _shifted(q)
    _, meta = read_tuple(out)
    assert meta["construction"]["predicted_orders"] == _shifted(q)
