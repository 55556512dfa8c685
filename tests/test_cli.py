import hashlib
import json

import jsonschema
import numpy as np
import pytest

from isosym import cli, kernels
from isosym.cli import main
from isosym.construct import (identity_tuple, nilpotent_tuple,
                              random_commuting_tuple, reference_pair)
from isosym.defect import (MultiOperator, isosymmetry_defect, symmetry_defect,
                           zero_tolerance)
from isosym.errors import (ConvergenceFailure, HypothesisUnmet, InputError,
                           InvarianceViolation, IsosymError, NumericalFailure)
from isosym.tupleio import matrix_from_json, read_tuple, write_tuple


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    write_tuple(path, reference_pair())
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
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
    path = tmp_path / "random.json"
    write_tuple(path, random_commuting_tuple(2, 4, 31))
    code, report = _run(capsys, ["check", str(path), "--m", "1", "--n", "1"])
    assert code == 1
    assert not report["results"]["isosymmetric"]["holds"]


@pytest.mark.xfail(strict=True, reason="item 1")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_check_huge_scalar_fails_with_a_strict_report(capsys, tmp_path):
    # L_{4,1} of [[1e25 i]] is -2e225 i against a tolerance of 1e242; its
    # Frobenius norm overflows, so the report writes Infinity.  A norm that
    # did not overflow would call the defect zero and the tuple (4,1)-
    # isosymmetric.  Only a measured error gets both right.
    path = tmp_path / "huge.json"
    write_tuple(path, MultiOperator([np.array([[1e25j]])]))
    code = main(["check", str(path), "--m", "4", "--n", "1"])

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
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


#: one command line of each command -> the schema of its report
COMMANDS = {
    "check": (["check", "{ref}", "--m", "1", "--n", "1"], "report"),
    "defect": (["defect", "{ref}", "--kind", "Lambda", "--m", "1", "--n", "1"],
               "report"),
    "minimal": (["minimal", "{ref}", "--m-max", "2", "--n-max", "2"], "report"),
    "spectrum": (["spectrum", "{ref}", "--m", "1", "--n", "1"], "report"),
    "construct": (["construct", "example22", "--out", "{out}"], "report"),
    "verify": (["verify", "--suite", "forms", "--trials", "2", "--seed", "1"],
               "suite_report"),
}
EVERY_COMMAND = pytest.mark.parametrize("argv, schema", COMMANDS.values(),
                                        ids=COMMANDS)


def _stdout(capsys, argv, reference_file, tmp_path):
    main([a.format(ref=reference_file, out=tmp_path / "c.json") for a in argv])
    return capsys.readouterr().out


@EVERY_COMMAND
def test_json_report_is_one_line_in_its_schema(capsys, tmp_path, monkeypatch,
                                               reference_file, schemas, argv,
                                               schema):
    monkeypatch.chdir(tmp_path)
    out = _stdout(capsys, argv, reference_file, tmp_path)
    assert out.endswith("\n") and out.count("\n") == 1
    jsonschema.validate(json.loads(out), schemas[schema])


@EVERY_COMMAND
def test_text_report_renders_the_json_report(capsys, tmp_path, monkeypatch,
                                             reference_file, argv, schema):
    monkeypatch.chdir(tmp_path)
    as_json = _stdout(capsys, argv, reference_file, tmp_path)
    as_text = _stdout(capsys, argv + ["--format", "text"], reference_file,
                      tmp_path)
    assert as_text == "\n".join(cli._text_lines(json.loads(as_json))) + "\n"


@pytest.mark.parametrize("command", [c for c, (_, schema) in COMMANDS.items()
                                     if schema == "report"])
def test_inputs_sha256_is_the_digest_of_the_file_read(capsys, tmp_path,
                                                      reference_file, command):
    argv = COMMANDS[command][0]
    report = json.loads(_stdout(capsys, argv, reference_file, tmp_path))
    expect = None if command == "construct" else hashlib.sha256(
        (tmp_path / "reference.json").read_bytes()).hexdigest()
    assert report["inputs"]["sha256"] == expect


@pytest.mark.parametrize("command", ["check", "defect", "spectrum"])
def test_every_verdict_carries_gap_and_margin(capsys, tmp_path,
                                              reference_file, schemas,
                                              command):
    report = json.loads(_stdout(capsys, COMMANDS[command][0], reference_file,
                                tmp_path))
    results = report["results"]
    records = [results] if command == "defect" else [
        results[k] for k in ("isometric", "symmetric", "isosymmetric")
        if k in results]
    assert records
    for record in records:
        norm = record["norm"] if command == "defect" else record["defect_norm"]
        assert record["margin"] == norm / record["tolerance"]
        one_form = record.get("property", "") != "mn_isosymmetric" \
            and record.get("kind") != "Lambda"
        assert (record["gap"] is None) == one_form
        for key in ("gap", "margin"):  # the schema requires both
            value = record.pop(key)
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(report, schemas["report"])
            record[key] = value
    jsonschema.validate(report, schemas["report"])


@pytest.mark.parametrize("command", ["check", "defect", "minimal", "spectrum"])
def test_each_query_opens_its_input_once(capsys, tmp_path, monkeypatch,
                                         reference_file, command):
    # the digest is taken from the bytes that were parsed, not a re-read
    opened, real_open = [], open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    _stdout(capsys, COMMANDS[command][0], reference_file, tmp_path)
    assert opened.count(reference_file) == 1


def test_defect_matrix_of_a_dim_16_tuple_reads_back_bit_exact(capsys,
                                                              tmp_path):
    path = tmp_path / "r16.json"
    write_tuple(path, random_commuting_tuple(2, 16, 7))
    code, report = _run(capsys, ["defect", str(path), "--kind", "Lambda",
                                 "--m", "2", "--n", "2"])
    assert code == 0
    expect = isosymmetry_defect(read_tuple(path)[0], 2, 2).matrix
    got = matrix_from_json(report["results"]["matrix"], (16, 16))
    assert np.array_equal(got, expect)
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


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


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("args", [
    ["check", "FILE", "--m", "1", "--n", "1"],
    ["minimal", "FILE", "--m-max", "2", "--n-max", "2"],
    ["verify", "--suite", "forms", "--trials", "1"],
], ids=["check", "minimal", "verify"])
def test_unusable_tolerance_exit_2(capsys, reference_file, args, tol):
    argv = [reference_file if a == "FILE" else a for a in args]
    assert main(argv + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "tol" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "forms", "--d-max", "2"],
    ["verify", "--suite", "forms", "--dim-max", "4"],
    ["verify", "--suite", "forms", "--m-max", "2"],
    ["verify", "--suite", "forms", "--n-max", "2"],
    ["check", "FILE", "--m", "1", "--n", "1", "--seed", "1"],
    ["defect", "FILE", "--kind", "S", "--l", "1", "--seed", "1"],
    ["minimal", "FILE", "--seed", "1"],
    ["spectrum", "FILE", "--seed", "1"],
    ["construct", "example22", "--out", "OUT", "--tol", "5"],
], ids=["verify-d-max", "verify-dim-max", "verify-m-max", "verify-n-max",
        "check-seed", "defect-seed", "minimal-seed", "spectrum-seed",
        "construct-tol"])
def test_removed_flag_exit_2(capsys, tmp_path, reference_file, argv):
    out = tmp_path / "out.json"
    argv = [reference_file if a == "FILE" else str(out) if a == "OUT" else a
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol, tol_spectra", [(None, 1e-7), ("1e-9", 1e-7),
                                              ("1e-3", 1e-3)])
def test_spectrum_reports_the_tolerances_it_used(capsys, reference_file,
                                                 tol, tol_spectra):
    argv = ["spectrum", reference_file, "--m", "1", "--n", "1"]
    code, report = _run(capsys, argv + (["--tol", tol] if tol else []))
    assert code == 0
    # --tol sets the spectral tolerance, and the orthogonality tolerance
    # floored at 1e-8; the hypothesis keeps the default zero-test base, 1e-8
    assert report["tolerances"]["tol"] == 1e-8
    assert report["tolerances"]["tol_spectra"] == tol_spectra
    assert report["tolerances"]["tol_orthogonality"] == \
        (1e-8 if tol is None else max(float(tol), 1e-8))
    verdict = report["results"]["isosymmetric"]
    assert verdict["holds"]
    assert verdict["tolerance"] == zero_tolerance(reference_pair(), 1, 1, 1e-8)


def test_minimal_staircase(capsys, reference_file, schemas):
    code, report = _run(capsys, ["minimal", reference_file,
                                 "--m-max", "4", "--n-max", "4"])
    assert code == 0
    jsonschema.validate(report, schemas["report"])
    assert report["results"]["staircase"] == [[0, 3], [1, 1], [2, 0]]
    assert not report["results"]["exhausted"]


@pytest.mark.parametrize("flag", ["--m-max", "--n-max"])
def test_minimal_negative_bound_names_the_bound_and_its_range(
        capsys, reference_file, flag):
    code = main(["minimal", reference_file, flag, "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{flag[2:].replace('-', '_')} must be in 0..12, got -1" in err


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


def test_spectrum_tol_gates_orthogonality_with_one_spectrum(capsys, tmp_path,
                                                            monkeypatch):
    import isosym.spectra
    # two unit-circle points 1e-4 apart in angle: the product gate
    # |mu conj(mu') - 1| is about 1e-4, above 1e-8 and below 1e-3
    path = tmp_path / "close.json"
    write_tuple(path, MultiOperator([np.diag(np.exp([0.3j, 0.3001j]))]))
    argv = ["spectrum", str(path), "--m", "1", "--n", "1"]
    code, report = _run(capsys, argv)
    assert code == 0
    pair, = report["results"]["orthogonality"]
    assert 1e-8 < pair["gate_product"] < 1e-3
    assert pair["required_orthogonal"]

    spectra_made = []
    jps = isosym.spectra.joint_point_spectrum
    monkeypatch.setattr(isosym.spectra, "joint_point_spectrum",
                        lambda r, tol: spectra_made.append(tol) or jps(r, tol))
    code, report = _run(capsys, argv + ["--tol", "1e-3"])
    assert code == 0
    assert spectra_made == [1e-3]
    assert report["tolerances"]["tol_orthogonality"] == 1e-3
    pair, = report["results"]["orthogonality"]
    assert not pair["required_orthogonal"]


def test_spectrum_property_fails(capsys, tmp_path):
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


@pytest.mark.parametrize("base, expect", [
    ([[1, 1], [0, 1]], [[0, 1], [3, 0]]),
    ([[1]], [[0, 1], [1, 0]]),
], ids=["jordan-2", "identity-1"])
def test_construct_scaled_with_betas_summing_to_0_predicts_the_staircase(
        capsys, tmp_path, base, expect):
    # (0, 1) joins the base's staircase, and the pairs it dominates go
    path = tmp_path / "base.json"
    write_tuple(path, MultiOperator([base]))
    out = tmp_path / "scaled.json"
    code, report = _run(capsys, ["construct", "scaled", "--base", str(path),
                                 "--beta=0.7071067811865476,"
                                 "-0.7071067811865476", "--out", str(out)])
    assert code == 0
    assert report["results"]["predicted_orders"] == expect
    code, found = _run(capsys, ["minimal", str(out)])
    assert code == 0
    assert found["results"]["staircase"] == expect


@pytest.mark.parametrize("argv", [
    ["check", "FILE", "--m", "400", "--n", "1"],
    ["defect", "FILE", "--kind", "S", "--l", "2000"],
    ["defect", "ZERO", "--kind", "M", "--l", "1030"],
], ids=["check-scale", "defect-scale", "defect-weights"])
def test_order_too_large_exit_2(capsys, tmp_path, reference_file, argv):
    # the zero tuple's zero-test scale fits at any order; its weights do not
    zero = tmp_path / "zero.json"
    write_tuple(zero, MultiOperator([np.zeros((2, 2))]))
    argv = [{"FILE": reference_file, "ZERO": str(zero)}.get(a, a)
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflow" in captured.err


@pytest.mark.parametrize("argv", [
    ["defect", "FILE", "--kind", "S", "--l", "1", "--m", "7", "--n", "9"],
    ["defect", "FILE", "--kind", "M", "--l", "1", "--n", "2"],
    ["defect", "FILE", "--kind", "Lambda", "--m", "1", "--n", "1", "--l", "3"],
], ids=["S-with-m-n", "M-with-n", "Lambda-with-l"])
def test_defect_refuses_orders_its_kind_does_not_read(capsys, reference_file,
                                                      argv):
    argv = [reference_file if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["example22", "--q", "5", "--beta", "1,2", "--left", "x"],
    ["random", "--d", "2", "--dim", "3", "--order", "2"],
    ["nilpotent", "--d", "2", "--dim", "3", "--order", "2", "--mu", "1"],
    ["tensor", "--left", "FILE", "--right", "FILE", "--seed", "3"],
    ["scaled", "--base", "FILE", "--beta", "1", "--q", "2"],
], ids=["example22", "random-order", "nilpotent-mu", "tensor-seed",
        "scaled-q"])
def test_construct_refuses_flags_its_kind_does_not_read(capsys, tmp_path,
                                                        reference_file, argv):
    out = tmp_path / "o.json"
    argv = [reference_file if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["construct"] + argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, missing", [
    (["scaled", "--beta", "1"], "--base"),
    (["jordan", "--base", "FILE", "--mu", "1"], "--q"),
    (["tensor", "--left", "FILE"], "--right"),
    (["nilpotent", "--d", "2", "--dim", "3"], "--order"),
    (["random", "--d", "2"], "--dim"),
    (["other"], "invalid choice"),
], ids=["scaled", "jordan", "tensor", "nilpotent", "random", "unknown-kind"])
def test_construct_kind_requires_its_flags(capsys, tmp_path, reference_file,
                                           argv, missing):
    out = tmp_path / "o.json"
    argv = [reference_file if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["construct"] + argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert missing in capsys.readouterr().err
    assert not out.exists()


def test_construct_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "example22"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_verify_suite_pass(capsys, tmp_path, schemas, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report = _run(capsys, ["verify", "--suite", "forms",
                                 "--trials", "10", "--seed", "1"])
    assert code == 0
    jsonschema.validate(report, schemas["suite_report"])
    assert report["trials_passed"] == 10


def test_verify_failure_writes_counterexamples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # both trials of seed 5 leave a rounding-level gap, 6e-19 and 3e-18,
    # above this tolerance
    code, report = _run(capsys, ["verify", "--suite", "forms", "--trials", "2",
                                 "--seed", "5", "--tol", "1e-30"])
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


@pytest.mark.parametrize("argv", [
    ["check", "{ref}", "--m", "1", "--n", "1", "--out", "{missing}"],
    ["spectrum", "{ref}", "--out", "{missing}"],
    ["construct", "example22", "--out", "{missing}"],
    ["verify", "--suite", "forms", "--trials", "2", "--seed", "5",
     "--tol", "1e-30", "--counterexample-dir", "{ref}/below-a-file"],
], ids=["check", "spectrum", "construct", "counterexample-dir"])
def test_unwritable_output_exit_2(capsys, tmp_path, reference_file, argv):
    missing = str(tmp_path / "missing" / "x.json")
    argv = [a.format(ref=reference_file, missing=missing) for a in argv]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scaled", "--base", "{single}", "--beta", "a,b"],
    ["scaled", "--base", "{single}", "--beta", "nan,1"],
    ["jordan", "--base", "{ref}", "--mu", "x,y", "--q", "2"],
    ["jordan", "--base", "{ref}", "--mu", "nan,1", "--q", "2"],
    # finite entries whose norm overflows a float
    ["jordan", "--base", "{ref}", "--mu", "1e200,1e200", "--q", "2"],
    ["random", "--d", "2", "--dim", "0"],
    ["random", "--d", "2", "--dim", "-3"],
    ["random", "--d", "2", "--dim", "3", "--seed", "-1"],
    ["nilpotent", "--d", "2", "--dim", "3", "--order", "2", "--seed", "-1"],
], ids=["beta-text", "beta-nan", "mu-text", "mu-nan", "mu-overflow", "dim-0",
        "dim-negative", "random-seed-negative", "nilpotent-seed-negative"])
def test_malformed_construct_value_exit_2(capsys, tmp_path, reference_file,
                                          argv):
    single = tmp_path / "single.json"
    write_tuple(single, MultiOperator([np.eye(2)]))
    out = tmp_path / "bad.json"
    argv = [a.format(single=single, ref=reference_file) for a in argv]
    assert main(["construct"] + argv + ["--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _concrete_errors():
    """Every IsosymError class but the base and its two families, by name."""
    found, todo = set(), [IsosymError]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        found.add(cls)
    found -= {IsosymError, InputError, NumericalFailure}
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_error_is_in_exactly_one_family():
    errors = _concrete_errors()
    assert len(errors) >= 13
    for error in errors:
        assert issubclass(error, InputError) != issubclass(
            error, NumericalFailure), error
    assert {e for e in errors if issubclass(e, NumericalFailure)} == {
        ConvergenceFailure, InvarianceViolation, HypothesisUnmet}


@pytest.mark.parametrize("error", _concrete_errors(),
                         ids=lambda error: error.__name__)
def test_an_error_raised_in_a_command_exits_by_its_family(
        capsys, monkeypatch, reference_file, error):
    def planted(*args):
        raise error("planted")

    monkeypatch.setattr(cli, "minimal_orders", planted)
    code = main(["minimal", reference_file])
    numerical = issubclass(error, NumericalFailure)
    assert code == (3 if numerical else 2)
    assert capsys.readouterr().err == (
        "numerical failure: planted\n" if numerical else "error: planted\n")


def test_verify_seed_below_zero_exit_2(capsys):
    assert main(["verify", "--suite", "forms", "--trials", "1",
                 "--seed", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_result_too_large_exit_2(capsys, tmp_path, reference_file,
                                          no_construct_arrays):
    out = tmp_path / "big.json"
    assert main(["construct", "jordan", "--base", reference_file, "--mu",
                 "1,1", "--q", "100000", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["nilpotent", "--d", "2", "--dim", "100000", "--order", "2"],
    ["nilpotent", "--d", "100000", "--dim", "1000", "--order", "2"],
    ["random", "--d", "100000", "--dim", "64"],
], ids=["nilpotent-dim", "nilpotent-d", "random-d"])
def test_construct_seeded_tuple_too_large_exit_2(capsys, tmp_path, args,
                                                 no_construct_arrays):
    out = tmp_path / "big.json"
    assert main(["construct", *args, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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

    def counting(self, **kwargs):  # called once per command level built
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    for i in range(20):
        argv = ["check", reference_file, "--m", "1", "--n", str(1 + i % 3)]
        assert main(argv) in (0, 1)
    capsys.readouterr()
    assert built == ["isosym", "isosym construct"]


def test_repeated_main_calls_match_fresh_calls(capsys, tmp_path, reference_file,
                                               fresh_parser):
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


@pytest.mark.parametrize("argv", [["check", "--m", "1", "--n", "1"],
                                  ["minimal"]], ids=["check", "minimal"])
@pytest.mark.parametrize("content", [
    b'\xff\xfe{"d": 1}',
    b'{"d": 1, "dim": 1, "matrices": ' + b"[" * 5000 + b"]" * 5000 + b"}",
], ids=["not-utf-8", "nested-5000-deep"])
def test_malformed_file_exit_2(capsys, tmp_path, argv, content):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_spectrum_of_overflowing_norms_exit_2(capsys, tmp_path):
    # 1e160 E_12 and 1e160 E_21 do not commute, but their norms overflow
    path = tmp_path / "big.json"
    path.write_text('{"d": 2, "dim": 2, "matrices": ['
                    '[[[0, 0], [1e160, 0]], [[0, 0], [0, 0]]], '
                    '[[[0, 0], [0, 0]], [[1e160, 0], [0, 0]]]]}')
    assert main(["spectrum", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("order", [1, 2, 3])
def test_construct_nilpotent_predicts_s_of_twice_order_less_one(
        capsys, tmp_path, order):
    out = tmp_path / "nil.json"
    code, report = _run(capsys, ["construct", "nilpotent", "--d", "2",
                                 "--dim", "3", "--order", str(order),
                                 "--out", str(out)])
    assert code == 0
    assert report["results"]["predicted_orders"] == [[0, 2 * order - 1]]
    op, meta = read_tuple(out)
    assert meta["construction"]["predicted_orders"] == [[0, 2 * order - 1]]
    assert symmetry_defect(op, 2 * order - 1).is_zero
    assert not symmetry_defect(op, 2 * order - 2).is_zero


def _shifted(q):
    """The reference pair's staircase [[0, 3], [1, 1], [2, 0]], clamped to
    >= 1 and shifted by q: (1, 1) dominates the other two."""
    return [[2 * q - 1, 2 * q]]


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
    # powers fall by 1e-3 a step: by q = 56 their squared entries underflow
    [1e-3 * np.eye(64) + _unit(64, 0, 1)] * 2,
], ids=["small-identity", "identity-20", "identity-32", "large-idempotent",
        "mixed-scales", "contraction"])
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


@pytest.mark.parametrize("right, steps, predicted", [
    (lambda: random_commuting_tuple(3, 64, 1), 64, None),
    (lambda: nilpotent_tuple(2, 32, 20, 0), 20, _shifted(20)),
], ids=["random-d3-dim64", "dim32-order20"])
def test_construct_tensor_order_search_is_one_gram_pass(
        capsys, tmp_path, monkeypatch, right, steps, predicted):
    """Order q costs one Gram step more than order q - 1, not a restart."""
    right = right()
    left = reference_pair() if right.d == 2 else identity_tuple(right.d, 1)
    paths = [str(tmp_path / name) for name in ("left.json", "right.json")]
    write_tuple(paths[0], left)
    write_tuple(paths[1], right)
    step = kernels.active.gram_step
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(kernels.active, "gram_step", counted)
    code, report = _run(capsys, ["construct", "tensor", "--left", paths[0],
                                 "--right", paths[1],
                                 "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert len(calls) == steps
    assert report["results"]["predicted_orders"] == predicted


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


@pytest.mark.parametrize("kind", ["tensor", "jordan"])
def test_construct_predictions_are_an_antichain_that_minimal_confirms(
        capsys, tmp_path, reference_file, kind):
    # ex22's staircase clamps to (1, 1), (1, 3) and (2, 1): only the first
    # is minimal, so one pair is written, not three
    out = str(tmp_path / "out.json")
    if kind == "tensor":
        nil = str(tmp_path / "nil.json")
        assert main(["construct", "nilpotent", "--d", "2", "--dim", "3",
                     "--order", "2", "--out", nil]) == 0
        capsys.readouterr()
        argv = ["construct", "tensor", "--left", reference_file,
                "--right", nil, "--out", out]
    else:
        argv = ["construct", "jordan", "--base", reference_file,
                "--mu", "1,1", "--q", "2", "--out", out]
    code, report = _run(capsys, argv)
    assert code == 0
    predicted = report["results"]["predicted_orders"]
    assert predicted == [[3, 4]]
    assert read_tuple(out)[1]["construction"]["predicted_orders"] == predicted
    assert not any(p != o and p[0] <= o[0] and p[1] <= o[1]
                   for p in predicted for o in predicted)
    code, found = _run(capsys, ["minimal", out])
    assert code == 0
    staircase = found["results"]["staircase"]
    for m, n in predicted:
        assert any(a <= m and b <= n for a, b in staircase), (staircase, m, n)


def test_spectrum_eigen_failure_exit_3(capsys, monkeypatch, reference_file):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    assert main(["spectrum", reference_file]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:")
    assert captured.out == ""


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "tuple file must be a JSON object"),
    ('{"d": 1, "dim": 1}', "missing field: 'matrices'"),
], ids=["list", "no-matrices"])
def test_tuple_file_of_the_wrong_shape_exit_2(capsys, tmp_path, content,
                                              message):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["check", str(path), "--m", "1", "--n", "1"]) == 2
    assert message in capsys.readouterr().err


def test_spectrum_with_one_order_exit_2(capsys, reference_file):
    assert main(["spectrum", reference_file, "--m", "1"]) == 2
    assert "give both --m and --n, or neither" in capsys.readouterr().err


def test_construct_scaled_refuses_a_base_of_two_matrices(capsys, tmp_path,
                                                         reference_file):
    out = tmp_path / "scaled.json"
    assert main(["construct", "scaled", "--base", reference_file,
                 "--beta", "1", "--out", str(out)]) == 2
    assert "--base must hold a single matrix (d=1)" in capsys.readouterr().err
    assert not out.exists()


def test_construct_random_writes_its_name_and_seed(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, report = _run(capsys, ["construct", "random", "--d", "2", "--dim",
                                 "3", "--seed", "4", "--name", "r",
                                 "--out", str(out)])
    assert code == 0
    assert report["results"]["predicted_orders"] is None
    op, meta = read_tuple(out)
    assert (op.d, op.dim) == (2, 3)
    assert meta["name"] == "r" and meta["seed"] == 4
    assert meta["construction"]["kind"] == "random"
    assert meta["construction"]["predicted_orders"] is None
