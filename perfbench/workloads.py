"""The three benchmark workloads: inputs, one pass of work, and oracles.

Each workload builds its inputs from the seed (``build``), warms up
(``warm_up``), and runs whole passes (``run_pass``) that return one
``Op`` per timed operation with the outcome of its oracle.  Work enters
the program only through its public surface: ``harness.run_suite``,
``cli.main(argv)``, the defect and spectra functions, and the ``isosym``
entry point in a fresh process (``cold_argv``).

Module attributes of isosym are looked up at call time, so a traced pass
goes through the wrappers that ``tracing.Instrumentation`` installs.
"""

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from isosym import cli, construct, defect, harness, spectra, tupleio

from . import oracles

#: contract sizes of the verification suites (the acceptance gate's)
CONTRACT_TRIALS = 200
EXPANSION_TRIALS = 100


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; ``TINY`` is for the benchmark's tests."""

    suite_trials: int = CONTRACT_TRIALS
    expansion_trials: int = EXPANSION_TRIALS
    family_files: int = 3       # files per structured family
    generic_files: int = 12     # generic random tuples (a quarter scaled by 3)
    generic_dim_max: int = 32
    minimal_dim_max: int = 12   # generic tuples scanned by `minimal`
    large_dims: tuple = (32, 64)
    cold_runs: int = 9
    setup_runs: int = 5
    import_runs: int = 3


FULL = Sizes()
TINY = Sizes(suite_trials=3, expansion_trials=2, family_files=1,
             generic_files=2, generic_dim_max=6, minimal_dim_max=6,
             large_dims=(6, 8), cold_runs=1, setup_runs=2,
             import_runs=1)


@dataclass
class Op:
    """One timed operation: latency, work items, and oracle failures."""

    label: str
    ms: float
    items: int = 1
    failed: int = 0
    errors: list = field(default_factory=list)


def _rng(*key):
    return np.random.default_rng([k & ((1 << 63) - 1) for k in key])


# ---------------------------------------------------------------------------
# verify-contract

class VerifyContract:
    """All ten suites through ``run_suite`` at contract size."""

    name = "verify-contract"
    item = "trials"
    min_ops = 1

    def build(self, seed, workdir, sizes):
        return {"seed": seed, "sizes": sizes, "workdir": workdir}

    def warm_up(self, state):
        for suite in harness.SUITE_NAMES:
            harness.run_suite(harness.SuiteConfig(
                suite=suite, trials=2, seed=state["seed"] ^ 0x5EED))

    def run_pass(self, state, index):
        sizes = state["sizes"]
        seed = (state["seed"] << 20) + index
        ops = []
        for suite in harness.SUITE_NAMES:
            trials = sizes.expansion_trials if suite == "expansion" \
                else sizes.suite_trials
            cfg = harness.SuiteConfig(suite=suite, trials=trials, seed=seed)
            t0 = time.perf_counter()
            try:
                report = harness.run_suite(cfg)
            except Exception as exc:  # a crash fails every trial
                ops.append(Op(suite, (time.perf_counter() - t0) * 1e3, trials,
                              trials, [f"{suite}: {type(exc).__name__}: {exc}"]))
                continue
            ms = (time.perf_counter() - t0) * 1e3
            failed = trials - report.trials_passed \
                if report.trials_run == trials else trials
            errors = [f"{suite} seed {seed}: {report.trials_passed}/"
                      f"{report.trials_run} trials passed"] if failed else []
            ops.append(Op(suite, ms, trials, failed, errors))
        return ops

    def cold_argv(self, state):
        trials = min(20, state["sizes"].suite_trials)
        argv = ["verify", "--suite", "forms", "--trials", str(trials),
                "--seed", str(state["seed"])]

        def check(code, payload):
            if code != 0 or payload.get("trials_passed") != trials \
                    or payload.get("trials_run") != trials:
                return f"cold verify: exit {code}, {payload.get('trials_passed')}" \
                       f"/{payload.get('trials_run')} passed"
            return None
        return argv, check


# ---------------------------------------------------------------------------
# query-mix: tuple-file corpus and CLI queries

@dataclass
class TupleFile:
    """A corpus file and what its construction says about it."""

    label: str
    path: str
    mats: list
    known_zero: list            # vanishing orders known from construction
    mus: list = None            # joint spectrum (complex d-vectors)
    multiplicity: bool = False  # mus lists geometric multiplicities
    generic: bool = False


@dataclass
class Query:
    """One ``cli.main`` call with the expected answer it is checked against."""

    label: str
    kind: str
    argv: list
    expect: dict


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def _conjugated_diagonal(values, rng):
    u = _unitary(rng, values.shape[1])
    return [u @ np.diag(v) @ u.conj().T for v in values]


def _columns(values):
    return [list(values[:, i]) for i in range(values.shape[1])]


def _stratum(i):
    """(d, dim) of the i-th small structured tuple; sizes are fixed so that
    a pass does about the same work whatever the seed."""
    return 1 + i % 3, 2 + (3 * i) % 7


def _families(rng, sizes):
    """Structured tuples: (label, MultiOperator, known zeros, mus, mult)."""
    ref = construct.reference_pair()
    yield ("reference", ref, [(1, 1), (0, 3), (2, 0)],
           [[0, 1], [0, 1]], True)
    for i in range(sizes.family_files):
        d, dim = _stratum(i)
        z = np.exp(2j * np.pi * rng.uniform(size=(d, dim)))
        z = z / np.linalg.norm(z, axis=0, keepdims=True)
        yield (f"unitary{i}", defect.MultiOperator(_conjugated_diagonal(z, rng)),
               [(1, 0)], _columns(z), True)
    for i in range(sizes.family_files):
        d, dim = _stratum(i + 1)
        v = rng.uniform(-2.0, 2.0, size=(d, dim)).astype(np.complex128)
        yield (f"hermitian{i}", defect.MultiOperator(_conjugated_diagonal(v, rng)),
               [(0, 1)], _columns(v), True)
    for i in range(sizes.family_files):
        d = _stratum(i + 2)[0]
        lam = np.exp(1j * rng.uniform(-np.pi, np.pi))
        beta = np.abs(rng.standard_normal(d)) + 0.1
        beta = beta / np.linalg.norm(beta)
        base = np.array([[lam, 1.0], [0.0, lam]], dtype=np.complex128)
        op = construct.scaled_tuple(construct.ScaledTupleSpec(base=base,
                                                              beta=tuple(beta)))
        # a 2x2 Jordan block with unimodular eigenvalue is 3-isometric
        yield f"scaledjordan{i}", op, [(3, 0)], [list(lam * beta)], False
    bases = [("reference", ref, [(1, 1), (0, 3), (2, 0)], [[0, 1]])]
    for i in range(sizes.family_files):
        d = 2
        z = np.exp(2j * np.pi * rng.uniform(size=(d, 2)))
        z = z / np.linalg.norm(z, axis=0, keepdims=True)
        bases.append((f"u{i}", defect.MultiOperator(_conjugated_diagonal(z, rng)),
                      [(1, 0)], _columns(z)))
    for i in range(sizes.family_files):
        label, base, known, mus = bases[i % len(bases)]
        q = 2 + i % 2
        mu = tuple(complex(rng.uniform(0.3, 1.5)
                           * np.exp(2j * np.pi * rng.uniform()))
                   for _ in range(base.d))
        op = construct.jordan_augment(construct.JordanAugmentSpec(
            base_tuple=base, mu=mu, q=q))
        yield (f"jordan{i}-{label}", op, oracles.shifted_orders(known, q),
               mus, False)
    for i in range(sizes.family_files):
        label, base, known, mus = bases[(i + 1) % len(bases)]
        q = 2 + (i + 1) % 2
        nil = construct.nilpotent_tuple(base.d, q + i % 2, q,
                                        int(rng.integers(2 ** 62)))
        op = construct.tensor_sum(base, nil)
        yield (f"tensor{i}-{label}", op, oracles.shifted_orders(known, q),
               mus, False)
    for i in range(sizes.family_files):
        # the first has d = 2 to serve as the right factor of `construct tensor`
        d, q = 1 + (i + 1) % 3, 2 + i % 2
        op = construct.nilpotent_tuple(d, max(q, _stratum(i)[1]), q,
                                       int(rng.integers(2 ** 62)))
        # T = sum_j R_j has T^q = 0, so every term of S_(2q-1) vanishes
        yield f"nilpotent{i}-q{q}", op, [(0, 2 * q - 1)], [[0] * d], False


def _generic(rng, sizes):
    dims = np.linspace(2, sizes.generic_dim_max, sizes.generic_files)
    for i, dim in enumerate(dims.round().astype(int).tolist()):
        d = 1 + i % 3
        op = construct.random_commuting_tuple(d, dim, int(rng.integers(2 ** 62)))
        if i % 4 == 3:
            op = defect.MultiOperator([3.0 * m for m in op.matrices])
        yield f"generic{i}-d{d}-dim{dim}", op


def _structured_queries(f):
    d, dim = len(f.mats), f.mats[0].shape[0]
    first = f.known_zero[0]
    m, n = max(first[0], 1), max(first[1], 1)
    isometric = True if any(b == 0 and a <= m for a, b in f.known_zero) else None
    symmetric = True if any(a == 0 and b <= n for a, b in f.known_zero) else None
    if f.label == "reference":
        # M_1 = e_0 e_0^T and S_1 = R_1^* - R_1 have norms 1 and sqrt 2
        isometric, symmetric = False, False
    yield Query(f"check:{f.label}", "check",
                ["check", f.path, "--m", str(m), "--n", str(n)],
                {"exit": 0, "isosymmetric": True, "isometric": isometric,
                 "symmetric": symmetric})
    if first[1] == 0:
        argv, expect = ["--kind", "M", "--l", str(first[0])], {"is_zero": True}
    elif first[0] == 0:
        argv, expect = ["--kind", "S", "--l", str(first[1])], {"is_zero": True}
    else:
        argv, expect = ["--kind", "Lambda", "--m", str(first[0]),
                        "--n", str(first[1])], {"is_zero": True}
    if f.label == "reference":
        argv, expect = ["--kind", "M", "--l", "1"], {"is_zero": False,
                                                     "norm": 1.0}
    yield Query(f"defect:{f.label}", "defect", ["defect", f.path] + argv,
                dict(expect, dim=dim))
    exact = [(0, 3), (1, 1), (2, 0)] if f.label == "reference" else None
    yield Query(f"minimal:{f.label}", "minimal", ["minimal", f.path],
                {"box": (6, 6), "known": f.known_zero, "staircase": exact})
    yield Query(f"spectrum:{f.label}", "spectrum",
                ["spectrum", f.path, "--m", str(first[0]), "--n", str(first[1])],
                {"d": d, "dim": dim, "mus": f.mus,
                 "multiplicity": f.multiplicity, "holds": True})


def _generic_queries(i, f, sizes):
    d, dim = len(f.mats), f.mats[0].shape[0]
    yield Query(f"check:{f.label}", "check",
                ["check", f.path, "--m", "1", "--n", "1"], {})
    kind = ("S", "M", "Lambda")[i // 3 % 3]
    if kind == "Lambda":
        orders = ["--m", str(1 + i % 3), "--n", str(3 - i % 3)]
    else:
        orders = ["--l", str(1 + i % 3)]
    yield Query(f"defect:{f.label}", "defect",
                ["defect", f.path, "--kind", kind] + orders, {"dim": dim})
    yield Query(f"spectrum:{f.label}", "spectrum", ["spectrum", f.path],
                {"d": d, "dim": dim})
    if dim <= sizes.minimal_dim_max:
        yield Query(f"minimal:{f.label}", "minimal", ["minimal", f.path],
                    {"box": (6, 6), "known": []})


def _construct_queries(files, outdir, rng):
    ref = files[0]
    scaled_base = next(f for f in files if f.generic and len(f.mats) == 1)
    jordan_base = next(f for f in files if f.label.startswith("unitary"))
    nil = next(f for f in files if f.label.startswith("nilpotent0"))

    def out(name):
        return os.path.join(outdir, f"{name}.json")

    yield Query("construct:example22", "construct",
                ["construct", "example22", "--out", out("example22")],
                {"out": out("example22"), "mats": ref.mats})
    d = int(rng.integers(2, 4))
    beta = rng.standard_normal(d)
    beta = beta / np.linalg.norm(beta)
    base = scaled_base.mats[0]
    yield Query("construct:scaled", "construct",
                ["construct", "scaled", "--base", scaled_base.path,
                 "--beta=" + ",".join(repr(float(b)) for b in beta),
                 "--out", out("scaled")],
                {"out": out("scaled"), "mats": [float(b) * base for b in beta]})
    q = int(rng.integers(2, 4))
    mu = [complex(rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform()))
          for _ in jordan_base.mats]
    yield Query("construct:jordan", "construct",
                ["construct", "jordan", "--base", jordan_base.path,
                 "--mu=" + ",".join(repr(z) for z in mu), "--q", str(q),
                 "--out", out("jordan")],
                {"out": out("jordan"),
                 "mats": oracles.jordan_blocks(jordan_base.mats, mu, q)})
    yield Query("construct:tensor", "construct",
                ["construct", "tensor", "--left", ref.path,
                 "--right", nil.path, "--out", out("tensor")],
                {"out": out("tensor"), "mats": oracles.kron_sum(ref.mats,
                                                                nil.mats)})
    order = int(rng.integers(2, 4))
    dim = order + int(rng.integers(0, 4))
    yield Query("construct:nilpotent", "construct",
                ["construct", "nilpotent", "--d", "2", "--dim", str(dim),
                 "--order", str(order), "--seed", str(int(rng.integers(1000))),
                 "--out", out("nilpotent")],
                {"out": out("nilpotent"), "d": 2, "dim": dim,
                 "nilpotent_order": order})
    dim = int(rng.integers(2, 9))
    yield Query("construct:random", "construct",
                ["construct", "random", "--d", "3", "--dim", str(dim),
                 "--seed", str(int(rng.integers(1000))), "--out", out("random")],
                {"out": out("random"), "d": 3, "dim": dim})


def _invalid_queries(workdir, ref):
    bad = os.path.join(workdir, "noncommuting.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump({"d": 2, "dim": 2,
                   "matrices": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                                [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]}, fh)
    broken = os.path.join(workdir, "malformed.json")
    with open(broken, "w", encoding="utf-8") as fh:
        fh.write('{"d": 1, "dim": 2, "matrices": [[[1, 0]')
    missing = os.path.join(workdir, "missing.json")
    for label, argv in (
            ("noncommuting", ["check", bad, "--m", "1", "--n", "1"]),
            ("malformed", ["minimal", broken]),
            ("missing-file", ["check", missing, "--m", "1", "--n", "1"]),
            ("lambda-without-orders", ["defect", ref, "--kind", "Lambda"]),
            ("box-too-large", ["minimal", ref, "--m-max", "13"]),
            ("m-zero", ["check", ref, "--m", "0", "--n", "1"])):
        yield Query(f"invalid:{label}", "invalid", argv, {"exit": 2})


def check_query(query, code, payload):
    """None when a query's exit code and report match its expectation."""
    e = query.expect
    if query.kind == "invalid":
        return None if code == e["exit"] else f"exit {code}, expected 2"
    if code not in (0, 1) or not isinstance(payload, dict):
        return f"exit {code}"
    res = payload.get("results", {})
    if query.kind == "check":
        iso = res["isosymmetric"]["holds"]
        if code != (0 if iso else 1):
            return f"exit {code} disagrees with holds={iso}"
        for key in ("isosymmetric", "isometric", "symmetric"):
            if e.get(key) is not None and res[key]["holds"] != e[key]:
                return f"{key} holds={res[key]['holds']}, expected {e[key]}"
        return None
    if query.kind == "defect":
        if code != 0 or np.shape(res["matrix"]) != (e["dim"], e["dim"], 2):
            return f"exit {code}, matrix shape {np.shape(res['matrix'])}"
        if not (math.isfinite(res["norm"]) and res["norm"] >= 0):
            return f"norm {res['norm']!r}"
        if e.get("is_zero") is not None and res["is_zero"] != e["is_zero"]:
            return f"is_zero={res['is_zero']}, expected {e['is_zero']}"
        if e.get("norm") is not None and abs(res["norm"] - e["norm"]) > 1e-12:
            return f"norm {res['norm']!r}, expected {e['norm']!r}"
        return None
    if query.kind == "minimal":
        if code != 0:
            return f"exit {code}"
        return oracles.check_staircase(res["staircase"], e["box"], e["known"],
                                       e.get("staircase"))
    if query.kind == "spectrum":
        if e.get("holds") and (code != 0 or not res["isosymmetric"]["holds"]):
            return f"exit {code}: not isosymmetric at known vanishing orders"
        return oracles.check_spectrum(res["eigenpairs"], e["d"], e["dim"],
                                      e.get("mus"), e.get("multiplicity"))
    if query.kind == "construct":
        if code != 0:
            return f"exit {code}"
        mats = oracles.read_matrices(e["out"])
        if e.get("mats") is not None:
            want = e["mats"]
            if len(mats) != len(want) or not all(
                    np.array_equal(a, b) for a, b in zip(mats, want)):
                return "written tuple differs from the construction"
        else:
            if (len(mats), mats[0].shape[0]) != (e["d"], e["dim"]):
                return f"written tuple has d={len(mats)} dim={mats[0].shape[0]}"
            err = oracles.commutation_error(mats)
            if err is None and e.get("nilpotent_order"):
                err = oracles.nilpotency_error(mats, e["nilpotent_order"])
            return err
        return None
    raise ValueError(f"unknown query kind {query.kind!r}")


def call_cli(argv):
    """``cli.main(argv)`` with stdout/stderr captured; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


class QueryMix:
    """``cli.main`` queries over a seeded corpus of tuple files."""

    name = "query-mix"
    item = "queries"
    min_ops = 100   # so the p90 has at least ten samples beyond it

    def build(self, seed, workdir, sizes):
        rng = _rng(seed, 0x51)
        corpus = os.path.join(workdir, "corpus")
        outdir = os.path.join(workdir, "out")
        os.makedirs(corpus, exist_ok=True)
        os.makedirs(outdir, exist_ok=True)
        files = []
        for label, op, known, mus, mult in _families(rng, sizes):
            path = os.path.join(corpus, f"{label}.json")
            tupleio.write_tuple(path, op, {"name": label})
            files.append(TupleFile(label, path, list(op.matrices), known,
                                   mus, mult))
        for label, op in _generic(rng, sizes):
            path = os.path.join(corpus, f"{label}.json")
            tupleio.write_tuple(path, op, {"name": label})
            files.append(TupleFile(label, path, list(op.matrices), [],
                                   generic=True))
        queries = []
        for i, f in enumerate(files):
            queries.extend(_generic_queries(i, f, sizes) if f.generic
                           else _structured_queries(f))
        queries.extend(_construct_queries(files, outdir, rng))
        queries.extend(_invalid_queries(workdir, files[0].path))
        return {"seed": seed, "sizes": sizes, "workdir": workdir,
                "files": files, "queries": queries}

    def warm_up(self, state):
        seen = set()
        for q in state["queries"]:
            if q.kind not in seen:
                seen.add(q.kind)
                call_cli(q.argv)

    def run_pass(self, state, index):
        queries = state["queries"]
        order = _rng(state["seed"], 0x9A55, index).permutation(len(queries))
        ops = []
        for i in order:
            q = queries[i]
            t0 = time.perf_counter()
            code, out = call_cli(q.argv)
            ms = (time.perf_counter() - t0) * 1e3
            try:
                payload = json.loads(out) if out.strip() else None
                err = check_query(q, code, payload)
            except Exception as exc:  # a malformed report is a wrong answer
                err = f"{type(exc).__name__}: {exc}"
            ops.append(Op(q.label, ms, 1, int(err is not None),
                          [f"{q.label}: {err}"] if err else []))
        return ops

    def cold_argv(self, state):
        ref = state["files"][0]
        argv = ["check", ref.path, "--m", "1", "--n", "1"]

        def check(code, payload):
            ok = code == 0 and payload["results"]["isosymmetric"]["holds"]
            return None if ok else f"cold check: exit {code}"
        return argv, check


def with_expectation(state, label, **expect):
    """A copy of a query-mix state with one query's expectation replaced."""
    if label not in {q.label for q in state["queries"]}:
        raise KeyError(label)
    return dict(state, queries=[
        replace(q, expect=dict(q.expect, **expect)) if q.label == label else q
        for q in state["queries"]])


# ---------------------------------------------------------------------------
# large-tuple

def _random_op(rng, d, dim):
    return construct.random_commuting_tuple(d, dim, int(rng.integers(2 ** 62)))


def _diagonal_op(rng, d, dim, unitary):
    if unitary:
        v = np.exp(2j * np.pi * rng.uniform(size=(d, dim)))
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
    else:
        v = rng.uniform(-2.0, 2.0, size=(d, dim)).astype(np.complex128)
    return defect.MultiOperator(_conjugated_diagonal(v, rng)), v


def _large_cells(rng, sizes):
    """(label, callable, oracle) per evaluation, on freshly built tuples."""
    small, big = sizes.large_dims
    cells = []

    def report_cell(label, fn, op, args, zero=None):
        dim = op.dim
        cells.append((label, lambda: fn(op, *args),
                      lambda rep: oracles.report_error(rep, dim, zero)))

    report_cell("L_d3_small_6x6", defect.isosymmetry_defect,
                _random_op(rng, 3, small), (6, 6))
    report_cell("L_d4_small_6x6", defect.isosymmetry_defect,
                _random_op(rng, 4, small), (6, 6))
    report_cell("L_d3_big_6x6", defect.isosymmetry_defect,
                _random_op(rng, 3, big), (6, 6))
    report_cell("L_d4_big_6x6", defect.isosymmetry_defect,
                _random_op(rng, 4, big), (6, 6))
    report_cell("L_d4_big_4x4", defect.isosymmetry_defect,
                _random_op(rng, 4, big), (4, 4))
    report_cell("L_d4_big_2x3", defect.isosymmetry_defect,
                _random_op(rng, 4, big), (2, 3))
    report_cell("M_d4_big_6", defect.isometry_defect,
                _random_op(rng, 4, big), (6,))
    report_cell("S_d3_big_6", defect.symmetry_defect,
                _random_op(rng, 3, big), (6,))
    # sum_j R_j^* R_j = I for column-normalized unitary diagonals: M_1 = 0
    op, _ = _diagonal_op(rng, 3, big, unitary=True)
    report_cell("M_unitary_d3_big_1", defect.isometry_defect, op, (1,), True)
    op, _ = _diagonal_op(rng, 4, small, unitary=True)
    report_cell("L_unitary_d4_small_1x6", defect.isosymmetry_defect, op,
                (1, 6), True)
    # a Hermitian sum T gives S_n = (T^* - T)^n = 0
    op, _ = _diagonal_op(rng, 4, big, unitary=False)
    report_cell("S_hermitian_d4_big_3", defect.symmetry_defect, op, (3,), True)

    p = _random_op(rng, 2, small // 4)
    nil = construct.nilpotent_tuple(2, 4, 2, int(rng.integers(2 ** 62)))
    left, right = construct.tensor_sum_parts(p, nil)
    total = [a + b for a, b in zip(left.matrices, right.matrices)]
    pair = {}

    def direct():
        pair["direct"] = defect.isosymmetry_defect_matrix(
            defect.MultiOperator(total), 2, 2)
        return pair["direct"]

    def expansion():
        pair["expansion"] = defect.perturbation_expansion(left, right, 2, 2)
        return pair["expansion"]

    cells.append(("L_direct_tensor_2x2", direct, lambda out: None))
    cells.append(("expansion_tensor_2x2", expansion,
                  lambda out: oracles.identity_error(
                      pair["direct"], out, total, 2, 2)))

    op, v = _diagonal_op(rng, 3, big, unitary=True)
    cells.append(("jps_unitary_d3_big", lambda: spectra.joint_point_spectrum(op),
                  lambda pairs: _jps_error(pairs, 3, big, _columns(v))))
    gen = _random_op(rng, 2, big)
    cells.append(("jps_random_d2_big", lambda: spectra.joint_point_spectrum(gen),
                  lambda pairs: _jps_error(pairs, 2, big, None)))
    return cells


def _jps_error(pairs, d, dim, mus):
    emitted = [{"mu": [[z.real, z.imag] for z in p.mu],
                "multiplicity": p.basis.shape[1], "residual": p.residual}
               for p in pairs]
    return oracles.check_spectrum(emitted, d, dim, mus, multiplicity=True)


class LargeTuple:
    """Single defect and spectrum evaluations on large fresh tuples."""

    name = "large-tuple"
    item = "evals"
    min_ops = 1

    def build(self, seed, workdir, sizes):
        big = sizes.large_dims[1]
        path = os.path.join(workdir, "large.json")
        tupleio.write_tuple(path, _random_op(_rng(seed, 0xB16), 3, big))
        return {"seed": seed, "sizes": sizes, "workdir": workdir, "file": path}

    def warm_up(self, state):
        for _, fn, _ in _large_cells(_rng(state["seed"], 0x3A), state["sizes"]):
            fn()

    def run_pass(self, state, index):
        # fresh tuples every pass, so no evaluation repeats inside a run
        cells = _large_cells(_rng(state["seed"], 0x1A, index), state["sizes"])
        ops = []
        for label, fn, oracle in cells:
            t0 = time.perf_counter()
            try:
                out = fn()
                ms = (time.perf_counter() - t0) * 1e3
                err = oracle(out)
            except Exception as exc:
                ms = (time.perf_counter() - t0) * 1e3
                err = f"{type(exc).__name__}: {exc}"
            ops.append(Op(label, ms, 1, int(err is not None),
                          [f"{label}: {err}"] if err else []))
        return ops

    def cold_argv(self, state):
        argv = ["check", state["file"], "--m", "1", "--n", "1"]

        def check(code, payload):
            holds = payload["results"]["isosymmetric"]["holds"]
            return None if code == (0 if holds else 1) else f"cold check: exit {code}"
        return argv, check


WORKLOADS = {w.name: w for w in (VerifyContract(), QueryMix(), LargeTuple())}
