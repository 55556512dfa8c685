#!/usr/bin/env python3
"""Run one isosym benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run sets up, then runs whole
closed-loop passes of the workload for at least ``--seconds`` and
reports the end-to-end metrics; set-ups and cold starts in fresh
processes run between the passes.  With ``--trace 1`` it runs one fixed
pass untraced and the same pass traced twice (``--seconds`` is not
used), reports the per-layer metrics of the first traced pass and checks
that every count repeats exactly in the second.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a run summary go to
``.perfbench-out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("verify-contract", "query-mix", "large-tuple")
SUBPROCESS_TIMEOUT = 120

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("p50_ms", "ms"),
              ("p90_ms", "ms"), ("cold_ms", "ms"), ("peak_rss_mb", "MB"))


def _scrubbed_env():
    """This process's environment without ISOSYM_* and with src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ISOSYM_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(argv, cwd):
    """Run a fresh Python process to completion; (exit code, stdout, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, env=_scrubbed_env(),
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def provenance(seed, isosym_env):
    import numpy as np

    try:
        from isosym import kernels
        backend = getattr(kernels.active, "NAME", None)
    except (ImportError, AttributeError):
        backend = None
    config = np.show_config(mode="dicts")["Build Dependencies"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "seed": seed, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: config["blas"].get(k) for k in
                 ("name", "version", "openblas configuration")},
        "lapack": {k: config["lapack"].get(k) for k in ("name", "version")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "git_sha": sha,
        "kernels": backend,
        "isosym_env_unset": isosym_env,
    }


def setup(workload, seed, size, workdir):
    """Build the workload's inputs and warm up; (state, sizes, seconds).

    Timed from before the first import of isosym in this process, so it
    counts imports, input generation, file writes and the warm-up (BLAS
    start-up included).
    """
    t0 = time.perf_counter()
    from perfbench import workloads
    sizes = workloads.TINY if size == "tiny" else workloads.FULL
    state = workloads.WORKLOADS[workload].build(seed, str(workdir), sizes)
    workloads.WORKLOADS[workload].warm_up(state)
    return state, sizes, time.perf_counter() - t0


def _errors(ops):
    return [e for op in ops for e in op.errors]


def measure(workload, state, seconds, probes):
    """Whole passes until ``seconds`` of pass time and ``min_ops`` ran;
    (ops, seconds of each pass).

    Timing noise on a shared machine comes in bursts of seconds, so the
    fresh-process ``probes`` run between passes, spread evenly over the
    run, rather than back to back.
    """
    ops, passes, done = [], [], 0
    while True:
        while done < len(probes) and sum(passes) >= seconds * done / len(probes):
            probes[done]()
            done += 1
        start = time.perf_counter()
        ops.extend(workload.run_pass(state, len(passes)))
        passes.append(time.perf_counter() - start)
        if sum(passes) >= seconds and len(ops) >= workload.min_ops:
            for probe in probes[done:]:
                probe()
            return ops, passes


class FreshProcesses:
    """Samples taken in fresh processes: cold ``isosym`` runs and set-ups."""

    ENTRY = "import sys; from isosym.cli import main; sys.exit(main())"

    def __init__(self, args, workload, state, workdir):
        self.args = args
        self.workdir = workdir
        self.cold_argv, self.cold_check = workload.cold_argv(state)
        self.cold_ms, self.setup_s, self.errors = [], [], []

    def cold(self):
        """One fresh process running the workload's cold command."""
        code, out, secs = _run_child(["-c", self.ENTRY] + self.cold_argv,
                                     str(self.workdir))
        self.cold_ms.append(secs * 1e3)
        try:
            err = self.cold_check(code, json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            err = f"cold run: exit {code}, unreadable report ({exc})"
        if err:
            self.errors.append(err)

    def setup(self):
        """One fresh process that sets the workload up and reports the time."""
        workdir = OUT_DIR / "work" / f"setup-{os.getpid()}-{len(self.setup_s)}"
        try:
            code, out, _ = _run_child(
                [str(ROOT / "perfbench" / "run.py"),
                 "--workload", self.args.workload, "--seed", str(self.args.seed),
                 "--size", self.args.size, "--setup-only", str(workdir)],
                str(ROOT))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}")
        self.setup_s.append(json.loads(out.strip().splitlines()[-1])["setup_s"])


def run_untraced(args, workload, state, setup_s, sizes, workdir):
    fresh = FreshProcesses(args, workload, state, workdir)
    fresh.setup_s.append(setup_s)
    probes = [fresh.cold] * sizes.cold_runs
    for i in range(sizes.setup_runs - 1):
        probes.insert(2 * i + 1, fresh.setup)
    ops, passes = measure(workload, state, args.seconds, probes)
    # every pass runs the same operations; the median of each over the
    # passes keeps a burst of machine noise out of the throughput
    per_op = {}
    for op in ops:
        per_op.setdefault(op.label, []).append(op)
    typical_s = sum(statistics.median(o.ms for o in same)
                    for same in per_op.values()) / 1e3
    latencies = [op.ms for op in ops]
    metrics = {
        "setup_s": statistics.median(fresh.setup_s),
        "items_per_s": sum(same[0].items for same in per_op.values())
        / typical_s,
        "p50_ms": quantile(latencies, 0.5),
        "p90_ms": quantile(latencies, 0.9),
        "cold_ms": statistics.median(fresh.cold_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(op.items for op in ops) + len(fresh.cold_ms)
    failed = sum(op.failed for op in ops) + len(fresh.errors)
    info = {"passes": len(passes), "pass_s": passes,
            "latency_samples": len(latencies), "items": workload.item,
            "cold_ms_all": fresh.cold_ms, "setup_s_all": fresh.setup_s,
            "error_rate": failed / attempted,
            "median_ms_by_op": {k: statistics.median(o.ms for o in v)
                                for k, v in sorted(per_op.items())}}
    return metrics, attempted, failed, _errors(ops) + fresh.errors, info


def run_traced(args, workload, sizes, workdir):
    """One pass untraced, then the same build and pass traced twice."""
    from perfbench import tracing

    def one_pass():
        fresh = workload.build(args.seed, str(workdir), sizes)
        return workload.run_pass(fresh, 0)

    t0 = time.perf_counter()
    ops = one_pass()
    plain_s = time.perf_counter() - t0
    results = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer) as inst:
            t0 = time.perf_counter()
            traced_ops = one_pass()
            traced_s = time.perf_counter() - t0
        results.append((tracer, inst.absent, traced_ops, traced_s))
    (tracer, absent, ops1, traced_s), (tracer2, absent2, ops2, _) = results
    metrics = tracing.layer_metrics(tracer, absent)
    metrics["trace_overhead"] = traced_s / plain_s
    again = tracing.layer_metrics(tracer2, absent2)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    mismatches = {k: [metrics[k], again.get(k)] for k in metrics
                  if units[k] in tracing.COUNT_UNITS and metrics[k] != again.get(k)}
    import_ms = []
    for _ in range(sizes.import_runs):
        code, out, _ = _run_child(
            ["-c", "import time; t = time.perf_counter(); import isosym.cli; "
                   "print((time.perf_counter() - t) * 1e3)"], str(workdir))
        if code != 0:
            raise RuntimeError(f"import probe exited {code}")
        import_ms.append(float(out))
    if "cli" not in absent:
        metrics["cli.import_ms"] = statistics.median(import_ms)
    trace_file = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json.gz"
    tracer.save(trace_file)
    all_ops = ops + ops1 + ops2
    attempted = sum(op.items for op in all_ops)
    failed = sum(op.failed for op in all_ops)
    info = {"spans": len(tracer), "absent_layers": absent,
            "count_mismatches": mismatches, "trace_file": str(trace_file),
            "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
            "error_rate": failed / attempted}
    return metrics, attempted, failed, _errors(all_ops), info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke tests")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "isosym" / "__init__.py").is_file():
        print(f"error: no isosym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    isosym_env = {k: v for k, v in os.environ.items() if k.startswith("ISOSYM_")}
    for key in isosym_env:  # measure the default program
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    if args.setup_only:
        os.makedirs(args.setup_only, exist_ok=True)
        _, _, secs = setup(args.workload, args.seed, args.size, args.setup_only)
        print(json.dumps({"setup_s": secs}))
        return 0

    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state, sizes, setup_s = setup(args.workload, args.seed, args.size,
                                      workdir)
        from perfbench.workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        if args.trace:
            from perfbench.tracing import PER_LAYER
            metrics, attempted, failed, errors, info = run_traced(
                args, workload, sizes, workdir)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, attempted, failed, errors, info = run_untraced(
                args, workload, state, setup_s, sizes, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["provenance"] = provenance(args.seed, isosym_env)
    summary = OUT_DIR / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    summary.write_text(json.dumps(dict(info, metrics=metrics, errors=errors),
                                  indent=1, default=str))
    for err in errors[:20]:
        print(f"wrong answer: {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} " + " ".join(
        f"{k}={v}" for k, v in info.items() if k in (
            "passes", "latency_samples", "items", "cold_ms_all", "setup_s_all",
            "error_rate", "spans", "absent_layers", "count_mismatches",
            "untraced_pass_s", "traced_pass_s")))
    print(f"# provenance {json.dumps(info['provenance'])}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0



if __name__ == "__main__":
    sys.exit(main())
