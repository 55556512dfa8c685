"""Command line surface: isosym check|defect|minimal|spectrum|construct|verify.

Exit codes: 0 success / property holds, 1 property fails, 2 invalid input
(parse or commutation failure, bad parameters, an output that cannot be
written), 3 numerical failure.
"""

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .classify import is_isosymmetric, is_m_isometric, is_n_symmetric, \
    minimal_orders, minimal_pairs, perturbed_orders
from .construct import (BETA_TOL, JordanAugmentSpec, ScaledTupleSpec,
                        jordan_augment, nilpotent_tuple,
                        random_commuting_tuple, reference_pair, scaled_tuple,
                        tensor_sum)
from .defect import TOL_COMM, DefectTable, isometry_defect, \
    isosymmetry_defect, nilpotency_order, symmetry_defect, zero_test_base
from .errors import (BetaNotNormalized, CommutationViolated,
                     ConvergenceFailure, CrossCommutationViolated, DMismatch,
                     FormsDisagree, HypothesisUnmet, InvalidParams,
                     InvariantViolation, InvarianceViolation, ParseError,
                     TooLarge)
from .harness import SUITE_NAMES, SuiteConfig, dump_counterexample, run_suite
from .linalg import TOL_RANK
from .spectra import (TOL_SPECTRA, joint_point_spectrum, spectral_checks,
                      spectral_tolerance)
from .tupleio import (dumps, load, matrix_to_json, read_tuple,
                      tuple_from_dict, write_tuple)

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (ParseError, CommutationViolated, CrossCommutationViolated,
                 FormsDisagree, InvalidParams, DMismatch, BetaNotNormalized,
                 TooLarge, InvariantViolation)


def _read_input(path):
    """The tuple in ``path`` and (path, SHA-256 of the bytes parsed)."""
    document, raw = load(path)
    return tuple_from_dict(document)[0], (path, hashlib.sha256(raw).hexdigest())


def _envelope(command, results, source=(None, None), op=None, extra_args=None,
              tol=None, tol_spectra=TOL_SPECTRA, tol_orthogonality=None):
    inputs = {"file": source[0], "sha256": source[1],
              "d": op.d if op is not None else None,
              "dim": op.dim if op is not None else None,
              "args": extra_args or {}}
    tolerances = {"tol": zero_test_base(tol), "tol_comm": TOL_COMM,
                  "tol_rank": TOL_RANK, "tol_spectra": tol_spectra}
    if tol_orthogonality is not None:
        tolerances["tol_orthogonality"] = tol_orthogonality
    return {"command": command, "tool_version": __version__,
            "inputs": inputs, "tolerances": tolerances, "results": results}


def _text_lines(value, indent=0):
    """A decoded JSON object or list as indented lines; each scalar is
    written as its JSON (``dumps`` without the closing newline)."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {dumps(item)[:-1]}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {dumps(item)[:-1]}")
    return lines


def _emit(payload, args):
    rendered = dumps(payload)
    if args.format == "text":  # the same document, rendered as lines
        rendered = "\n".join(_text_lines(json.loads(rendered))) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args):
    op, source = _read_input(args.file)
    table = DefectTable(op)  # L_{m,n} reuses M_m and S_n
    iso = is_m_isometric(table, args.m, args.tol)
    sym = is_n_symmetric(table, args.n, args.tol)
    isosym = is_isosymmetric(table, args.m, args.n, args.tol)
    results = {"commutation_residual": op.commutation_residual,
               "isometric": iso, "symmetric": sym, "isosymmetric": isosym}
    _emit(_envelope("check", results, source, op,
                    {"m": args.m, "n": args.n}, args.tol), args)
    return EXIT_OK if isosym.holds else EXIT_PROPERTY_FAILS


def _cmd_defect(args):
    wanted = ["m", "n"] if args.kind == "Lambda" else ["l"]
    if [o for o in ("l", "m", "n") if getattr(args, o) is not None] != wanted:
        raise InvalidParams(f"--kind {args.kind} takes exactly "
                            + " and ".join(f"--{o}" for o in wanted))
    op, source = _read_input(args.file)
    read = {"S": symmetry_defect, "M": isometry_defect,
            "Lambda": isosymmetry_defect}[args.kind]
    report = read(op, *(getattr(args, o) for o in wanted), args.tol)
    results = {"kind": report.kind, "orders": list(report.orders),
               "norm": report.norm, "tolerance": report.tolerance_used,
               "is_zero": report.is_zero, "gap": report.gap,
               "margin": report.margin, "matrix": matrix_to_json(report.matrix)}
    _emit(_envelope("defect", results, source, op,
                    {"kind": args.kind, "l": args.l, "m": args.m, "n": args.n},
                    args.tol), args)
    return EXIT_OK


def _cmd_minimal(args):
    op, source = _read_input(args.file)
    found = minimal_orders(op, args.m_max, args.n_max, args.tol)
    _emit(_envelope("minimal", found, source, op,
                    {"m_max": args.m_max, "n_max": args.n_max}, args.tol), args)
    return EXIT_OK


def _cmd_spectrum(args):
    op, source = _read_input(args.file)
    if (args.m is None) != (args.n is None):
        raise InvalidParams("give both --m and --n, or neither")
    if args.m is None:
        checks = None
        tol = spectral_tolerance(args.tol)
        pairs = joint_point_spectrum(op, tol)
    else:
        checks = spectral_checks(op, args.m, args.n, args.tol)
        tol, pairs = checks.tol_spectra, checks.pairs
    results = {"eigenpairs": [
        {"mu": p.mu, "multiplicity": int(p.basis.shape[1]),
         "residual": p.residual} for p in pairs]}
    exit_code = EXIT_OK
    if checks is not None:
        results["isosymmetric"] = checks.verdict
        if checks.verdict.holds:
            results["classifications"] = checks.classifications
            results["orthogonality"] = checks.orthogonality
            results["zero_coordinate"] = checks.zero_coordinate
        else:
            exit_code = EXIT_PROPERTY_FAILS
    _emit(_envelope("spectrum", results, source, op,
                    {"m": args.m, "n": args.n}, tol_spectra=tol,
                    tol_orthogonality=None if checks is None
                    else checks.tol_orthogonality), args)
    return exit_code


def _parse_numbers(raw, parse):
    """The comma separated parts of ``raw``, each read by ``parse``, if
    every one is a finite number, else InvalidParams."""
    try:
        values = tuple(parse(part) for part in raw.split(","))
    except ValueError:
        raise InvalidParams(f"not a list of numbers: {raw!r}") from None
    if not np.isfinite(values).all():
        raise InvalidParams(f"not a list of finite numbers: {raw!r}")
    return values


def _cmd_construct(args):
    seed = getattr(args, "seed", None)  # nilpotent and random only
    if seed is not None and seed < 0:
        raise InvalidParams(f"--seed must be >= 0, got {seed}")
    kind = args.kind
    predicted = []
    if kind == "example22":
        op = reference_pair()
        predicted = [(1, 1)]
        params = {}
    elif kind == "scaled":
        base_op, _ = read_tuple(args.base)
        if base_op.d != 1:
            raise InvalidParams("--base must hold a single matrix (d=1)")
        beta = _parse_numbers(args.beta, float)
        op = scaled_tuple(ScaledTupleSpec(base=base_op.matrices[0], beta=beta))
        predicted = minimal_orders(base_op, 3, 3).staircase
        if abs(sum(beta)) <= BETA_TOL:  # S_1 of the scaled tuple vanishes
            predicted = minimal_pairs(predicted + [(0, 1)])
        params = {"beta": list(beta)}
    elif kind == "jordan":
        base_op, _ = read_tuple(args.base)
        mu = _parse_numbers(args.mu, lambda z: complex(z.replace(" ", "")))
        op = jordan_augment(JordanAugmentSpec(base_tuple=base_op, mu=mu,
                                              q=args.q))
        predicted = perturbed_orders(
            minimal_orders(base_op, 3, 3).staircase, args.q)
        params = {"mu": mu, "q": args.q}
    elif kind == "tensor":
        left, _ = read_tuple(args.left)
        right, _ = read_tuple(args.right)
        op = tensor_sum(left, right)
        q = nilpotency_order(right)
        predicted = (perturbed_orders(minimal_orders(left, 3, 3).staircase, q)
                     if q else [])
        params = {"left": args.left, "right": args.right}
    elif kind == "nilpotent":
        op = nilpotent_tuple(args.d, args.dim, args.order, seed)
        predicted = [(0, 2 * args.order - 1)]
        params = {"d": args.d, "dim": args.dim, "order": args.order,
                  "seed": seed}
    else:  # random, the last of the kinds the parser accepts
        op = random_commuting_tuple(args.d, args.dim, seed)
        params = {"d": args.d, "dim": args.dim, "seed": seed}
    predicted = [list(p) for p in predicted] or None
    metadata = {"construction": dict(params, kind=kind,
                                     predicted_orders=predicted)}
    if args.name:
        metadata["name"] = args.name
    if seed is not None:
        metadata["seed"] = seed
    write_tuple(args.out, op, metadata)
    results = {"kind": kind, "out": args.out, "d": op.d, "dim": op.dim,
               "predicted_orders": predicted}
    args.out = None  # the report goes to stdout
    _emit(_envelope("construct", results, op=op,
                    extra_args={"kind": kind}), args)
    return EXIT_OK


def _cmd_verify(args):
    cfg = SuiteConfig(suite=args.suite, trials=args.trials, seed=args.seed,
                      tol=zero_test_base(args.tol))
    report = run_suite(cfg)
    _emit(report, args)
    if report.counterexamples:
        os.makedirs(args.counterexample_dir, exist_ok=True)
        for ce in report.counterexamples:
            path = os.path.join(args.counterexample_dir,
                                f"{cfg.suite}_trial{ce['trial']}.json")
            dump_counterexample(ce, path)
            print(f"counterexample written: {path}", file=sys.stderr)
    return EXIT_OK if report.trials_passed == report.trials_run \
        else EXIT_PROPERTY_FAILS


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser():
    """The argument parser, built on the first ``main`` call of a process.

    Building it costs far more than parsing one command line, so every
    later call reuses it; ``parse_args`` returns a fresh namespace each
    time, so no state passes from one call to the next.
    """
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output here")
    output.add_argument("--format", choices=("json", "text"), default="json")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--tol", type=float, default=None,
                        help="zero-test base; in spectrum, spectral tolerance")

    parser = argparse.ArgumentParser(
        prog="isosym",
        description="Defect operators and spectra of commuting matrix tuples")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="class membership verdicts for one tuple")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("defect", parents=[common],
                       help="compute one defect operator")
    p.add_argument("file")
    p.add_argument("--kind", choices=("S", "M", "Lambda"), required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("minimal", parents=[common],
                       help="minimal vanishing orders inside a box")
    p.add_argument("file")
    p.add_argument("--m-max", type=int, default=6, dest="m_max")
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("spectrum", parents=[common],
                       help="joint point spectrum and spectral checks")
    p.add_argument("file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("construct",
                       help="build a tuple file from a named family")
    p.set_defaults(func=_cmd_construct)
    kinds = p.add_subparsers(dest="kind", required=True)
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", required=True, help="tuple file to write")
    written.add_argument("--format", choices=("json", "text"), default="json")
    written.add_argument("--name", default=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[written])
    seeded.add_argument("--d", type=int, required=True)
    seeded.add_argument("--dim", type=int, required=True)
    seeded.add_argument("--seed", type=int, default=0)
    kinds.add_parser("example22", parents=[written])
    k = kinds.add_parser("scaled", parents=[written])
    k.add_argument("--base", required=True, help="tuple file with d = 1")
    k.add_argument("--beta", required=True, help="comma separated weights")
    k = kinds.add_parser("jordan", parents=[written])
    k.add_argument("--base", required=True, help="tuple file")
    k.add_argument("--mu", required=True, help="comma separated complex values")
    k.add_argument("--q", type=int, required=True)
    k = kinds.add_parser("tensor", parents=[written])
    k.add_argument("--left", required=True, help="tuple file")
    k.add_argument("--right", required=True, help="tuple file")
    k = kinds.add_parser("nilpotent", parents=[seeded])
    k.add_argument("--order", type=int, required=True)
    kinds.add_parser("random", parents=[seeded])

    p = sub.add_parser("verify", parents=[common],
                       help="run a randomized verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counterexample-dir", default="counterexamples")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ConvergenceFailure, InvarianceViolation, HypothesisUnmet) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
