"""Command line surface: isosym check|defect|minimal|spectrum|construct|verify.

Exit codes: 0 success / property holds, 1 property fails, 2 invalid input
(parse or commutation failure, bad parameters), 3 numerical failure.
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
    minimal_orders
from .construct import (JordanAugmentSpec, ScaledTupleSpec, jordan_augment,
                        nilpotent_tuple, random_commuting_tuple,
                        reference_pair, scaled_tuple, tensor_sum)
from .defect import TOL_COMM, TOL_ZERO, DefectTable, MultiOperator, \
    isometry_defect, isosymmetry_defect, nilpotency_residual, symmetry_defect
from .errors import (BetaNotNormalized, CommutationViolated,
                     ConvergenceFailure, CrossCommutationViolated, DMismatch,
                     FormsDisagree, HypothesisUnmet, InvalidParams,
                     InvariantViolation, InvarianceViolation, ParseError,
                     TooLarge)
from .harness import SUITE_NAMES, SuiteConfig, dump_counterexample, run_suite
from .linalg import TOL_RANK
from .spectra import (TOL_SPECTRA, SpectralTable, check_orthogonality,
                      check_zero_coordinate_exclusion, classify_spectrum)
from .tupleio import matrix_to_json, read_tuple, write_tuple

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (ParseError, CommutationViolated, CrossCommutationViolated,
                 FormsDisagree, InvalidParams, DMismatch, BetaNotNormalized,
                 TooLarge, InvariantViolation)


def _complex_json(z):
    return [float(z.real), float(z.imag)]


def _verdict_json(v):
    return {"property": v.property, "orders": list(v.orders),
            "holds": bool(v.holds), "defect_norm": float(v.defect_norm),
            "tolerance": float(v.tolerance)}


def _digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        sha.update(fh.read())
    return sha.hexdigest()


def _envelope(command, args, results, file_path=None, op=None, extra_args=None):
    inputs = {"file": file_path,
              "sha256": _digest(file_path) if file_path else None,
              "d": op.d if op is not None else None,
              "dim": op.dim if op is not None else None,
              "args": extra_args or {}}
    tolerances = {"tol": args.tol if args.tol is not None else TOL_ZERO,
                  "tol_comm": TOL_COMM, "tol_rank": TOL_RANK,
                  "tol_spectra": TOL_SPECTRA}
    return {"command": command, "tool_version": __version__,
            "inputs": inputs, "tolerances": tolerances, "results": results}


def _text_lines(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(payload, args):
    if args.format == "text":
        rendered = "\n".join(_text_lines(payload)) + "\n"
    else:
        rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args):
    op, _ = read_tuple(args.file)
    table = DefectTable(op)  # L_{m,n} reuses M_m and S_n
    iso = is_m_isometric(op, args.m, args.tol, table)
    sym = is_n_symmetric(op, args.n, args.tol, table)
    isosym = is_isosymmetric(op, args.m, args.n, args.tol, table)
    results = {"commutation_residual": op.commutation_residual,
               "isometric": _verdict_json(iso),
               "symmetric": _verdict_json(sym),
               "isosymmetric": _verdict_json(isosym)}
    _emit(_envelope("check", args, results, args.file, op,
                    {"m": args.m, "n": args.n}), args)
    return EXIT_OK if isosym.holds else EXIT_PROPERTY_FAILS


def _cmd_defect(args):
    op, _ = read_tuple(args.file)
    if args.kind in ("S", "M"):
        if args.l is None:
            raise InvalidParams(f"--kind {args.kind} requires --l")
        report = (symmetry_defect if args.kind == "S" else isometry_defect)(
            op, args.l, args.tol)
    else:
        if args.m is None or args.n is None:
            raise InvalidParams("--kind Lambda requires --m and --n")
        report = isosymmetry_defect(op, args.m, args.n, args.tol)
    results = {"kind": report.kind, "orders": list(report.orders),
               "norm": report.norm, "tolerance": report.tolerance_used,
               "is_zero": report.is_zero,
               "matrix": matrix_to_json(report.matrix)}
    _emit(_envelope("defect", args, results, args.file, op,
                    {"kind": args.kind, "l": args.l, "m": args.m, "n": args.n}),
          args)
    return EXIT_OK


def _cmd_minimal(args):
    op, _ = read_tuple(args.file)
    found = minimal_orders(op, args.m_max, args.n_max, args.tol)
    results = {"staircase": [list(p) for p in found.staircase],
               "search_bounds": list(found.search_bounds),
               "exhausted": found.exhausted}
    _emit(_envelope("minimal", args, results, args.file, op,
                    {"m_max": args.m_max, "n_max": args.n_max}), args)
    return EXIT_OK


def _cmd_spectrum(args):
    op, _ = read_tuple(args.file)
    if (args.m is None) != (args.n is None):
        raise InvalidParams("give both --m and --n, or neither")
    tol = max(args.tol if args.tol is not None else TOL_SPECTRA, TOL_SPECTRA)
    table = SpectralTable(op)
    pairs = table.spectrum(tol)
    results = {"eigenpairs": [
        {"mu": [_complex_json(z) for z in p.mu],
         "multiplicity": int(p.basis.shape[1]),
         "residual": p.residual} for p in pairs]}
    exit_code = EXIT_OK
    if args.m is not None:
        verdict = table.isosymmetric(args.m, args.n)
        results["isosymmetric"] = _verdict_json(verdict)
        if verdict.holds:
            results["classifications"] = [
                {"mu": [_complex_json(z) for z in c.mu],
                 "on_sphere": c.on_sphere, "real_sum": c.real_sum,
                 "compliant": c.compliant}
                for c in classify_spectrum(op, args.m, args.n, tol, table)]
            results["orthogonality"] = [
                {"mu": [_complex_json(z) for z in o.mu],
                 "mu_prime": [_complex_json(z) for z in o.mu_prime],
                 "gram_norm": o.gram_norm,
                 "required_orthogonal": o.required_orthogonal,
                 "compliant": o.compliant,
                 "gate_product": o.gate_product, "gate_sum": o.gate_sum}
                for o in check_orthogonality(op, args.m, args.n, table=table)]
            zc = check_zero_coordinate_exclusion(op, args.m, args.n, tol, table)
            results["zero_coordinate"] = {
                "consistent": zc.consistent,
                "entries": [
                    {"mu": [_complex_json(z) for z in e.mu],
                     "product_modulus": e.product_modulus,
                     "coordinate_sum": _complex_json(e.coordinate_sum),
                     "adjoint_sum_distance": e.adjoint_sum_distance,
                     "consistent": e.consistent} for e in zc.entries]}
        else:
            exit_code = EXIT_PROPERTY_FAILS
    _emit(_envelope("spectrum", args, results, args.file, op,
                    {"m": args.m, "n": args.n}), args)
    return exit_code


def _parse_floats(raw):
    return tuple(float(part) for part in raw.split(","))


def _parse_complexes(raw):
    return tuple(complex(part.replace(" ", "")) for part in raw.split(","))


def _clamped_predictions(base, q, bounds=3):
    """Theorem arithmetic from the base's minimal vanishing orders.

    Each minimal pair is clamped up to (>=1, >=1) first (raising orders
    preserves vanishing), then shifted by the nilpotent order.
    """
    found = minimal_orders(base, bounds, bounds).staircase
    preds = sorted({(max(m, 1) + 2 * q - 2, max(n, 1) + 2 * q - 1)
                    for m, n in found})
    return [list(p) for p in preds] or None


def _nilpotency_order(r):
    """The smallest q with every product of q components numerically 0.

    Scale-free: each component is divided by its spectral norm, and the
    products of order q count as 0 once the largest is below 1e-12 times
    the largest of order q - 1 (the identity for q = 1).  That is well
    above the rounding one more multiplication leaves on a zero product,
    and below the ratio 1/condition number that any invertible component
    keeps up, so a tuple with a component of condition number under 1e12
    is never called nilpotent.  None if no q <= dim qualifies.
    """
    # r passed its commutation check at its own scale on reading
    unit = MultiOperator([m / (np.linalg.norm(m, 2) or 1.0)
                          for m in r.matrices], tol_comm=np.inf)
    previous = np.sqrt(r.dim)
    for k in range(1, r.dim + 1):
        residual = nilpotency_residual(unit, k)
        if residual <= 1e-12 * previous:
            return k
        previous = residual
    return None


def _cmd_construct(args):
    if not args.out:
        raise InvalidParams("construct requires --out")
    kind = args.kind
    predicted = None
    if kind == "example22":
        op = reference_pair()
        predicted = [[1, 1]]
        params = {}
    elif kind == "scaled":
        if not args.base or not args.beta:
            raise InvalidParams("scaled requires --base and --beta")
        base_op, _ = read_tuple(args.base)
        if base_op.d != 1:
            raise InvalidParams("--base must hold a single matrix (d=1)")
        beta = _parse_floats(args.beta)
        op = scaled_tuple(ScaledTupleSpec(base=base_op.matrices[0], beta=beta))
        predicted = [list(p) for p in
                     minimal_orders(base_op, 3, 3).staircase] or None
        if abs(sum(beta)) <= 1e-12:
            predicted = sorted({tuple(p) for p in (predicted or [])} | {(0, 1)})
            predicted = [list(p) for p in predicted]
        params = {"beta": list(beta)}
    elif kind == "jordan":
        if not args.base or not args.mu or args.q is None:
            raise InvalidParams("jordan requires --base, --mu and --q")
        base_op, _ = read_tuple(args.base)
        mu = _parse_complexes(args.mu)
        op = jordan_augment(JordanAugmentSpec(base_tuple=base_op, mu=mu,
                                              q=args.q))
        predicted = _clamped_predictions(base_op, args.q)
        params = {"mu": [_complex_json(z) for z in mu], "q": args.q}
    elif kind == "tensor":
        if not args.left or not args.right:
            raise InvalidParams("tensor requires --left and --right")
        left, _ = read_tuple(args.left)
        right, _ = read_tuple(args.right)
        op = tensor_sum(left, right)
        q = _nilpotency_order(right)
        predicted = _clamped_predictions(left, q) if q else None
        params = {"left": args.left, "right": args.right}
    elif kind == "nilpotent":
        if args.d is None or args.dim is None or args.order is None:
            raise InvalidParams("nilpotent requires --d, --dim and --order")
        op = nilpotent_tuple(args.d, args.dim, args.order, args.seed)
        predicted = [[0, 2 * args.order]]
        params = {"d": args.d, "dim": args.dim, "order": args.order,
                  "seed": args.seed}
    elif kind == "random":
        if args.d is None or args.dim is None:
            raise InvalidParams("random requires --d and --dim")
        op = random_commuting_tuple(args.d, args.dim, args.seed)
        params = {"d": args.d, "dim": args.dim, "seed": args.seed}
    else:
        raise InvalidParams(f"unknown construction kind {kind!r}")
    metadata = {"construction": dict(params, kind=kind,
                                     predicted_orders=predicted)}
    if args.name:
        metadata["name"] = args.name
    if args.seed is not None and kind in ("nilpotent", "random"):
        metadata["seed"] = args.seed
    write_tuple(args.out, op, metadata)
    results = {"kind": kind, "out": args.out, "d": op.d, "dim": op.dim,
               "predicted_orders": predicted}
    out_path, args.out = args.out, None  # report goes to stdout
    _emit(_envelope("construct", args, results, None, op,
                    {"kind": kind}), args)
    args.out = out_path
    return EXIT_OK


def _cmd_verify(args):
    cfg = SuiteConfig(suite=args.suite, trials=args.trials, seed=args.seed,
                      d_max=args.d_max, dim_max=args.dim_max,
                      m_max=args.m_max, n_max=args.n_max,
                      tol=args.tol if args.tol is not None else TOL_ZERO)
    report = run_suite(cfg)
    payload = report.to_dict()
    _emit(payload, args)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="base tolerance (default: module defaults)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write output here")
    common.add_argument("--format", choices=("json", "text"), default="json")

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

    p = sub.add_parser("construct", parents=[common],
                       help="build a tuple file from a named family")
    p.add_argument("kind", choices=("scaled", "jordan", "tensor",
                                    "nilpotent", "random", "example22"))
    p.add_argument("--base", default=None, help="tuple file (scaled, jordan)")
    p.add_argument("--beta", default=None, help="comma separated weights")
    p.add_argument("--mu", default=None, help="comma separated complex values")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--left", default=None, help="tuple file (tensor)")
    p.add_argument("--right", default=None, help="tuple file (tensor)")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=[common],
                       help="run a randomized verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--d-max", type=int, default=3, dest="d_max")
    p.add_argument("--dim-max", type=int, default=8, dest="dim_max")
    p.add_argument("--m-max", type=int, default=3, dest="m_max")
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
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
    except (ConvergenceFailure, InvarianceViolation, HypothesisUnmet) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
