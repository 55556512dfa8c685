"""Seeded verification suites for the defect identities and theorems.

Every suite draws deterministic instances from (seed, trial index) and
compares two independent evaluations: a definition against a recurrence,
a direct defect against an expansion, or a construction's promise against
the defect verdict.  Each trial is one draw and one evaluation; a failing
one becomes a counterexample payload holding the drawn instance and the
residual the trial counted, which can be dumped to JSON and replayed to
that residual.

Identity suites report the normalized residual ||lhs - rhs|| divided by
the defect zero-test scale at tol = 1, ``zero_tolerance(r, m, n, 1.0)``;
verdict suites report 0.0 on a clean pass and the worst violation
magnitude otherwise.  A trial passes iff its residual is <= the
configured tolerance.  The three theorem suites (perturbation, jordan,
tensor) judge the hypotheses of the perturbation theorem by one rule,
``classify.perturbation_hypothesis``; a draw that misses one reads 1.0.
"""

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classify import defect_family_rank, minimal_orders, \
    perturbation_hypothesis, perturbed_orders
from .construct import (JordanAugmentSpec, ScaledTupleSpec, identity_tuple,
                        jordan_augment_parts, nilpotent_tuple, reference_pair,
                        random_commuting_tuple, scaled_tuple,
                        tensor_sum_parts)
from .defect import (TOL_ZERO, DefectTable, MultiOperator,
                     isosymmetry_defect_matrix, perturbation_expansion,
                     raise_isometry_order, raise_symmetry_order,
                     zero_tolerance)
from .errors import HypothesisUnmet, InvalidParams, IsosymError, ParseError
from .linalg import checked_count, checked_tolerance, fro_norm, kron
from .spectra import spectral_checks
from .tupleio import dumps, load, tuple_from_dict, tuple_to_dict

#: bounds of every suite's draws: tuple components d, dimension, orders m, n
D_MAX, DIM_MAX, M_MAX, N_MAX = 3, 8, 3, 3


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of one suite run."""

    suite: str
    trials: int = 200
    seed: int = 0
    tol: float = TOL_ZERO

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise InvalidParams(f"unknown suite {self.suite!r}")
        for name, low in (("trials", 1), ("seed", 0)):  # kept as ints: JSON
            value = checked_count(name, getattr(self, name), low)
            object.__setattr__(self, name, value)
        checked_tolerance(self.tol)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of a suite run; a residual whose evaluation raised is None."""

    suite: str
    trials_run: int
    trials_passed: int
    worst_residual: float | None
    counterexamples: list
    config: SuiteConfig
    tool_version: str = field(default=__version__, init=False)


def _trial_rng(cfg, idx):
    return np.random.default_rng([cfg.seed, idx])


def _child_seed(rng):
    return int(rng.integers(0, 2 ** 63))


def _normalized(diff, r, m, n):
    """||diff|| over the zero-test scale, at tol = 1, of an (m, n) defect of r."""
    return fro_norm(diff) / zero_tolerance(r, m, n, 1.0)


def _dims(rng):
    return int(rng.integers(1, D_MAX + 1)), int(rng.integers(2, DIM_MAX + 1))


# ---------------------------------------------------------------------------
# structured instances with known vanishing orders

def _maybe_conjugated(r, rng):
    """r, or with probability 1/2 r conjugated by a random unitary."""
    if not rng.integers(2):
        return r
    dim = r.dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    return MultiOperator(u @ r.stack @ u.conj().T)


def _unimodular_jordan(rng, away_from_real=False):
    """2x2 Jordan block with a unimodular eigenvalue."""
    theta = float(rng.uniform(0.4, np.pi - 0.4))
    if rng.integers(2):
        theta = -theta
    if not away_from_real and rng.integers(2):
        theta = 0.0  # the real case is legal here, just not for ranks
    lam = np.exp(1j * theta)
    return np.array([[lam, 1.0], [0.0, lam]], dtype=np.complex128)


def _positive_beta(d, rng):
    b = np.abs(rng.standard_normal(d)) + 0.1
    return tuple(b / np.linalg.norm(b))


#: the structured families; all but the last vanish at (1, 1)
_KINDS = ("reference", "diag_unitary", "diag_hermitian", "scaled_jordan")

#: the points of the spectral suite's "gated" tuples: on the orthogonality
#: gate sum_j (mu_j - conj(mu'_j)) = 0, or on sum_j mu_j conj(mu'_j) = 1
_GATED_POINTS = (((1, 0), (0, 1)), ((1, 0), (1, 5)))


def _structured(kind, d, dim, rng):
    """(tuple, vanishing orders, joint spectrum or None) of one family.

    The spectrum, when given, lists each joint eigenvalue once per
    multiplicity as d [re, im] pairs.
    """
    if kind == "reference":
        return reference_pair(), (1, 1), [[[0.0, 0.0], [1.0, 0.0]]] * 2
    if kind == "scaled_jordan":
        base = _unimodular_jordan(rng)
        r = scaled_tuple(ScaledTupleSpec(base=base, beta=_positive_beta(d, rng)))
        return r, (3, 1), None
    if kind == "diag_unitary":  # columnwise-normalized: sum_j R_j* R_j = I
        z = np.exp(2j * np.pi * rng.uniform(size=(d, dim)))
        points = (z / np.linalg.norm(z, axis=0, keepdims=True)).T
    elif kind == "diag_hermitian":
        points = rng.uniform(-2.0, 2.0, size=(d, dim)).T.astype(np.complex128)
    else:  # "gated": its eigenspaces need not be orthogonal
        points = np.array(_GATED_POINTS[int(rng.integers(2))], dtype=complex)
    diag = MultiOperator([np.diag(column) for column in points.T])
    mu = [[[z.real, z.imag] for z in point] for point in points]
    if kind == "gated":  # P diag(mu_j) P^-1, P = I + N: Gram norm 0.514
        shear = np.array([[0.0, 0.6], [0.0, 0.0]])  # N, N^2 = 0
        return MultiOperator((np.eye(2) + shear) @ diag.stack
                             @ (np.eye(2) - shear)), (1, 1), mu
    return _maybe_conjugated(diag, rng), (1, 1), mu


def _isosym_instance(rng, small_orders=False):
    """A tuple verified isosymmetric at known orders.

    With ``small_orders`` only families vanishing at (1, 1) are drawn (the
    perturbation grid needs them); otherwise the pool also contains the
    (3, 1) scaled Jordan family.
    """
    kinds = _KINDS[:3] if small_orders else _KINDS
    kind = kinds[int(rng.integers(len(kinds)))]
    d, dim = _dims(rng)
    r, orders, _ = _structured(kind, d, dim, rng)
    return r, orders, kind


def _jordan_mu(d, rng):
    """Superdiagonal weights of a Jordan augmentation, one per component."""
    return tuple(complex(rng.uniform(0.3, 1.5) *
                         np.exp(2j * np.pi * rng.uniform())) for _ in range(d))


def _nilpotent_factor(d, q, rng):
    """A q-nilpotent d-tuple of dim q or q + 1, the right factor of a tensor sum."""
    dim_n = int(rng.integers(q, q + 2))
    return nilpotent_tuple(d, dim_n, q, _child_seed(rng))


def _shifted_residual(left, right, m, n, q):
    """The theorem's conclusion for (m,n)-isosymmetric left, q-nilpotent right.

    Normalized norm of L(left + right) at the ``perturbed_orders`` cell.
    """
    total = MultiOperator(left.stack + right.stack)
    (tm, tn), = perturbed_orders([(m, n)], q)
    return _normalized(isosymmetry_defect_matrix(total, tm, tn), total, tm, tn)


# ---------------------------------------------------------------------------
# forms

def _gen_forms(idx, rng):
    d, dim = _dims(rng)
    r = random_commuting_tuple(d, dim, _child_seed(rng))
    params = {"m": int(rng.integers(0, M_MAX + 1)),
              "n": int(rng.integers(0, N_MAX + 1))}
    return {"r": r}, params


def _eval_forms(tuples, params, tol):
    r = tuples["r"]
    m, n = params["m"], params["n"]
    sym, iso = DefectTable(r).forms(m, n)
    return _normalized(sym - iso, r, m, n)


# ---------------------------------------------------------------------------
# recurrence

def _gen_recurrence(idx, rng):
    d, dim = _dims(rng)
    r = random_commuting_tuple(d, dim, _child_seed(rng))
    params = {"m": int(rng.integers(0, M_MAX)),
              "n": int(rng.integers(0, N_MAX))}
    return {"r": r}, params


def _eval_recurrence(tuples, params, tol):
    r = tuples["r"]
    m, n = params["m"], params["n"]
    table = DefectTable(r)
    up_m = _normalized(raise_isometry_order(table, m, n)
                       - isosymmetry_defect_matrix(table, m + 1, n), r, m + 1, n)
    up_n = _normalized(raise_symmetry_order(table, m, n)
                       - isosymmetry_defect_matrix(table, m, n + 1), r, m, n + 1)
    return max(up_m, up_n)


# ---------------------------------------------------------------------------
# expansion

def _gen_expansion(idx, rng):
    d = int(rng.integers(1, D_MAX + 1))
    q = int(rng.integers(1, 4))
    dim_n = q + int(rng.integers(0, 2)) if q > 1 else int(rng.integers(1, 3))
    dim_p = int(rng.integers(2, 4))
    p = random_commuting_tuple(d, dim_p, _child_seed(rng))
    nil = nilpotent_tuple(d, max(dim_n, q), q, _child_seed(rng))
    left, right = tensor_sum_parts(p, nil)
    params = {"m": int(rng.integers(1, M_MAX + 1)),
              "n": int(rng.integers(1, N_MAX + 1)),
              "q": q}
    return {"r": left, "q": right}, params


def _eval_expansion(tuples, params, tol):
    r, q = tuples["r"], tuples["q"]
    m, n = params["m"], params["n"]
    total = MultiOperator(r.stack + q.stack)
    lhs = isosymmetry_defect_matrix(total, m, n)
    rhs = perturbation_expansion(r, q, m, n)
    return _normalized(lhs - rhs, total, m, n)


# ---------------------------------------------------------------------------
# perturbation

_PERTURBATION_GRID = ((1, 1), (2, 1), (1, 2), (2, 2))


def _gen_perturbation(idx, rng):
    base, _, kind = _isosym_instance(rng, small_orders=True)
    m, n = _PERTURBATION_GRID[idx % 4]
    q = 1 + (idx // 4) % 3
    if idx % 2:
        left, right = jordan_augment_parts(JordanAugmentSpec(
            base_tuple=base, mu=_jordan_mu(base.d, rng), q=q))
        mode = "jordan"
    else:
        left, right = tensor_sum_parts(base, _nilpotent_factor(base.d, q, rng))
        mode = "tensor"
    params = {"m": m, "n": n, "q": q, "mode": mode, "base_kind": kind}
    return {"r": left, "q": right}, params


def _eval_perturbation(tuples, params, tol):
    r, q = tuples["r"], tuples["q"]
    m, n, order = params["m"], params["n"], params["q"]
    if not perturbation_hypothesis(r, q, m, n, order, tol):
        return 1.0
    return _shifted_residual(r, q, m, n, order)


# ---------------------------------------------------------------------------
# ascent

def _gen_ascent(idx, rng):
    pick = idx % 6
    if pick == 0:
        r, _, _ = _isosym_instance(rng)
    elif pick == 1:
        r = reference_pair()
    elif pick == 2:
        d, dim = _dims(rng)
        r = identity_tuple(d, dim)
    elif pick == 3:
        d, dim = _dims(rng)
        q = int(rng.integers(1, min(3, dim) + 1))
        r = nilpotent_tuple(d, dim, q, _child_seed(rng))
    elif pick == 4:
        d, dim = _dims(rng)
        r = MultiOperator([np.zeros((dim, dim), dtype=np.complex128)] * d)
    else:
        d, dim = _dims(rng)
        r = random_commuting_tuple(d, dim, _child_seed(rng))
    return {"r": r}, {"window": 2, "bounds": 4}


def _eval_ascent(tuples, params, tol):
    r = tuples["r"]
    b = params["bounds"]
    w = params["window"]
    table = DefectTable(r)
    worst = 0.0
    for m0, n0 in minimal_orders(table, b, b, tol).staircase:
        for i in range(w + 1):
            for j in range(w + 1):
                if i == 0 and j == 0:
                    continue
                cell = isosymmetry_defect_matrix(table, m0 + i, n0 + j, tol)
                worst = max(worst, _normalized(cell, r, m0 + i, n0 + j))
    return worst


# ---------------------------------------------------------------------------
# independence

def _gen_independence(idx, rng):
    d = int(rng.integers(1, D_MAX + 1))
    beta = _positive_beta(d, rng)
    if idx % 2 == 0:
        base = _unimodular_jordan(rng, away_from_real=True)
        extra = int(rng.integers(0, DIM_MAX - 1))
        if extra:
            phases = np.exp(2j * np.pi * rng.uniform(size=extra))
            base = _block_diag(base, np.diag(phases))
        params = {"m": 3, "n": 2, "direction": "vary_m"}
    else:
        lam = float(rng.uniform(1.2, 2.5)) * (1 if rng.integers(2) else -1)
        base = np.array([[lam, 1.0], [0.0, lam]], dtype=np.complex128)
        extra = int(rng.integers(0, DIM_MAX - 1))
        if extra:
            base = _block_diag(base, np.diag(
                rng.uniform(-2, 2, size=extra).astype(np.complex128)))
        params = {"m": 2, "n": 3, "direction": "vary_n"}
    r = scaled_tuple(ScaledTupleSpec(base=base, beta=beta))
    return {"r": r}, params


def _block_diag(a, b):
    n, k = a.shape[0], b.shape[0]
    out = np.zeros((n + k, n + k), dtype=np.complex128)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _eval_independence(tuples, params, tol):
    try:
        result = defect_family_rank(tuples["r"], params["m"], params["n"],
                                    params["direction"], tol)
    except HypothesisUnmet:
        return 1.0
    return 0.0 if result.independent else 1.0


# ---------------------------------------------------------------------------
# spectral

def _gen_spectral(idx, rng):
    d, dim = _dims(rng)
    kind = "gated" if idx % 8 == 4 else _KINDS[idx % 4]
    r, (m, n), expected = _structured(kind, d, dim, rng)
    return {"r": r}, {"m": m, "n": n, "expected_mu": expected}


def _eval_spectral(tuples, params, tol):
    checks = spectral_checks(tuples["r"], params["m"], params["n"], tol)
    checks.require_isosymmetric()
    tol_cls, tol_orth = checks.tol_spectra, checks.tol_orthogonality
    worst = 0.0
    # each record's verdict must be the one its own numbers give
    for c in checks.classifications:
        norm = float(np.sqrt(sum(abs(z) ** 2 for z in c.mu)))
        margin = min(abs(norm - 1.0), abs(sum(c.mu).imag))
        if c.compliant != (margin <= tol_cls):
            return 1.0
        if not c.compliant:
            worst = max(worst, margin)
    for o in checks.orthogonality:
        required = o.gate_product > tol_orth and o.gate_sum > tol_orth
        if (o.required_orthogonal, o.compliant) != \
                (required, not required or o.gram_norm <= tol_orth):
            return 1.0
        clears = (o.gate_product > 10 * tol_orth and o.gate_sum > 10 * tol_orth)
        if clears and o.gram_norm > tol_orth:
            worst = max(worst, o.gram_norm)
    for e in checks.zero_coordinate.entries:
        if not e.consistent:
            worst = max(worst, e.adjoint_sum_distance)
    if params.get("expected_mu") is not None:
        sort_key = lambda mu: tuple((z.real, z.imag) for z in mu)
        expected = sorted((tuple(complex(re, im) for re, im in mu)
                           for mu in params["expected_mu"]), key=sort_key)
        got = []
        for pair in checks.pairs:
            got.extend([pair.mu] * pair.basis.shape[1])
        got.sort(key=sort_key)
        if len(got) != len(expected):
            worst = max(worst, 1.0)
        else:
            gap = max(max(abs(a - b) for a, b in zip(x, y))
                      for x, y in zip(got, expected))
            if gap > tol_cls:
                worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# scaled

def _gen_scaled(idx, rng):
    d, dim = _dims(rng)
    base = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    base = base / max(1.0, fro_norm(base))
    beta = rng.standard_normal(d)
    beta = beta / np.linalg.norm(beta)
    r = scaled_tuple(ScaledTupleSpec(base=base, beta=tuple(beta)))
    params = {"m": int(rng.integers(0, M_MAX + 1)),
              "n": int(rng.integers(0, N_MAX + 1)),
              "beta": [float(b) for b in beta]}
    return {"scaled": r, "base": MultiOperator([base])}, params


def _eval_scaled(tuples, params, tol):
    r = tuples["scaled"]
    base = tuples["base"]
    m, n = params["m"], params["n"]
    factor = sum(params["beta"]) ** n
    lhs = isosymmetry_defect_matrix(r, m, n)
    rhs = factor * isosymmetry_defect_matrix(base, m, n)
    return _normalized(lhs - rhs, r, m, n)


# ---------------------------------------------------------------------------
# jordan / tensor corollaries

def _gen_jordan(idx, rng):
    base, (m, n), kind = _isosym_instance(rng)
    q = int(rng.integers(1, 4))
    left, right = jordan_augment_parts(JordanAugmentSpec(
        base_tuple=base, mu=_jordan_mu(base.d, rng), q=q))
    return ({"r": left, "q": right},
            {"m": m, "n": n, "q": q, "base_kind": kind})


def _gen_tensor(idx, rng):
    base, (m, n), kind = _isosym_instance(rng)
    q = int(rng.integers(1, 4))
    return ({"left": base, "right": _nilpotent_factor(base.d, q, rng)},
            {"m": m, "n": n, "q": q, "base_kind": kind})


def _eval_tensor(tuples, params, tol):
    base, nil = tuples["left"], tuples["right"]
    m, n, q = params["m"], params["n"], params["q"]
    left, right = tensor_sum_parts(base, nil)
    table = DefectTable(left)  # L_{m,n}(base (x) I), read by both checks
    if not perturbation_hypothesis(table, right, m, n, q, tol):
        return 1.0
    # the lifted factor inherits the base defect: L(base (x) I) = L(base) (x) I
    lifted = isosymmetry_defect_matrix(table, m, n)
    inherited = kron(isosymmetry_defect_matrix(base, m, n),
                     np.eye(nil.dim, dtype=np.complex128))
    if _normalized(lifted - inherited, left, m, n) > tol:
        return 1.0
    return _shifted_residual(left, right, m, n, q)


# ---------------------------------------------------------------------------
# driver

#: suite name -> (generate, evaluate)
_SUITES = {
    "recurrence": (_gen_recurrence, _eval_recurrence),
    "expansion": (_gen_expansion, _eval_expansion),
    "perturbation": (_gen_perturbation, _eval_perturbation),
    "ascent": (_gen_ascent, _eval_ascent),
    "independence": (_gen_independence, _eval_independence),
    "spectral": (_gen_spectral, _eval_spectral),
    "forms": (_gen_forms, _eval_forms),
    "scaled": (_gen_scaled, _eval_scaled),
    "jordan": (_gen_jordan, _eval_perturbation),
    "tensor": (_gen_tensor, _eval_tensor),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg):
    """Run one suite; failures are data (counterexamples), not exceptions."""
    gen, evaluate = _SUITES[cfg.suite]
    passed = 0
    residuals = []
    counterexamples = []
    for idx in range(cfg.trials):
        tuples, params = gen(idx, _trial_rng(cfg, idx))
        try:
            residual = evaluate(tuples, params, cfg.tol)
        except IsosymError:
            residual = None
        residuals.append(residual)
        if residual is not None and residual <= cfg.tol:
            passed += 1
            continue
        counterexamples.append({
            "suite": cfg.suite, "trial": idx,
            "params": dict(params, tol=cfg.tol),
            "residual": residual,
            "tuples": {k: tuple_to_dict(v) for k, v in tuples.items()},
        })
    worst = None if None in residuals else max(0.0, *residuals)
    return SuiteReport(suite=cfg.suite, trials_run=cfg.trials,
                       trials_passed=passed, worst_residual=worst,
                       counterexamples=counterexamples, config=cfg)


def dump_counterexample(instance, path):
    """Write one counterexample payload as JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance))
    return path


def replay_counterexample(source):
    """Recompute the residual of a dumped counterexample.

    ``source`` is a path or an already-loaded payload dict.  The same
    build reproduces the dumped residual bit for bit.  A file that does
    not read as JSON, or a payload that is not an object with a string
    ``suite``, object ``tuples`` and object ``params`` holding what its
    suite reads, raises ParseError; an unknown suite InvalidParams.
    """
    payload = source if isinstance(source, dict) else load(source)[0]
    if not (isinstance(payload, dict)
            and isinstance(payload.get("suite"), str)
            and isinstance(payload.get("tuples"), dict)
            and isinstance(payload.get("params"), dict)):
        raise ParseError("a counterexample is an object with a string suite, "
                         "object tuples and object params")
    if payload["suite"] not in _SUITES:
        raise InvalidParams(f"unknown suite {payload['suite']!r}")
    tuples = {k: tuple_from_dict(v)[0] for k, v in payload["tuples"].items()}
    params = dict(payload["params"])
    tol = params.pop("tol", TOL_ZERO)
    try:
        return _SUITES[payload["suite"]][1](tuples, params, tol)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"the counterexample's params do not hold what its "
                         f"suite reads: {exc!r}") from exc
