"""Span tracing of isosym's layers, installed from outside the package.

Every public function of each layer module is replaced, for the duration
of an ``Instrumentation`` block, by a wrapper that records one span: the
binding it was called through, its start and end (``perf_counter_ns``)
and its parent span.  Names another isosym module binds with
``from .x import f`` are wrapped in that module too, private or not, so a
call through ``classify.isosymmetry_defect`` is caught as well as one
through ``defect.isosymmetry_defect``.  ``kernels.active`` is replaced by
a proxy whose functions are wrapped, ``MultiOperator.__init__`` is wrapped
on the class, and ``spectra``'s ``np`` is replaced by a proxy that records
the ``eigvals``/``svd`` calls it makes.

Spans stay in memory (flat ``array`` columns) and are written out by
``Tracer.save`` at the end.  A layer module that does not import is
reported as absent; its metrics are left out instead of reading zero.
The tracer assumes one thread of Python calls, which holds while
``ISOSYM_THREADS`` is unset.
"""

import functools
import gzip
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "tupleio", "harness", "classify", "defect", "kernels",
          "multiindex", "spectra", "construct", "linalg")

#: private functions wrapped in their home module because a metric needs them
PRIVATE_WRAPPED = {"harness": ("_shrink",)}

LAMBDA_FUNCS = ("defect.isosymmetry_defect_matrix", "defect._lambda_sym_outer",
                "defect._lambda_iso_outer")
VERDICT_FUNCS = ("classify.is_m_isometric", "classify.is_n_symmetric",
                 "classify.is_isosymmetric")
SPECTRAL_CHECKS = ("spectra.classify_spectrum", "spectra.check_orthogonality",
                   "spectra.check_zero_coordinate_exclusion")
CLI_COMMANDS = ("check", "defect", "minimal", "spectrum", "construct")

# (name, unit, layer); the layer decides whether the metric is reported
PER_LAYER = (
    [(f"harness.suite_s.{s}", "s", "harness") for s in (
        "recurrence", "expansion", "perturbation", "ascent", "independence",
        "spectral", "forms", "scaled", "jordan", "tensor")]
    + [("harness.shrink_calls", "count", "harness")]
    + [(f"cli.self_ms.{c}", "ms", "cli") for c in CLI_COMMANDS]
    + [("cli.import_ms", "ms", "cli"),
       ("tupleio.read_ms", "ms", "tupleio"),
       ("tupleio.read_bytes", "B", "tupleio"),
       ("tupleio.write_ms", "ms", "tupleio"),
       ("tupleio.write_bytes", "B", "tupleio"),
       ("classify.minimal_orders.calls", "count", "classify"),
       ("classify.minimal_orders.self_ms", "ms", "classify"),
       ("classify.cells_evaluated", "count", "classify"),
       ("classify.cells_pruned", "count", "classify"),
       ("classify.verdict_calls", "count", "classify"),
       ("classify.family_rank_ms", "ms", "classify"),
       ("defect.lambda_evals", "count", "defect"),
       ("defect.lambda_ms", "ms", "defect"),
       ("defect.m_evals", "count", "defect"),
       ("defect.s_evals", "count", "defect"),
       ("defect.expansion_ms", "ms", "defect"),
       ("defect.recurrence_steps", "count", "defect"),
       ("defect.multioperator_ms", "ms", "defect"),
       ("kernels.gamma_products.calls", "count", "kernels"),
       ("kernels.gamma_products.ms", "ms", "kernels"),
       ("kernels.sandwich.calls", "count", "kernels"),
       ("kernels.sandwich.ms", "ms", "kernels"),
       ("kernels.sandwich_terms", "count", "kernels"),
       ("kernels.flops_computed", "flop", "kernels"),
       ("kernels.bytes_computed", "B", "kernels"),
       ("multiindex.calls", "count", "multiindex"),
       ("multiindex.ms", "ms", "multiindex"),
       ("multiindex.indices_enumerated", "count", "multiindex"),
       ("spectra.jps_calls", "count", "spectra"),
       ("spectra.jps_ms", "ms", "spectra"),
       ("spectra.eigvals_calls", "count", "spectra"),
       ("spectra.svd_calls", "count", "spectra"),
       ("spectra.check_ms", "ms", "spectra"),
       ("spectra.isosym_verdicts", "count", "spectra"),
       ("construct.calls", "count", "construct"),
       ("construct.ms", "ms", "construct"),
       ("linalg.fro_norm.calls", "count", "linalg"),
       ("linalg.matrix_rank_ms", "ms", "linalg"),
       ("trace_overhead", "ratio", None)])

#: units whose values are exact counts, compared between two traced passes
COUNT_UNITS = ("count", "B", "flop")


# ---------------------------------------------------------------------------
# work computed from operand shapes (complex128: 16 bytes an entry, a
# complex multiply-add is 8 real flops)

def _gamma_work(bound, out):
    ladders = np.asarray(bound["ladders"])
    terms, d = np.shape(bound["gammas"])
    n = ladders.shape[-1]
    return (8 * n ** 3 * terms * (d - 1), 16 * n * n * terms * (d + 1), 0)


def _pairwise_work(bound, out):
    a, b = np.asarray(bound["a"]), np.asarray(bound["b"])
    terms, p, q = a.shape
    r = b.shape[-1]
    return (8 * p * q * r * terms, 16 * terms * (p * q + q * r + p * r), 0)


def _sandwich_work(bound, out):
    lefts, rights = np.asarray(bound["lefts"]), np.asarray(bound["rights"])
    terms, p, q = lefts.shape
    r = rights.shape[-1]
    flops = 8 * p * q * r * terms + 4 * p * r * terms
    nbytes = 16 * (terms * (p * q + q * r) + p * r) + 8 * terms
    if bound["mid"] is not None:
        flops += 8 * p * q * q * terms
        nbytes += 16 * q * q
    return (flops, nbytes, terms)


def _file_size(bound, out):
    return os.path.getsize(bound["path"])


#: per-function tag recorded on each span, computed after the span closes
HOOKS = {
    "cli.main": lambda b, out: (b["argv"] or ["?"])[0],
    "harness.run_suite": lambda b, out: b["cfg"].suite,
    "tupleio.read_tuple": _file_size,
    "tupleio.write_tuple": _file_size,
    "classify.minimal_orders":
        lambda b, out: (b["m_max"] + 1) * (b["n_max"] + 1),
    "multiindex.multi_indices": lambda b, out: len(out),
    "kernels.gamma_products": _gamma_work,
    "kernels.pairwise_matmul": _pairwise_work,
    "kernels.weighted_sandwich_sum": _sandwich_work,
}


class Tracer:
    """In-memory span store: one row per call, parents from a call stack."""

    def __init__(self):
        self.names = []          # (layer, function, binding module)
        self._name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.tags = {}
        self._stack = []

    def _name_id(self, layer, func, via):
        key = (layer, func, via)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def wrap(self, fn, layer, func, via):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._name_id(layer, func, via)
        hook = HOOKS.get(func)
        sig = inspect.signature(fn) if hook else None
        names, parents, t0s, t1s = self.name, self.parent, self.t0, self.t1
        stack, tags = self._stack, self.tags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0)
            stack.append(idx)
            t0s.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tags[idx] = hook(bound.arguments, out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    def __len__(self):
        return len(self.t0)

    def save(self, path):
        """Write every span as gzipped JSON: a names table plus columns."""
        doc = {"names": [list(n) for n in self.names],
               "columns": ["name", "parent", "t0_ns", "t1_ns"],
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "t0_ns": self.t0.tolist(), "t1_ns": self.t1.tolist(),
               "tags": {str(k): v for k, v in self.tags.items()}}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


class _Proxy:
    """Attribute proxy: wrapped members first, the original object after."""

    def __init__(self, target, members):
        self._target = target
        self._members = members

    def __getattr__(self, name):
        member = self._members.get(name)
        return member if member is not None else getattr(self._target, name)


class Instrumentation:
    """Context manager installing a tracer's wrappers; restores on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.absent = []
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"isosym.{layer}")
            except ImportError:
                self.absent.append(layer)
        try:
            for via, mod in mods.items():
                self._wrap_module(mods, via, mod)
            self._wrap_specials(mods)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wrap_module(self, mods, via, mod):
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            parts = obj.__module__.split(".")
            if parts[0] != "isosym" or len(parts) < 2 or parts[1] not in mods:
                continue
            home = parts[1]
            if obj.__module__ == mod.__name__ and attr.startswith("_") \
                    and attr not in PRIVATE_WRAPPED.get(via, ()):
                continue
            self._patch(mod, attr, self.tracer.wrap(
                obj, home, f"{home}.{obj.__name__}", via))

    def _wrap_specials(self, mods):
        tracer = self.tracer
        kernels = mods.get("kernels")
        backend = getattr(kernels, "active", None)
        if backend is not None:
            wrapped = {name: tracer.wrap(fn, "kernels", f"kernels.{name}",
                                         "kernels")
                       for name, fn in vars(backend).items()
                       if inspect.isfunction(fn) and not name.startswith("_")}
            self._patch(kernels, "active", _Proxy(backend, wrapped))
        elif kernels is not None:
            self.absent.append("kernels")
        defect = mods.get("defect")
        cls = getattr(defect, "MultiOperator", None)
        if cls is not None:
            self._patch(cls, "__init__", tracer.wrap(
                cls.__init__, "defect", "defect.MultiOperator", "defect"))
        spectra = mods.get("spectra")
        if getattr(spectra, "np", None) is np:
            linalg = _Proxy(np.linalg, {
                name: tracer.wrap(getattr(np.linalg, name), "spectra",
                                  f"spectra.{name}", "spectra")
                for name in ("eigvals", "svd")})
            self._patch(spectra, "np", _Proxy(np, {"linalg": linalg}))

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        return False


def layer_metrics(tracer, absent=()):
    """Per-layer metrics of one traced pass, keyed by PER_LAYER name.

    ``*_ms`` is inclusive wall time of the named calls, ``self_ms`` is a
    span's duration minus what its child spans cover.  Metrics of absent
    layers are omitted.
    """
    layer_of = {metric: layer for metric, _, layer in PER_LAYER}
    n = len(tracer)
    name = np.frombuffer(tracer.name, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = (np.frombuffer(tracer.t1, dtype=np.int64)
           - np.frombuffer(tracer.t0, dtype=np.int64)) / 1e6
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=n)
    self_ms = dur - children
    span_layer = np.array([nm[0] for nm in tracer.names], dtype=object)[name]
    span_func = np.array([nm[1] for nm in tracer.names], dtype=object)[name]
    span_via = np.array([nm[2] for nm in tracer.names], dtype=object)[name]
    up = np.maximum(parent, 0)
    parent_func = np.where(has_parent, span_func[up], "")
    parent_layer = np.where(has_parent, span_layer[up], "")

    def mask(*funcs):
        return np.isin(span_func, funcs)

    def tagged(sel):
        """Tags of the selected spans; a call that raised has none."""
        return [tracer.tags[i] for i in np.flatnonzero(sel).tolist()
                if i in tracer.tags]

    def by_tag(func, values, prefix):
        """Sum ``values`` of the calls of ``func`` per tag, one metric each."""
        totals = {m: 0.0 for m in layer_of if m.startswith(prefix)}
        for i in np.flatnonzero(mask(func)).tolist():
            key = f"{prefix}{tracer.tags.get(i)}"
            if key in totals:
                totals[key] += float(values[i])
        return totals

    out = by_tag("harness.run_suite", dur / 1e3, "harness.suite_s.")
    out["harness.shrink_calls"] = int(mask("harness._shrink").sum())
    out.update(by_tag("cli.main", self_ms, "cli.self_ms."))

    roots = _tupleio_roots(span_layer, parent)
    for kind in ("read", "write"):
        root = f"tupleio.{kind}_tuple"
        out[f"tupleio.{kind}_ms"] = float(sum(
            self_ms[i] for i, r in roots.items() if span_func[r] == root))
        out[f"tupleio.{kind}_bytes"] = int(sum(tagged(mask(root))))

    sel = mask("classify.minimal_orders")
    evaluated = (parent_func == "classify.minimal_orders") \
        & (span_layer == "defect")
    out["classify.minimal_orders.calls"] = int(sel.sum())
    out["classify.minimal_orders.self_ms"] = float(self_ms[sel].sum())
    out["classify.cells_evaluated"] = int(evaluated.sum())
    out["classify.cells_pruned"] = int(sum(tagged(sel)) - evaluated.sum())
    out["classify.verdict_calls"] = int(mask(*VERDICT_FUNCS).sum())
    out["classify.family_rank_ms"] = float(
        dur[mask("classify.defect_family_rank")].sum())

    sel = mask(*LAMBDA_FUNCS)
    out["defect.lambda_evals"] = int(sel.sum())
    out["defect.lambda_ms"] = float(dur[sel].sum())
    out["defect.m_evals"] = int(mask("defect.isometry_defect_matrix").sum())
    out["defect.s_evals"] = int(mask("defect.symmetry_defect_matrix").sum())
    out["defect.expansion_ms"] = float(
        dur[mask("defect.perturbation_expansion")].sum())
    out["defect.recurrence_steps"] = int(mask(
        "defect.raise_isometry_order", "defect.raise_symmetry_order").sum())
    out["defect.multioperator_ms"] = float(
        dur[mask("defect.MultiOperator")].sum())

    for func, key in (("kernels.gamma_products", "gamma_products"),
                      ("kernels.weighted_sandwich_sum", "sandwich")):
        sel = mask(func)
        out[f"kernels.{key}.calls"] = int(sel.sum())
        out[f"kernels.{key}.ms"] = float(dur[sel].sum())
    work = tagged(mask("kernels.gamma_products", "kernels.pairwise_matmul",
                       "kernels.weighted_sandwich_sum"))
    out["kernels.flops_computed"] = int(sum(w[0] for w in work))
    out["kernels.bytes_computed"] = int(sum(w[1] for w in work))
    out["kernels.sandwich_terms"] = int(sum(w[2] for w in work))

    sel = mask("multiindex.multi_indices")
    out["multiindex.calls"] = int(sel.sum())
    out["multiindex.ms"] = float(dur[sel].sum())
    out["multiindex.indices_enumerated"] = int(sum(tagged(sel)))

    sel = mask("spectra.joint_point_spectrum")
    out["spectra.jps_calls"] = int(sel.sum())
    out["spectra.jps_ms"] = float(dur[sel].sum())
    out["spectra.eigvals_calls"] = int(mask("spectra.eigvals").sum())
    out["spectra.svd_calls"] = int(mask("spectra.svd").sum())
    out["spectra.check_ms"] = float(dur[mask(*SPECTRAL_CHECKS)].sum())
    out["spectra.isosym_verdicts"] = int(
        (mask("classify.is_isosymmetric") & (span_via == "spectra")).sum())

    top = (span_layer == "construct") & (parent_layer != "construct")
    out["construct.calls"] = int(top.sum())
    out["construct.ms"] = float(dur[top].sum())
    out["linalg.fro_norm.calls"] = int(mask("linalg.fro_norm").sum())
    out["linalg.matrix_rank_ms"] = float(dur[mask("linalg.matrix_rank")].sum())

    return {m: v for m, v in out.items() if layer_of[m] not in absent}


def _tupleio_roots(span_layer, parent):
    """Map each tupleio span to its outermost enclosing tupleio span."""
    roots = {}
    for i in np.flatnonzero(span_layer == "tupleio"):
        r = int(i)
        while parent[r] >= 0 and span_layer[parent[r]] == "tupleio":
            r = int(parent[r])
        roots[int(i)] = r
    return roots
