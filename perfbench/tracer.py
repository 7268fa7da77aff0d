"""Boundary tracing from outside the program.

`Tracer.install()` replaces each listed pdmlab function by a wrapper at
every place a caller looks the name up: in the namespace of each pdmlab
module that bound it with `from ... import`, and on the defining module,
which serves `module.func` calls and calls inside that module.  pdmlab's
files are not touched.

A wrapper opens a span only when no span of the same function is open, so
a recursive call (`to_rf` inside `to_rf`) is never an extra call: each count
is a boundary crossing.  A span's self time is its duration minus the
spans opened inside it.  Spans and counters stay in memory; `summary()`
returns them as plain numbers for the parent process to add up.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.util
import sys
import time
from collections import defaultdict

# The pdmlab modules imported up front, so that the lazy imports inside
# pdmlab.cli find their names already wrapped.  pdmlab.spectral is left out:
# it imports scipy, which most commands never load; it is patched on import.
PDMLAB_MODULES = (
    "pdmlab",
    "pdmlab.symkernel.scalars",
    "pdmlab.symkernel.expr",
    "pdmlab.symkernel.sexpr",
    "pdmlab.symkernel.ratform",
    "pdmlab.symkernel.zerotest",
    "pdmlab.symkernel",
    "pdmlab.report",
    "pdmlab.diffop",
    "pdmlab.conformal",
    "pdmlab.catalog",
    "pdmlab.casimir",
    "pdmlab.cli",
)

# layer -> (defining module, functions).  `Class.method` names a method.
# Each function is wrapped where its defining module binds it and in every
# pdmlab module that bound the same object by name.
LAYERS = {
    "symkernel.zerotest": ("pdmlab.symkernel.zerotest", ("is_zero", "numeric_sample")),
    "symkernel.ratform": ("pdmlab.symkernel.ratform",
                          ("normalize", "is_provably_zero", "raw_form", "to_rf", "rf_canon")),
    "symkernel.expr": ("pdmlab.symkernel.expr", ("mul", "diff", "subst")),
    "symkernel.sexpr": ("pdmlab.symkernel.sexpr", ("parse_sexpr", "to_sexpr")),
    "diffop": ("pdmlab.diffop",
               ("commute_hq", "commute_qq", "killing_to_op", "reduced_determining")),
    "conformal": ("pdmlab.conformal",
                  ("op_coordinates", "decompose_in_basis", "combo_to_op", "subalgebra_closure",
                   "verify_structure", "apply_transform", "find_inversion_weight")),
    "catalog": ("pdmlab.catalog", ("load_catalog", "verify_entry", "verify_worked_family")),
    "casimir": ("pdmlab.casimir",
                ("build_casimirs", "verify_casimir_identity", "verify_casimir_centrality")),
    "spectral": ("pdmlab.spectral", ("fd_eigenvalues", "closed_form_residual", "eigh_tridiagonal")),
    "report": ("pdmlab.report", ("ReportDocument.to_json", "ReportDocument.to_text")),
}

# Only calls from other modules count for the expression constructors (the
# kernel's own operator overloads call them constantly), and the scipy solver
# counts only as seen from pdmlab.spectral.
_OTHER_MODULES_ONLY = {"symkernel.expr"}
_ONLY_IN = {("spectral", "eigh_tridiagonal"): ("pdmlab.spectral",)}

# Counters that are not calls or self time: (metric name, unit).
EXTRA_METRICS = (
    ("symkernel.zerotest.numeric_sample.points", "count"),
    ("symkernel.zerotest.proved_frac", "ratio"),
    ("symkernel.zerotest.nonzero", "count"),
    ("symkernel.zerotest.inconclusive", "count"),
    ("symkernel.ratform.raw_form.out_nodes", "count"),
    ("symkernel.ratform.normalize.distinct_frac", "ratio"),
    ("conformal.op_coordinates.distinct", "count"),
    ("spectral.grid_points", "count"),
    ("cli.self_s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _short(fn: str) -> str:
    return fn.rsplit(".", 1)[-1]


def metric_specs() -> list:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for layer, (_, fns) in LAYERS.items():
        for fn in fns:
            out.append((f"{layer}.{_short(fn)}.calls", "count"))
            out.append((f"{layer}.{_short(fn)}.self_s", "s"))
        out.append((f"{layer}.self_s", "s"))
    return out + list(EXTRA_METRICS)


def _node_count(e) -> int:
    from pdmlab.symkernel.expr import children

    n, todo = 0, [e]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(children(node))
    return n


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Calls `patch(module)` once the named module has been executed, so that
    a module pdmlab imports lazily (pdmlab.spectral brings in scipy) is not
    imported early just to be traced."""

    def __init__(self, name: str, patch):
        self.name, self.patch = name, patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0        # time inside outermost spans
        self.excluded_s = 0.0   # the tracer's own bookkeeping inside spans
        self._open = []         # child-time accumulator per open span
        self._active = set()
        self._distinct = defaultdict(set)

    # -- spans --------------------------------------------------------------

    def _wrap(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on or key in tracer._active:
                return fn(*args, **kwargs)
            tracer._active.add(key)
            tracer._open.append(0.0)
            excl0 = tracer.excluded_s
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0 - (tracer.excluded_s - excl0)
                child = tracer._open.pop()
                tracer._active.discard(key)
                tracer.calls[key] += 1
                tracer.self_s[key] += d - child
                if tracer._open:
                    tracer._open[-1] += d
                else:
                    tracer.top_s += d
            t1 = time.perf_counter()
            tracer._observe(key, args, out)
            tracer.excluded_s += time.perf_counter() - t1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, key, args, out):
        """Counters read from arguments and results at the boundary."""
        if key == "symkernel.zerotest.numeric_sample":
            kind = type(out).__name__
            if kind == "NumericZero":
                self.counts["numeric_sample.points"] += out.points_tested
            elif kind == "NonZero":
                self.counts["nonzero"] += 1
            elif kind == "Inconclusive":
                self.counts["inconclusive"] += 1
        elif key == "symkernel.zerotest.is_zero":
            if type(out).__name__ == "ProvedZero":
                self.counts["proved"] += 1
        elif key == "symkernel.ratform.raw_form":
            self.counts["raw_form.out_nodes"] += _node_count(out[1])
        elif key == "symkernel.ratform.normalize":
            self._distinct["normalize"].add(args[0])
        elif key == "conformal.op_coordinates":
            self._distinct["op_coordinates"].add(args[0])
        elif key == "spectral.eigh_tridiagonal":
            self.counts["grid_points"] += len(args[0])

    def install(self) -> None:
        for name in PDMLAB_MODULES:
            importlib.import_module(name)
        for layer, (defining, _) in LAYERS.items():
            if defining in sys.modules:
                self._install_layer(layer)
            else:
                sys.meta_path.insert(0, _PatchOnImport(
                    defining, lambda _mod, layer=layer: self._install_layer(layer)))
        self.on = True

    def _install_layer(self, layer: str) -> None:
        defining, fns = LAYERS[layer]
        mods = [m for name, m in list(sys.modules.items())
                if name == "pdmlab" or name.startswith("pdmlab.")]
        for fn in fns:
            key = f"{layer}.{_short(fn)}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(sys.modules[defining], cls_name)
                setattr(cls, meth, self._wrap(key, getattr(cls, meth)))
                continue
            orig = getattr(sys.modules[defining], fn)
            wrapper = self._wrap(key, orig)
            scope = _ONLY_IN.get((layer, fn))
            for mod in mods:
                if scope and mod.__name__ not in scope:
                    continue
                if layer in _OTHER_MODULES_ONLY and mod.__name__ == defining:
                    continue
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)

    def summary(self, main_s: float) -> dict:
        """main_s: the time the process spent in the program, as the caller
        timed it; the tracer's own bookkeeping is taken out of it."""
        return {
            "main_s": main_s - self.excluded_s,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self._distinct.items()},
            "top_s": self.top_s,
        }


def layer_metrics(summaries: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the summaries of every traced process of a pass.

    Each summary carries `main_s`, the time its process spent in the program
    (pdmlab.cli.main, or the kernel calls of kernel-stream); spans are shares
    of that.  traced_wall and untraced_wall are the pass walls with tracing on
    and off, timed the same way, for the overhead."""
    calls, self_s, counts, distinct = (defaultdict(int), defaultdict(float),
                                       defaultdict(int), defaultdict(int))
    top = main = 0.0
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["counts"].items():
            counts[k] += v
        for k, v in s["distinct"].items():
            distinct[k] += v
        top += s["top_s"]
        main += s["main_s"]
    out = {}
    for layer, (_, fns) in LAYERS.items():
        total = 0.0
        for fn in fns:
            key = f"{layer}.{_short(fn)}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
            total += self_s[key]
        out[f"{layer}.self_s"] = total
    zt = "symkernel.zerotest"
    out[f"{zt}.numeric_sample.points"] = counts["numeric_sample.points"]
    out[f"{zt}.proved_frac"] = counts["proved"] / max(1, calls[f"{zt}.is_zero"])
    out[f"{zt}.nonzero"] = counts["nonzero"]
    out[f"{zt}.inconclusive"] = counts["inconclusive"]
    out["symkernel.ratform.raw_form.out_nodes"] = counts["raw_form.out_nodes"]
    out["symkernel.ratform.normalize.distinct_frac"] = (
        distinct["normalize"] / max(1, calls["symkernel.ratform.normalize"]))
    out["conformal.op_coordinates.distinct"] = distinct["op_coordinates"]
    out["spectral.grid_points"] = counts["grid_points"]
    out["cli.self_s"] = main - top
    out["trace.coverage_frac"] = top / main if main > 0 else 0.0
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out
