"""Span tracing of jordanrep's layers, installed only in traced child processes.

``Tracer.install`` wraps, in place, every public function of each layer
module and every public or arithmetic method of the classes those modules
define, then rebinds every reference to a wrapped function held by any
``jordanrep`` module (the package imports functions across modules by name).
The package source is not changed.

Kernel methods are called millions of times per job, so spans are not stored
one by one: each (parent span, span) pair keeps a call count, its total time
and its self time, which is the total minus the time of its child spans.
A layer's self time is the sum of the self times of its spans.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
import types

#: Package module -> layer.  ``report`` belongs to the ``cli`` layer.
LAYERS = {
    "jordanrep.cli": "cli",
    "jordanrep.report": "cli",
    "jordanrep.verma": "verma",
    "jordanrep.irrep": "irrep",
    "jordanrep.so4": "so4",
    "jordanrep.ncseries": "ncseries",
    "jordanrep.exact.poly": "exact.poly",
    "jordanrep.exact.series": "exact.series",
    "jordanrep.exact.matrices": "exact.matrices",
}

_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__neg__", "__pow__", "__eq__",
}

#: Per-layer metrics of a traced pass -> unit.  ``<span>.calls`` and
#: ``<span>.s`` are a span's call count and total time, ``<layer>.self_s`` a
#: layer's self time; the rest are computed by name in ``layer_metrics``.
PER_LAYER = {
    "verma.build_table.s": "s",
    "verma.build_table.calls": "count",
    "verma.h_element.calls": "count",
    "verma.z_product.calls": "count",
    "verma.self_s": "s",
    "exact.poly.BiPoly.mul.calls": "count",
    "exact.poly.BiPoly.add.calls": "count",
    "exact.poly.self_s": "s",
    "exact.poly.max_coeff_bits": "bits",
    "irrep.singular_vector.s": "s",
    "irrep.verma_basis_irrep.s": "s",
    "irrep.map_to_deformed.s": "s",
    "irrep.verify_sl2_relations.s": "s",
    "irrep.casimir.s": "s",
    "irrep.verify_hopf.s": "s",
    "irrep.self_s": "s",
    "exact.matrices.PolyMatrix.mul.calls": "count",
    "exact.matrices.PolyMatrix.kron.calls": "count",
    "exact.matrices.TensorSum.to_matrix.s": "s",
    "exact.matrices.nilpotent_apply.calls": "count",
    "exact.matrices.nilpotent_apply.s": "s",
    "exact.matrices.max_dim": "rows",
    "exact.matrices.self_s": "s",
    "so4.build_so4.s": "s",
    "so4.verify_so4_relations.s": "s",
    "so4.verify_so4_coalgebra.s": "s",
    "so4.self_s": "s",
    "ncseries.suite_e2.s": "s",
    "ncseries.suite_e3.s": "s",
    "ncseries.suite_qe3.s": "s",
    "ncseries.series_function_apply.s": "s",
    "ncseries.NCElement.mul.calls": "count",
    "ncseries.normal_order_word.calls": "count",
    "ncseries.normal_order.hit_ratio": "ratio",
    "ncseries.normal_order.lookups": "count",
    "ncseries.max_terms": "count",
    "ncseries.self_s": "s",
    "exact.series.SeriesScalar.mul.calls": "count",
    "exact.series.self_s": "s",
    "cli.self_s": "s",
    "report.checks": "count",
    "trace.overhead_frac": "ratio",
}


def span_name(layer: str, qualname: str) -> str:
    """``exact.poly`` + ``BiPoly.__mul__`` -> ``exact.poly.BiPoly.mul``."""
    return layer + "." + re.sub(r"__(\w+)__", r"\1", qualname)


class Tracer:
    """Aggregated spans of one process, plus the sizes the layers reach."""

    def __init__(self):
        self.spans: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.max_dim = 0
        self.max_terms = 0
        self._stack = [[None, 0.0]]  # open spans: [name, time of child spans]

    def _wrap(self, name: str, fn, probe=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                entry = spans.get((parent[0], name))
                if entry is None:
                    spans[(parent[0], name)] = [1, dt, dt - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - frame[1]
            if probe is not None:
                probe(result)
            return result

        return traced

    def _see_matrix(self, result):
        if type(result) is self._matrix_type and result.rows > self.max_dim:
            self.max_dim = result.rows

    def _see_element(self, result):
        if type(result) is self._element_type and len(result.terms) > self.max_terms:
            self.max_terms = len(result.terms)

    def install(self):
        """Wrap the layers of the already imported ``jordanrep`` package."""
        self._matrix_type = sys.modules["jordanrep.exact.matrices"].PolyMatrix
        self._element_type = sys.modules["jordanrep.ncseries"].NCElement
        probes = {"exact.matrices": self._see_matrix, "ncseries": self._see_element}
        wrapped = {}  # original function -> its wrapper
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            probe = probes.get(layer)

            def wrap(fn):
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(span_name(layer, fn.__qualname__), fn, probe)
                return wrapped[fn]

            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if _traceable(obj):
                    wrap(obj)
                elif isinstance(obj, type):
                    for name, raw in list(vars(obj).items()):
                        if name.startswith("_") and name not in _OPERATORS:
                            continue
                        if isinstance(raw, staticmethod) and _traceable(raw.__func__):
                            setattr(obj, name, staticmethod(wrap(raw.__func__)))
                        elif _traceable(raw):
                            setattr(obj, name, wrap(raw))
        for modname, module in list(sys.modules.items()):
            if modname == "jordanrep" or modname.startswith("jordanrep."):
                for attr, obj in list(vars(module).items()):
                    if isinstance(obj, types.FunctionType) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])

    def summary(self) -> dict:
        """JSON-ready aggregates, read once the CLI has returned."""
        cache = sys.modules["jordanrep.ncseries"]._normal_order_cached.cache_info()
        return {
            "spans": [[p, n, *v] for (p, n), v in sorted(self.spans.items(), key=str)],
            "max_dim": self.max_dim,
            "max_terms": self.max_terms,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }


def _traceable(obj) -> bool:
    return isinstance(obj, types.FunctionType) and not inspect.isgeneratorfunction(obj)


def _layer_of(name: str) -> str:
    for layer in sorted(set(LAYERS.values()), key=len, reverse=True):
        if name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def span_totals(traces: list[dict]) -> dict[str, list]:
    """Span name -> [calls, total_s, self_s], summed over parents and jobs."""
    totals: dict[str, list] = {}
    for trace in traces:
        for _parent, name, calls, total_s, self_s in trace["spans"]:
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total_s
            acc[2] += self_s
    return totals


def layer_metrics(traces: list[dict], max_coeff_bits: int, checks: int) -> dict[str, float]:
    """The PER_LAYER metrics of one traced pass, except the overhead, from
    its jobs' trace summaries and the figures parsed from their outputs."""
    totals = span_totals(traces)
    self_s: dict[str, float] = {}
    for name, (_calls, _total, own) in totals.items():
        layer = _layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + own
    hits = sum(t["cache_hits"] for t in traces)
    lookups = hits + sum(t["cache_misses"] for t in traces)
    special = {
        "exact.poly.max_coeff_bits": max_coeff_bits,
        "exact.matrices.max_dim": max((t["max_dim"] for t in traces), default=0),
        "ncseries.max_terms": max((t["max_terms"] for t in traces), default=0),
        "ncseries.normal_order.hit_ratio": hits / lookups if lookups else 0.0,
        "ncseries.normal_order.lookups": lookups,
        "report.checks": checks,
    }
    out = {}
    for metric in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
        elif metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".calls"):
            out[metric] = totals.get(metric[: -len(".calls")], [0, 0.0, 0.0])[0]
        elif metric.endswith(".s"):
            out[metric] = totals.get(metric[: -len(".s")], [0, 0.0, 0.0])[1]
    return out

