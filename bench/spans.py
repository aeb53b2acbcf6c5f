"""Span recording around the public functions of each ``nbcq`` module.

The wrappers live here, in the benchmark, not in the library: while a
:func:`installed` block is open, each site below is replaced on the module
or class object through which the library (or the benchmark) makes the
call, and the original is put back when the block exits. A span is
``(name, start, end, parent)``; spans stay in memory until the caller
writes them out.

Per-layer numbers are derived from the spans of one pass: a layer's ``.s``
figure is its self time (span duration minus the time its child spans
cover), except the ``fls`` spans, which are reported inclusive, because
the search's own code is a thin driver of the other layers and one
candidate's whole cost is the figure of interest.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from nbcq import compensation, fls, formats, harness, numerics, quantizer

MARKER = "_bench_wrapped"

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "harness.gelu.s": "s",
    "harness.gelu.calls": "count",
    "harness.fp_forward.s": "s",
    "harness.fp_forward.calls": "count",
    "harness.q_forward.s": "s",
    "harness.q_forward.calls": "count",
    "harness.diagnostics.s": "s",
    "quantizer.fake_quant.s": "s",
    "quantizer.fake_quant.calls": "count",
    "quantizer.fake_quant.elements": "count",
    "quantizer.weight_quant.s": "s",
    "quantizer.weight_quant.calls": "count",
    "transform.forward.s": "s",
    "transform.forward.calls": "count",
    "transform.forward.elements": "count",
    "transform.inverse.s": "s",
    "transform.inverse.calls": "count",
    "transform.inverse.elements": "count",
    "numerics.solve.s": "s",
    "numerics.solve.calls": "count",
    "numerics.solve.ridge_fallbacks": "count",
    "numerics.as_tensor.calls": "count",
    "compensation.fit.s": "s",
    "compensation.fit.calls": "count",
    "compensation.apply.s": "s",
    "compensation.apply.calls": "count",
    "compensation.store.s": "s",
    "fls.candidates": "count",
    "fls.candidate.s": "s",
    "fls.final_refit.s": "s",
    "fls.holdout_fp_forwards": "count",
    "formats.write_bundle.s": "s",
    "formats.read_bundle.s": "s",
    "formats.bundle_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)


class _TracedPipeline:
    """Search pipeline proxy that tells candidate fits from the final refit."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def fit(self, records, n_exp):
        name = "fls.candidate_fit" if self._tracer.inside("fls.candidate") else "fls.final_refit"
        with self._tracer.span(name):
            return self._inner.fit(records, n_exp)

    def holdout_loss(self, fitted, records):
        with self._tracer.span("fls.holdout"):
            return self._inner.holdout_loss(fitted, records)


def _span(name: str, size_arg: int | None = None):
    """Wrapper factory: one span per call, optionally counting an argument's size."""

    def make(tracer: Tracer, fn):
        def wrapper(*args, **kwargs):
            if size_arg is not None:
                tracer.count(name + ".elements", int(np.size(args[size_arg])))
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def _solve(tracer: Tracer, fn):
    def solve_least_squares(design, targets, ridge=0.0, **kwargs):
        with tracer.span("numerics.solve"):
            sol = fn(design, targets, ridge, **kwargs)
        if sol.ridge_used != ridge:
            tracer.count("numerics.solve.ridge_fallbacks")
        return sol

    return solve_least_squares


def _write_bundle(tracer: Tracer, fn):
    def write_bundle(path, modules):
        with tracer.span("formats.write_bundle"):
            fn(path, modules)
        tracer.count("formats.bundle_bytes", os.path.getsize(path))

    return write_bundle


def _search(tracer: Tracer, fn):
    def search_n_for_pipeline(records, cfg, pipeline):
        with tracer.span("fls.search"):
            return fn(records, cfg, _TracedPipeline(tracer, pipeline))

    return search_n_for_pipeline


def _fls_search(tracer: Tracer, fn):
    def fls_search(cfg, evaluator):
        def candidate(n_exp):
            with tracer.span("fls.candidate"):
                return evaluator(n_exp)

        return fn(cfg, candidate)

    return fls_search


def _count_as_tensor(tracer: Tracer, fn):
    def as_tensor(*args, **kwargs):
        tracer.count("numerics.as_tensor.calls")
        return fn(*args, **kwargs)

    return as_tensor


# (owner, attribute, wrapper factory): each site is patched on the module or
# class through which the library, or the benchmark's op, makes the call.
SITES = [
    (harness, "gelu", _span("harness.gelu")),
    (harness.ToyModel, "block_io", _span("harness.fp_forward")),
    (harness.QuantizedToyModel, "block_io", _span("harness.q_forward")),
    (harness.QuantizedToyModel, "compensated_block_io", _span("harness.q_forward")),
    (harness, "excess_kurtosis", _span("harness.diagnostics")),
    (harness, "slope_gap_analysis", _span("harness.diagnostics")),
    (harness, "split_error_metrics", _span("harness.diagnostics")),
    (harness.QuantizedToyModel, "fake_quant", _span("quantizer.fake_quant", size_arg=1)),
    (harness, "quantize_per_channel", _span("quantizer.weight_quant")),
    (compensation, "apply_kind_forward", _span("transform.forward", size_arg=0)),
    (compensation, "apply_kind_inverse", _span("transform.inverse", size_arg=0)),
    (compensation, "solve_least_squares", _solve),
    (harness, "fit_linear", _span("compensation.fit")),
    (harness, "fit_nbc", _span("compensation.fit")),
    (harness, "apply", _span("compensation.apply")),
    (compensation, "store_params", _span("compensation.store")),
    (harness, "search_n_for_pipeline", _search),
    (fls, "fls_search", _fls_search),
    (formats, "write_bundle", _write_bundle),
    (formats, "read_bundle", _span("formats.read_bundle")),
] + [
    (owner, "as_tensor", _count_as_tensor)
    for owner in (numerics, harness, compensation, fls, quantizer)
]


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"


def missing_sites() -> list[str]:
    """Sites the library no longer has. Their layers read zero in a traced run."""
    return [_label(owner, attr) for owner, attr, _ in SITES if attr not in vars(owner)]


@contextmanager
def installed(tracer: Tracer):
    """Patch every site that exists for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, make in SITES:
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = make(tracer, original)
            setattr(wrapper, MARKER, True)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Sites where a benchmark wrapper is still installed."""
    return [
        _label(owner, attr)
        for owner, attr, _ in SITES
        if getattr(vars(owner).get(attr), MARKER, False)
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, in report order, without the overhead."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    holdout_fp = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        if name == "harness.fp_forward":
            p = parent
            while p >= 0 and spans[p][0] != "fls.holdout":
                p = spans[p][3]
            holdout_fp += p >= 0

    out: dict[str, float] = {}
    for layer in ("harness.gelu", "harness.fp_forward", "harness.q_forward",
                  "quantizer.fake_quant", "quantizer.weight_quant", "transform.forward",
                  "transform.inverse", "numerics.solve", "compensation.fit",
                  "compensation.apply"):
        out[layer + ".s"] = self_s.get(layer, 0.0)
        out[layer + ".calls"] = calls.get(layer, 0)
    for layer in ("harness.diagnostics", "compensation.store", "formats.write_bundle",
                  "formats.read_bundle"):
        out[layer + ".s"] = self_s.get(layer, 0.0)
    for key in ("quantizer.fake_quant.elements", "transform.forward.elements",
                "transform.inverse.elements", "numerics.solve.ridge_fallbacks",
                "numerics.as_tensor.calls", "formats.bundle_bytes"):
        out[key] = tracer.counts.get(key, 0)
    out["fls.candidates"] = calls.get("fls.candidate", 0)
    out["fls.candidate.s"] = total_s.get("fls.candidate", 0.0)
    out["fls.final_refit.s"] = total_s.get("fls.final_refit", 0.0)
    out["fls.holdout_fp_forwards"] = holdout_fp
    out["trace.spans"] = len(spans)
    return {key: out[key] for key in LAYER_METRICS if key in out}
