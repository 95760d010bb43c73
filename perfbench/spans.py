"""Layer tracing from outside the library.

Each layer entry point is replaced, at the module where its consumer looks
it up, by a wrapper that records a span (layer, thread id, start, end).
Spans stay in memory; ``layer_times`` turns the spans of one job into wall
time per layer, so the layer times plus the uncovered remainder add up to
the job's wall time.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import sparca
from sparca import cfcurve, evalkit, pipeline


@dataclass(frozen=True)
class Span:
    layer: str
    tid: int
    start: float
    end: float


def _horn_key(x):
    # A block is identified by its shape and its first and last rows; with
    # continuous data two different column sets never share both rows.
    return (x.shape, x[0].tobytes(), x[-1].tobytes())


def _omp_counts(tracer, comp):
    tracer.count("omp.atoms", comp.support_size)
    tracer.count("omp.full_support", int(comp.full_support))


def _fit_counts(tracer, model):
    tracer.count("pipeline.projection_nnz", model.projection.nnz)


def _curve_counts(tracer, curve):
    tracer.count("cfcurve.grid_points", curve.n_clusters.size)


# (module, attribute, layer). Each library module is wrapped where it is
# consumed: cf_curve and fit look their stages up in their own modules, and
# the benchmark calls the public API through the ``sparca`` package.
ENTRY_POINTS = (
    (cfcurve, "standardize_fit", "data.standardize"),
    (cfcurve, "standardize_apply", "data.standardize"),
    (cfcurve, "feature_distances", "cluster.distances"),
    (cfcurve, "ward_linkage", "cluster.ward"),
    (cfcurve, "_cut_groups", "cluster.cut"),
    (cfcurve, "horn_components", "horn"),
    (pipeline, "standardize_fit", "data.standardize"),
    (pipeline, "standardize_apply", "data.standardize"),
    (pipeline, "feature_distances", "cluster.distances"),
    (pipeline, "ward_linkage", "cluster.ward"),
    (pipeline, "cut_to_k", "cluster.cut"),
    (pipeline, "horn_components", "horn"),
    (pipeline, "pca_fit", "compress.pca"),
    (pipeline, "omp_fit", "omp"),
    (evalkit, "standardize_fit", "data.standardize"),
    (evalkit, "standardize_apply", "data.standardize"),
    (evalkit, "horn_components", "horn"),
    (evalkit, "pca_fit", "compress.pca"),
    (evalkit, "l1_logreg_fit", "evalkit.logreg"),
    (evalkit, "select_lambda", "evalkit.select_lambda"),
    (evalkit, "downstream_eval", "evalkit.downstream"),
    (sparca, "cf_curve", "cfcurve"),
    (sparca, "fit", "pipeline.fit"),
    (sparca, "save_model", "pipeline.save"),
    (sparca, "load_model", "pipeline.load"),
    (sparca, "transform", "pipeline.transform"),
    (sparca, "load_csv", "data.load_csv"),
)

RESULT_HOOKS = {
    "omp": _omp_counts,
    "pipeline.fit": _fit_counts,
    "cfcurve": _curve_counts,
}

# Layer -> name of its time metric. A layer's time is its self time: the
# span minus what its child spans cover.
TIME_METRICS = {
    "data.load_csv": "data.load_csv_s",
    "data.standardize": "data.standardize_s",
    "cluster.distances": "cluster.distances_s",
    "cluster.ward": "cluster.ward_s",
    "cluster.cut": "cluster.cut_s",
    "horn": "horn.s",
    "cfcurve": "cfcurve.self_s",
    "compress.pca": "compress.pca_s",
    "omp": "omp.s",
    "evalkit.logreg": "evalkit.logreg_s",
    "evalkit.select_lambda": "evalkit.select_lambda_s",
    "evalkit.downstream": "evalkit.downstream_self_s",
    "evalkit.pca_baseline": "evalkit.pca_baseline_s",
    "pipeline.fit": "pipeline.fit_self_s",
    "pipeline.save": "pipeline.save_s",
    "pipeline.load": "pipeline.load_s",
    "pipeline.transform": "pipeline.transform_s",
}

# Layer -> name of its call-count metric.
CALL_METRICS = {
    "horn": "horn.calls",
    "cluster.ward": "cluster.ward_calls",
    "compress.pca": "compress.pca_calls",
    "omp": "omp.calls",
    "evalkit.logreg": "evalkit.logreg_calls",
}

# Counters filled by RESULT_HOOKS and the Horn wrapper.
COUNT_METRICS = (
    "omp.atoms",
    "omp.full_support",
    "pipeline.projection_nnz",
    "cfcurve.grid_points",
    "horn.repeats",
)


def metric_unit(name):
    if name in TIME_METRICS.values() or name.startswith("trace."):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """Collects spans and counters; thread-safe, in memory only."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._horn_seen = set()
        self._lock = threading.Lock()

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def reset(self):
        with self._lock:
            self.spans = []
            self.counters = Counter()
            self._horn_seen = set()

    def wrap(self, layer, fn):
        hook = RESULT_HOOKS.get(layer)

        def traced(*args, **kwargs):
            if layer == "horn":
                key = _horn_key(args[0])
                with self._lock:
                    if key in self._horn_seen:
                        self.counters["horn.repeats"] += 1
                    self._horn_seen.add(key)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    self.spans.append(
                        Span(layer, threading.get_ident(), start, end)
                    )
            if hook is not None:
                hook(self, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer):
    """Wrap every entry point for the duration of the block, then restore."""
    saved = []
    baseline_fit = evalkit.PcaBaseline.__dict__["fit"]
    try:
        for module, attr, layer in ENTRY_POINTS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, original))
        wrapped = tracer.wrap("evalkit.pca_baseline", baseline_fit.__func__)
        evalkit.PcaBaseline.fit = classmethod(wrapped)
        yield tracer
    finally:
        evalkit.PcaBaseline.fit = baseline_fit
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _leaf_segments(spans):
    """Intervals where each span is the innermost open span of its thread.

    Spans of one thread nest like a call stack. Returns ``(start, end,
    layer)`` tuples that do not overlap.
    """
    segments = []
    stack = []
    cursor = None

    def close_until(t):
        nonlocal cursor
        while stack and stack[-1].end <= t:
            top = stack.pop()
            segments.append((cursor, top.end, top.layer))
            cursor = top.end

    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        close_until(span.start)
        if stack:
            segments.append((cursor, span.start, stack[-1].layer))
        stack.append(span)
        cursor = span.start
    close_until(float("inf"))
    return [seg for seg in segments if seg[1] > seg[0]]


def layer_times(spans, window_start, window_end):
    """Wall time per layer inside ``[window_start, window_end]``.

    The spans must come from one thread: the benchmark passes
    ``n_threads=1``, so every span is on the calling thread. Each instant
    goes to the innermost open span, which is the span minus what its child
    spans cover; instants outside every span are uncovered. Returns
    ``(times, uncovered)``; ``sum(times.values()) + uncovered`` equals
    ``window_end - window_start`` unless the segments overlap.
    """
    if len({span.tid for span in spans}) > 1:
        raise ValueError("layer_times takes the spans of one thread")
    times = defaultdict(float)
    uncovered = 0.0
    cursor = window_start
    for start, end, layer in _leaf_segments(spans):
        start, end = max(start, window_start), min(end, window_end)
        if end > start:
            uncovered += max(start - cursor, 0.0)
            times[layer] += end - start
            cursor = end
    uncovered += max(window_end - cursor, 0.0)
    return dict(times), uncovered
