"""Which program call sites the traced run wraps, and how their spans
become per-layer metrics.

Each span is named after the layer (module) that owns the call.  The
patches sit at the names the program calls; if a refactor moves a call,
:func:`tracing.guard` fails the traced run instead of reporting 0 s for
the layer.
"""

from __future__ import annotations

import statistics
import time

from tracing import Patch, Tracer, install, self_times, uninstall

#: Per-layer time metrics: metric -> span whose self time it sums.
LAYER_TIMES = {
    "datasets.encode_s": "datasets.encode",
    "datasets.subset_s": "datasets.subset",
    "core.item_bits_s": "core.item_bits",
    "mining.fold_s": "mining.fold",
    "mining.whole_s": "mining.whole",
    "measures.contingency_s": "measures.contingency",
    "selection.fold_s": "selection.fold",
    "selection.whole_s": "selection.whole",
    "features.transform_s": "features.transform",
    "pipeline.fit_s": "pipeline.fit",
    "classifiers.fit_s": "classifiers.fit",
    "classifiers.predict_s": "classifiers.predict",
    "runtime.cache_s": "runtime.cache",
    "runtime.self_s": "runtime.experiment",
}

UNITS = {metric: "s" for metric in LAYER_TIMES} | {
    "mining.patterns": "count",
    "mining.patterns_per_s": "1/s",
    "mining.degraded_partitions": "count",
    "selection.considered": "count",
    "selection.selected": "count",
    "selection.keep_ratio": "ratio",
    "features.design_cells": "count",
    "runtime.cache_bytes": "bytes",
    "serving.compile_s": "s",
    "serving.execute_ms_p50": "ms",
    "serving.execute_ms_p99": "ms",
    "serving.rows_per_execute_s": "1/s",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p99": "ms",
    "serving.latency_ms_p99": "ms",
    "serving.max_rps": "1/s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_ratio": "ratio",
    "bench.gen_late_ms_p99": "ms",
}

_FIT_LAYERS = {
    "datasets.encode", "datasets.subset", "core.item_bits", "mining.fold",
    "selection.fold", "features.transform", "pipeline.fit", "classifiers.fit",
}
#: Spans each workload's traced run must record at least once.
EXPECTED = {
    "cv-waveform": set(LAYER_TIMES.values()),
    "serve-waveform": _FIT_LAYERS | {"serving.claim", "serving.execute"},
}
#: Spans that must never run while requests are being served.
FORBIDDEN_IN_WINDOW = {
    "mining.fold", "mining.whole", "selection.fold", "selection.whole",
    "classifiers.fit",
}


def cv_patches() -> list[Patch]:
    import repro.features.pipeline as pipeline
    import repro.runtime.experiment as experiment
    from repro.classifiers.linear_svm import LinearSVM
    from repro.datasets.transactions import TransactionDataset
    from repro.features.transformer import PatternFeaturizer
    from repro.runtime.cache import ArtifactCache

    def mined(result):
        return {"patterns": len(result)}

    def selected(result):
        return {"considered": result.considered, "selected": len(result)}

    return [
        Patch(TransactionDataset, "from_dataset", "datasets.encode"),
        Patch(TransactionDataset, "subset", "datasets.subset"),
        # Only a dataset's first call builds the bitsets; later ones hit
        # its cache and are left unrecorded.
        Patch(TransactionDataset, "item_bits", "core.item_bits",
              when=lambda data: data._item_bits is None),
        Patch(experiment, "mine_class_patterns", "mining.whole", count=mined),
        Patch(pipeline, "mine_class_patterns", "mining.fold", count=mined),
        Patch(pipeline, "batch_contingency_tables", "measures.contingency"),
        Patch(experiment, "mmrfs", "selection.whole", count=selected),
        Patch(pipeline, "mmrfs", "selection.fold", count=selected),
        Patch(PatternFeaturizer, "transform", "features.transform",
              count=lambda design: {"cells": int(design.size)}),
        Patch(pipeline.FrequentPatternClassifier, "fit", "pipeline.fit"),
        Patch(pipeline.FrequentPatternClassifier, "predict", "pipeline.predict"),
        Patch(LinearSVM, "fit", "classifiers.fit"),
        Patch(LinearSVM, "predict", "classifiers.predict"),
        Patch(experiment, "cross_validate_pipeline", "eval.cv"),
        Patch(experiment, "fingerprint", "runtime.cache"),
        Patch(experiment, "run_fingerprint", "runtime.cache"),
        Patch(experiment, "save_patterns", "runtime.cache"),
        Patch(experiment, "save_selection", "runtime.cache"),
        Patch(ArtifactCache, "get", "runtime.cache"),
        Patch(ArtifactCache, "put", "runtime.cache"),
        Patch(ArtifactCache, "clear", "runtime.cache"),
    ]


def serve_patches(tracer: Tracer, pending: dict) -> list[Patch]:
    """The fit-time patches plus the frontend's claim and execute.

    ``pending`` maps ``id()`` of each submitted request's transaction
    list to its trace id.
    """
    import repro.serving.frontend as frontend
    from repro.serving.compiled import CompiledModel

    def claim(transactions, n_items):
        # A worker sanitizes a request right after claiming it, on the
        # very list object the client submitted.
        tracer.set_trace(pending.pop(id(transactions), None))
        return True

    return cv_patches() + [
        Patch(frontend, "sanitize_transactions", "serving.claim", when=claim),
        Patch(CompiledModel, "predict", "serving.execute"),
    ]


def layer_times(spans: list[dict], kinds: tuple[str, ...]) -> dict[str, float]:
    """For each layer, the median over the traces of the given kinds
    (``exp``, ``setup``) it ran in of its summed self time there.  A
    layer that never ran in them is left out."""
    own = self_times(spans)
    per_layer: dict[str, dict[str, float]] = {}
    for span in spans:
        trace = span["trace"] or ""
        if trace.split("-")[0] in kinds:
            sums = per_layer.setdefault(span["name"], {})
            sums[trace] = sums.get(trace, 0.0) + own[span["id"]]
    return {
        metric: statistics.median(per_layer[name].values())
        for metric, name in LAYER_TIMES.items()
        if name in per_layer
    }


def count_median(spans: list[dict], name: str, key: str, traces: set) -> float:
    """Median over ``traces`` of the per-trace sum of a span count."""
    sums = dict.fromkeys(traces, 0)
    for span in spans:
        if span["name"] == name and span["trace"] in sums:
            sums[span["trace"]] += span.get(key, 0)
    return statistics.median(sums.values())


def span_cost_s() -> float:
    """Calibrated cost of recording one span: a wrapped call minus a
    plain one."""

    class Probe:
        def call(self):
            return None

    probe, n = Probe(), 20000
    start = time.perf_counter()
    for _ in range(n):
        probe.call()
    plain = time.perf_counter() - start
    undo = install(Tracer(), [Patch(Probe, "call", "probe")])
    try:
        start = time.perf_counter()
        for _ in range(n):
            probe.call()
        traced = time.perf_counter() - start
    finally:
        uninstall(undo)
    return max(traced - plain, 0.0) / n
