"""Cross-validated experiment workload (``cv-waveform``).

One operation is one ``run_experiment`` call: whole-dataset mining and
MMRFS, then 3-fold Pat_FS + LinearSVM, from input to complete report.
The run repeats it on the same input until ``--seconds`` would be
exceeded (at least once) and reports medians.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from checks import check_experiment
from common import DELTA, FOLDS, MAX_LENGTH, OUT, peak_rss_mb, sample_dataset
from layers import EXPECTED, LAYER_TIMES, count_median, cv_patches, layer_times, span_cost_s
from tracing import Tracer, install, self_times, uninstall

from repro.runtime.cache import ArtifactCache
from repro.runtime.experiment import ExperimentSpec, run_experiment

#: Set-up builds per run; ``setup_s`` takes the median.
SETUP_REPEATS = 5


def partitions(out_dir: Path) -> tuple[int, int]:
    """(partitions mined, partitions degraded by a guard) in the
    whole-dataset pass, read from the flag its checkpoint artifacts carry.

    Fold fits mine with ``on_guard="raise"``, so a trip there fails the
    experiment instead.  The program's ``degraded_partitions`` counter
    holds the same number but exists only inside an observability
    session, which would slow the run it measures.
    """
    cache = ArtifactCache(out_dir / "cache")
    files = sorted((out_dir / "cache" / "mine_partition").glob("*.json"))
    payloads = [cache.get("mine_partition", path.stem) for path in files]
    return len(payloads), sum(1 for p in payloads if p.get("degraded"))


def unattributed(spans: list[dict], experiments: set) -> float:
    """Median over experiments of the share of ``run_experiment`` time
    owned by spans no layer metric reports (fold loop, scoring glue)."""
    own = self_times(spans)
    reported = set(LAYER_TIMES.values())
    shares = []
    for trace in experiments:
        mine = [s for s in spans if s["trace"] == trace]
        root = next(s for s in mine if s["name"] == "runtime.experiment")
        glue = sum(own[s["id"]] for s in mine if s["name"] not in reported)
        shares.append(glue / (root["end"] - root["start"]))
    return statistics.median(shares)


def run(name: str, config: dict, args, import_s: float, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    undo = install(tracer, cv_patches()) if tracer else []
    try:
        return _run(name, config, args, import_s, tracer)
    finally:
        uninstall(undo)


def _run(name, config, args, import_s, tracer) -> dict:
    builds = []
    for repeat in range(SETUP_REPEATS):
        if tracer:
            tracer.set_trace(f"setup-{repeat}")
        start = time.perf_counter()
        data = sample_dataset(config, args.seed)
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    spec = ExperimentSpec(
        dataset=config["dataset"],
        scale=config["scale"],
        min_support=config["min_support"],
        max_length=MAX_LENGTH,
        delta=DELTA,
        folds=FOLDS,
        seed=args.seed,
    )
    rng = np.random.default_rng([args.seed, 1])
    walls, accuracies, problems = [], [], []
    attempted = failed = 0
    cache_bytes = 0
    degraded_partitions = []
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(walls)
        out_dir = OUT / f"{name}-{args.seed}" / f"exp{index}"
        attempted += 1
        result = None
        if tracer:
            tracer.set_trace(f"exp-{index}")
        root = tracer.span("runtime.experiment") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with root:
                result = run_experiment(data, spec, out_dir, n_jobs=1)
        except Exception as exc:  # a raised experiment is a counted failure
            failed += 1
            print(f"experiment {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        walls.append(time.perf_counter() - start)

        if tracer:
            tracer.set_trace(f"check-{index}")
        if result is not None:
            problems += check_experiment(result, data, out_dir, rng)
            accuracies.append(result.mean_accuracy)
            mined, degraded = partitions(out_dir)
            attempted += mined
            failed += degraded
            degraded_partitions.append(degraded)
            cache_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        shutil.rmtree(out_dir, ignore_errors=True)
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    if not accuracies:
        problems.append("every experiment raised")

    wall = statistics.median(walls)
    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": [f"experiments: {', '.join(f'{w:.3f}' for w in walls)} s"],
    }
    if not tracer:
        report["metrics"] = {
            "setup_s": setup_s,
            "latency_ms": wall * 1000,
            "throughput_per_s": 1.0 / wall,
            "accuracy": statistics.median(accuracies) if accuracies else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "ok_rate": 1.0 - failed / attempted,
        }
        return report

    spans = tracer.spans
    experiments = {f"exp-{i}" for i in range(len(walls))}
    metrics = layer_times(spans, ("exp",))
    # Encoding happens once per set-up build, not inside experiments.
    metrics |= {
        metric: value
        for metric, value in layer_times(spans, ("setup",)).items()
        if metric == "datasets.encode_s"
    }
    patterns = count_median(spans, "mining.fold", "patterns", experiments)
    considered = count_median(spans, "selection.fold", "considered", experiments)
    selected = count_median(spans, "selection.fold", "selected", experiments)
    fold_s = metrics.get("mining.fold_s", 0.0)
    metrics.update(
        {
            "mining.patterns": patterns,
            "mining.patterns_per_s": patterns / fold_s if fold_s else 0.0,
            "mining.degraded_partitions": max(degraded_partitions, default=0),
            "selection.considered": considered,
            "selection.selected": selected,
            "selection.keep_ratio": selected / considered if considered else 0.0,
            "features.design_cells": count_median(
                spans, "features.transform", "cells", experiments
            ),
            "runtime.cache_bytes": cache_bytes,
            "bench.unattributed_ratio": unattributed(spans, experiments),
            "bench.trace_overhead_ratio": sum(
                1 for s in spans if s["trace"] in experiments
            ) * span_cost_s() / sum(walls),
        }
    )
    report["metrics"] = metrics
    report["guard"] = (spans, EXPECTED[name], None)
    report["tracer"] = tracer
    return report
