"""Serving-throughput benchmark: compiled matcher vs naive subset checks.

The tentpole claim of the serving layer is quantitative: on a
10k-pattern model, the compiled item-indexed matcher + fused decision
function must beat the naive per-pattern subset-check path (one Python
AND-reduction per pattern, :func:`_per_pattern_match_matrix` / the
pipeline's design-matrix ``predict``) by at least 5x.  Both paths run
over the same transactions and the matcher ratio isolates exactly what
compilation removed: the per-pattern Python AND-reduction loop and the
float64 design materialization.  The transformer's ``match_matrix``
shares the compiled matcher's ``PatternCovers`` kernel, so the naive
matcher is kept here as a reference loop.

Writes ``BENCH_serving.json`` with both wall-time pairs and the
speedups, appends ``serving.compiled_match_wall_s`` and
``serving.predict_wall_s`` to the trend store for ``repro bench check``,
and asserts the 5x floor on the matcher.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.classifiers.naive_bayes import BernoulliNaiveBayes
from repro.core.bitset import BitMatrix
from repro.datasets import SyntheticSpec, TransactionDataset, generate
from repro.features.pipeline import FrequentPatternClassifier
from repro.mining import Pattern
from repro.serving import compile_model

#: Pattern count the 5x claim is made at.
N_PATTERNS = 10_000
#: Minimum speedup of the compiled matcher over the naive subset checks.
SPEEDUP_FLOOR = 5.0

_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _served_model() -> tuple[FrequentPatternClassifier, TransactionDataset]:
    """A fitted pipeline padded to exactly ``N_PATTERNS`` patterns.

    Naive Bayes keeps the fit closed-form at 10k features; the matcher
    workload is identical for every linear learner.
    """
    spec = SyntheticSpec(
        name="serving-bench",
        n_rows=2000,
        n_attributes=12,
        n_classes=2,
        arity=3,
        pattern_attributes=4,
        combos_per_class=3,
        pattern_strength=0.8,
        single_attributes=2,
        single_strength=0.3,
        attribute_noise=0.05,
        label_noise=0.02,
        seed=11,
    )
    data = TransactionDataset.from_dataset(generate(spec))
    pipeline = FrequentPatternClassifier(
        classifier=BernoulliNaiveBayes(),
        min_support=0.05,
        selection="topk",
        top_k=N_PATTERNS,
        max_length=4,
        miner="all",
        max_patterns=500_000,
    )
    pipeline.fit(data)
    patterns = list(pipeline.featurizer_.patterns)
    rng = np.random.default_rng(13)
    while len(patterns) < N_PATTERNS:
        items = tuple(
            int(i)
            for i in np.sort(rng.choice(data.n_items, size=3, replace=False))
        )
        pattern = Pattern(items=items, support=0)
        if pattern not in patterns:
            patterns.append(pattern)
    # Refit the learner on the padded feature space so both paths predict
    # with the same 10k-pattern model.
    pipeline.featurizer_ = type(pipeline.featurizer_)(
        n_items=data.n_items,
        patterns=patterns[:N_PATTERNS],
        include_items=True,
    )
    design = pipeline.featurizer_.transform(data)
    pipeline.model_ = BernoulliNaiveBayes().fit(design, data.labels)
    pipeline.item_mask_ = None
    return pipeline, data


def _per_pattern_match_matrix(patterns, transactions, n_items) -> np.ndarray:
    """Naive matcher: one AND-reduction over item masks per pattern."""
    item_bits = BitMatrix.vertical(transactions, n_items)
    words = np.stack([item_bits.and_reduce(p.items) for p in patterns])
    return BitMatrix(words, len(transactions)).to_dense().T


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_compiled_serving_speedup(report_lines, trend):
    pipeline, data = _served_model()
    compiled = compile_model(pipeline)
    transactions = data.transactions
    featurizer = pipeline.featurizer_
    data.item_bits()  # warm the shared packed cache outside the timed region

    # Differential guards: the benchmark only counts if the compiled path
    # is exact — matcher and end-to-end predictions both.
    def naive_match():
        return _per_pattern_match_matrix(
            featurizer.patterns, transactions, data.n_items
        )

    naive_matches = naive_match()
    compiled_matches = compiled.match_matrix(transactions)
    assert np.array_equal(naive_matches, compiled_matches)
    assert np.array_equal(featurizer.match_matrix(transactions), naive_matches)
    naive_labels = pipeline.predict(data)
    compiled_labels = compiled.predict(transactions)
    assert np.array_equal(naive_labels, compiled_labels)

    # Matcher comparison is sanitize=False on both sides: the naive
    # transformer assumes canonical transactions, so the compiled side
    # skips ingestion too.  The e2e predict pair below keeps the compiled
    # path's sanitization in its timing (the pipeline has none).
    naive_match_time = _best_of(naive_match)
    compiled_match_time = _best_of(
        lambda: compiled.match_matrix(transactions, sanitize=False)
    )
    match_speedup = naive_match_time / compiled_match_time

    naive_predict_time = _best_of(lambda: pipeline.predict(data))
    compiled_predict_time = _best_of(lambda: compiled.predict(transactions))
    predict_speedup = naive_predict_time / compiled_predict_time

    report = {
        "benchmark": "serving_throughput",
        "workload": (
            f"{N_PATTERNS}-pattern model, {data.n_rows} rows, "
            f"{data.n_items} items"
        ),
        "n_patterns": N_PATTERNS,
        "naive_match_wall_s": round(naive_match_time, 6),
        "compiled_match_wall_s": round(compiled_match_time, 6),
        "match_speedup": round(match_speedup, 2),
        "naive_predict_wall_s": round(naive_predict_time, 6),
        "compiled_predict_wall_s": round(compiled_predict_time, 6),
        "predict_speedup": round(predict_speedup, 2),
        "rows_per_s": round(data.n_rows / compiled_predict_time, 1),
        "speedup_floor": SPEEDUP_FLOOR,
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    trend(
        "serving.compiled_match_wall_s",
        compiled_match_time,
        meta={"n_patterns": N_PATTERNS, "speedup": round(match_speedup, 2)},
    )
    trend(
        "serving.predict_wall_s",
        compiled_predict_time,
        meta={"n_patterns": N_PATTERNS, "speedup": round(predict_speedup, 2)},
    )

    report_lines.append(
        "serving throughput: naive subset-check path vs compiled matcher\n"
        f"  match  {N_PATTERNS} patterns: naive {1e3 * naive_match_time:8.2f} ms   "
        f"compiled {1e3 * compiled_match_time:8.2f} ms   "
        f"speedup {match_speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)\n"
        f"  e2e    predict:  naive {1e3 * naive_predict_time:8.2f} ms   "
        f"compiled {1e3 * compiled_predict_time:8.2f} ms   "
        f"speedup {predict_speedup:.1f}x "
        f"({report['rows_per_s']:,.0f} rows/s)\n"
        f"  wrote {_REPORT_PATH.name}"
    )

    assert match_speedup >= SPEEDUP_FLOOR, (
        f"compiled matcher is only {match_speedup:.2f}x faster than the "
        f"naive subset checks at {N_PATTERNS} patterns; the floor is "
        f"{SPEEDUP_FLOOR:.0f}x"
    )
    assert predict_speedup >= SPEEDUP_FLOOR, (
        f"compiled predict is only {predict_speedup:.2f}x faster than the "
        f"pipeline at {N_PATTERNS} patterns; the floor is "
        f"{SPEEDUP_FLOOR:.0f}x"
    )
