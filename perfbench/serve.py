"""Compiled serving workload (``serve-waveform``).

Set-up fits Pat_FS on a seeded 2/3 split of the waveform sample and
compiles it.  The timed window then sends 16-row requests drawn from the
held-out rows to a one-worker ``ServingFrontend`` in rounds.  Each round
holds one open-loop window per rate in :data:`RATES` (requests sent on a
fixed schedule whether or not earlier ones were answered, each timed
from when it was due) and one saturation window (the bounded queue kept
full).  Interleaving the windows spreads a stall of the host over every
rate alike.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

import numpy as np

from checks import check_predictions
from common import pat_fs, peak_rss_mb, percentile, sample_dataset, tail
from layers import EXPECTED, layer_times, serve_patches, span_cost_s
from tracing import Tracer, install, uninstall

from repro.serving.compiled import compile_model
from repro.serving.frontend import ServingFrontend

SETUP_REPEATS = 3
MIN_SUPPORT = 0.1
REQUEST_ROWS = 16
#: Requests per open-loop window: enough for ten beyond a window's p99.
WINDOW_REQUESTS = 1000
#: Requests per saturation window: about a second of work.
SATURATION_REQUESTS = 2000
#: Requests/s, about 1/6 to 1/2 of one worker's saturation throughput
#: (~2,900 requests/s on a 2-core x86 VM).  ``latency_ms`` is taken at
#: the middle rate.
RATES = (500, 1000, 1500)
#: The latency limit on a window's p99 that a rate must meet.
P99_LIMIT_MS = 10.0
#: Requests still unanswered when a window's last request was due, above
#: which the rate is judged to have a growing backlog.
BACKLOG_LIMIT = 32
#: The load generator shares the interpreter lock with the worker; at
#: the default 5 ms switch interval a generator wake-up can wait that
#: long behind a running request, which a client in its own process
#: never would.
SWITCH_INTERVAL_S = 0.0005
#: Sampled responses compared with the uncompiled pipeline.
CHECKED_RESPONSES = 200


def build(config: dict, seed: int):
    """(fitted pipeline, compiled model, held-out rows, compile seconds)."""
    data = sample_dataset(config, seed)
    order = np.random.default_rng([seed, 2]).permutation(data.n_rows)
    cut = 2 * data.n_rows // 3
    train = data.subset(np.sort(order[:cut]))
    held_out = data.subset(np.sort(order[cut:]))
    pipeline = pat_fs(MIN_SUPPORT).fit(train)
    start = time.perf_counter()
    model = compile_model(pipeline)
    return pipeline, model, held_out, time.perf_counter() - start


def open_loop(frontend, pool: list, rate: int, first: int, pending) -> tuple:
    """Submit :data:`WINDOW_REQUESTS` requests ``1/rate`` s apart, never
    waiting for replies, then wait for all of them.

    Request ``k`` of the run (counting from ``first``) is pool entry
    ``k``.  Returns one record per request and the number still
    unanswered when the last one was due.
    """
    records, futures = [], []
    start = time.perf_counter()
    for k in range(WINDOW_REQUESTS):
        due = start + k / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        indices, rows = pool[(first + k) % len(pool)]
        transactions = list(rows)  # one object per request: ids key traces
        record = {
            "trace": f"req-{first + k}",
            "due": due,
            "indices": indices,
            "done": None,
            "labels": None,
        }
        if pending is not None:
            pending[id(transactions)] = record["trace"]
        record["sent"] = time.perf_counter()
        records.append(record)
        try:
            future = frontend.submit(transactions)
        except Exception as exc:  # a rejected request is a counted failure
            record["error"] = repr(exc)
            continue

        def finished(future, record=record):
            record["done"] = time.perf_counter()
            if future.exception() is None:
                record["labels"] = future.result()

        future.add_done_callback(finished)
        futures.append(future)
    last_due = start + (WINDOW_REQUESTS - 1) / rate
    outstanding = sum(1 for r in records if r["done"] is None or r["done"] > last_due)
    for future in futures:
        future.exception()  # wait for the reply; its outcome is in the record
    return records, outstanding


def saturate(frontend, pool: list, first: int) -> tuple[float, int]:
    """Submit :data:`SATURATION_REQUESTS` requests back to back; ``submit``
    blocks while the bounded queue is full.  Returns (answered requests
    per second, failed requests)."""
    futures, failed = [], 0
    start = time.perf_counter()
    for k in range(SATURATION_REQUESTS):
        try:
            futures.append(frontend.submit(list(pool[(first + k) % len(pool)][1])))
        except Exception:  # a rejected request is a counted failure
            failed += 1
    failed += sum(1 for future in futures if future.exception() is not None)
    return (SATURATION_REQUESTS - failed) / (time.perf_counter() - start), failed


def latencies_ms(records: list[dict]) -> list[float]:
    """Due-to-answer latency; a failed request never meets a limit."""
    return [
        (r["done"] - r["due"]) * 1000 if r["labels"] is not None else float("inf")
        for r in records
    ]


def serve_windows(model, pool: list, seconds: float, pending) -> tuple[dict, list]:
    """Rounds of windows until ``seconds`` would be exceeded (at least
    one round).  Returns (rate -> list of (records, backlog), list of
    (saturation throughput, failed))."""
    windows = {rate: [] for rate in RATES}
    saturation = []
    sent = 0
    frontend = ServingFrontend(model, n_workers=1, queue_size=64)
    try:
        open_loop(frontend, pool, RATES[0], 0, None)  # warm-up, not measured
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            for rate in RATES:
                windows[rate].append(open_loop(frontend, pool, rate, sent, pending))
                sent += WINDOW_REQUESTS
            saturation.append(saturate(frontend, pool, sent))
            sent += SATURATION_REQUESTS
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
    finally:
        frontend.close()
    return windows, saturation


def run(name: str, config: dict, args, import_s: float, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    pending = {} if traced else None
    undo = install(tracer, serve_patches(tracer, pending)) if tracer else []
    try:
        return _run(name, config, args, import_s, tracer, pending)
    finally:
        uninstall(undo)


def _run(name, config, args, import_s, tracer, pending) -> dict:
    builds, compiles = [], []
    for repeat in range(SETUP_REPEATS):
        if tracer:
            tracer.set_trace(f"setup-{repeat}")
        start = time.perf_counter()
        pipeline, model, held_out, compile_s = build(config, args.seed)
        builds.append(time.perf_counter() - start)
        compiles.append(compile_s)
    setup_s = import_s + statistics.median(builds)
    if tracer:
        tracer.set_trace(None)

    rng = np.random.default_rng([args.seed, 3])
    pool = []
    for _ in range(4096):
        indices = tuple(int(i) for i in rng.choice(held_out.n_rows, REQUEST_ROWS, replace=False))
        pool.append((indices, [held_out.transactions[i] for i in indices]))

    # Set-up objects live for the whole window; freezing them keeps the
    # collector's full passes from rescanning them mid-window.
    gc.collect()
    gc.freeze()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    window_start = time.perf_counter()
    try:
        windows, saturation = serve_windows(model, pool, args.seconds, pending)
    finally:
        sys.setswitchinterval(switch_interval)
        gc.unfreeze()
    window = (window_start, time.perf_counter())

    records = [r for runs in windows.values() for rs, _ in runs for r in rs]
    answered = [r for r in records if r["labels"] is not None]
    # A rate meets the limit when the medians over its windows of the
    # window p99 and of the window backlog are within their limits.
    p99s = {
        rate: statistics.median(tail(latencies_ms(rs))[0] for rs, _ in runs)
        for rate, runs in windows.items()
    }
    backlogs = {
        rate: statistics.median(backlog for _, backlog in runs)
        for rate, runs in windows.items()
    }
    max_rps = max(
        (rate for rate in RATES if p99s[rate] <= P99_LIMIT_MS and backlogs[rate] <= BACKLOG_LIMIT),
        default=0,
    )
    middle = RATES[len(RATES) // 2]
    middle_ms = sorted(ms for rs, _ in windows[middle] for ms in latencies_ms(rs))
    attempted = len(records) + SATURATION_REQUESTS * len(saturation)
    failed = len(records) - len(answered) + sum(f for _, f in saturation)

    if tracer:
        tracer.set_trace("check")
    step = max(1, len(answered) // CHECKED_RESPONSES)
    problems = check_predictions(
        {r["indices"]: r["labels"] for r in answered[::step]}, pipeline, held_out
    )
    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": [
            f"{rate}/s: {len(runs)} windows of {WINDOW_REQUESTS} requests, median window "
            f"p99 {p99s[rate]:.3f} ms, median backlog {backlogs[rate]}"
            for rate, runs in windows.items()
        ]
        + [
            f"at {middle}/s: p90 {percentile(middle_ms, 0.9):.3f} ms, "
            f"p99 {percentile(middle_ms, 0.99):.3f} ms over {len(middle_ms)} requests",
            f"highest rate with median window p99 <= {P99_LIMIT_MS} ms "
            f"and no growing backlog: {max_rps}/s",
        ],
    }
    if not tracer:
        labels = held_out.labels
        hits = sum(int(np.sum(r["labels"] == labels[list(r["indices"])])) for r in answered)
        report["metrics"] = {
            "setup_s": setup_s,
            # Median over windows of the window p50: a host stall that
            # slows a minority of windows does not move it.
            "latency_ms": statistics.median(
                statistics.median(latencies_ms(rs)) for rs, _ in windows[middle]
            ),
            "throughput_per_s": statistics.median(rps for rps, _ in saturation),
            "accuracy": hits / (len(answered) * REQUEST_ROWS) if answered else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "ok_rate": 1.0 - failed / attempted,
        }
        return report

    spans = tracer.spans
    metrics = layer_times(spans, ("setup",))
    served = [s for s in spans if (s["trace"] or "").startswith("req-")]
    executes = [s["end"] - s["start"] for s in served if s["name"] == "serving.execute"]
    claimed = {s["trace"]: s["start"] for s in served if s["name"] == "serving.claim"}
    sent = {r["trace"]: r["sent"] for r in records}
    waits = [claimed[t] - sent[t] for t in claimed]
    total = sum(r["done"] - r["due"] for r in answered)
    metrics.update(
        {
            "serving.compile_s": statistics.median(compiles),
            "serving.execute_ms_p50": statistics.median(executes) * 1000,
            "serving.execute_ms_p99": tail(executes)[0] * 1000,
            "serving.rows_per_execute_s": len(executes) * REQUEST_ROWS / sum(executes),
            "serving.queue_wait_ms_p50": statistics.median(waits) * 1000,
            "serving.queue_wait_ms_p99": tail(waits)[0] * 1000,
            "serving.latency_ms_p99": percentile(middle_ms, 0.99),
            "serving.max_rps": float(max_rps),
            "bench.gen_late_ms_p99": tail([(r["sent"] - r["due"]) * 1000 for r in records])[0],
            # Request time spent neither queued nor executing: generator
            # lateness, submit and reply hand-off.
            "bench.unattributed_ratio": max(total - sum(executes) - sum(waits), 0.0) / total,
            "bench.trace_overhead_ratio": len(served) * span_cost_s() / (window[1] - window[0]),
        }
    )
    report["metrics"] = metrics
    report["guard"] = (spans, EXPECTED[name], window)
    report["tracer"] = tracer
    return report
