"""The repository benchmark: the paper's cross-validated pipeline and
compiled serving, timed end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload cv-waveform --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

* ``cv-waveform`` -- ``run_experiment`` on a 1,500-row sample of the
  waveform stand-in at min_sup 0.05, Pat_FS + LinearSVM, 3 folds;
* ``serve-waveform`` -- a compiled Pat_FS model behind ``ServingFrontend``
  under an open loop of 16-row requests at fixed rates.

The program is driven only through ``run_experiment``, ``compile_model``
and ``ServingFrontend.submit``; every input is generated here from
``--seed``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload with span wrappers (:mod:`tracing`), then one short
traced pass of the other workload, and prints every per-layer metric.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
output check or trace-coverage guard makes ``correct`` false and the exit
code 1.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Fresh interpreters timed per run; ``setup_s`` takes the median.
IMPORT_REPEATS = 3

WORKLOADS = {
    "cv-waveform": {"kind": "cv", "dataset": "waveform", "scale": 0.3, "min_support": 0.05},
    "serve-waveform": {"kind": "serve", "dataset": "waveform", "scale": 0.3},
}

#: A traced run also makes one short traced pass of the other workload
#: (one experiment, or one round of serving windows) after its own, so
#: every per-layer metric is measured on every traced run; the
#: workload's own figures win where both give one.
PROBES = {"cv-waveform": "serve-waveform", "serve-waveform": "cv-waveform"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the
    program and the workloads: the part of set-up before any input
    exists.  One in-process sample is as noisy as the host; three fresh
    processes are steadier."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import cv, serve"
    samples = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_traced(name: str, args, import_s: float) -> dict:
    """The workload's traced run merged with its probe's."""
    import cv
    import serve
    from common import OUT
    from layers import FORBIDDEN_IN_WINDOW
    from tracing import guard

    probe_name = PROBES[name]
    runs = []
    for run_name, seconds in ((name, args.seconds), (probe_name, 0.0)):
        config = WORKLOADS[run_name]
        workload = cv if config["kind"] == "cv" else serve
        run_args = argparse.Namespace(**{**vars(args), "seconds": seconds})
        report = workload.run(run_name, config, run_args, import_s, True)
        spans, expected, window = report["guard"]
        report["problems"] += guard(spans, expected, FORBIDDEN_IN_WINDOW, window)
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        suffix = "" if run_name == name else f"-probe-{run_name}"
        report["tracer"].write(trace_dir / f"{name}-seed{args.seed}{suffix}.jsonl")
        runs.append(report)
    own, probe = runs
    return {
        "attempted": own["attempted"] + probe["attempted"],
        "failed": own["failed"] + probe["failed"],
        "problems": own["problems"] + probe["problems"],
        "notes": own["notes"] + [f"probe {probe_name}: {note}" for note in probe["notes"]],
        "metrics": probe["metrics"] | own["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import cv
    import serve
    from common import OUT
    from layers import UNITS

    import_s = import_seconds()
    config = WORKLOADS[args.workload]
    workload = cv if config["kind"] == "cv" else serve
    try:
        if args.trace:
            report = run_traced(args.workload, args, import_s)
        else:
            report = workload.run(args.workload, config, args, import_s, False)
    finally:
        for name in WORKLOADS:
            shutil.rmtree(OUT / f"{name}-{args.seed}", ignore_errors=True)

    problems = report["problems"]
    units = UNITS if args.trace else END_TO_END_UNITS
    # A metric is missing only when its span never fired, which the
    # coverage guard has already reported as a problem.
    metrics = {metric: report["metrics"].get(metric, 0.0) for metric in units}
    for note in report["notes"]:
        print(f"# {note}")
    for metric, value in metrics.items():
        print(f"{metric:30s} {value:16.6f} {units[metric]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
