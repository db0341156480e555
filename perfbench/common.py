"""Inputs and statistics shared by the benchmark's workloads."""

from __future__ import annotations

import math
import resource
import statistics
from pathlib import Path

#: Run artifacts and trace files; inside the checkout, ignored by git.
OUT = Path(__file__).resolve().parent.parent / ".perfbench"

#: ``run_experiment`` settings shared by every workload (Pat_FS + SVM).
FOLDS = 3
MAX_LENGTH = 5
DELTA = 3


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples."""
    return max(1, math.ceil(round(q * n, 6)))  # round: 0.9 * 100 > 90


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list, ``0 < q < 1``."""
    return ordered[_rank(q, len(ordered)) - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it,
    or the median when the sample is too small for any of them."""
    ordered = sorted(values)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if len(ordered) - _rank(q, len(ordered)) >= 10:
            return percentile(ordered, q), label
    return statistics.median(ordered), "p50"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sample_dataset(config: dict, seed: int):
    """A seeded row sample of a registered dataset stand-in.

    The stand-in keeps its registered spec, and so its planted structure;
    the seed draws which ``scale`` share of its rows the workload uses.
    Reseeding the spec itself would re-plant the structure, which moves
    the mined pattern count (and run time) by a fifth from seed to seed.
    """
    import numpy as np

    from repro.datasets.synthetic import generate
    from repro.datasets.transactions import TransactionDataset
    from repro.datasets.uci import SCALABILITY_SPECS

    spec = SCALABILITY_SPECS[config["dataset"]]
    full = TransactionDataset.from_dataset(generate(spec))
    rng = np.random.default_rng([seed, 0])
    size = int(round(spec.n_rows * config["scale"]))
    return full.subset(np.sort(rng.choice(full.n_rows, size=size, replace=False)))


def pat_fs(min_support: float):
    """The fold pipeline ``run_experiment`` builds for Pat_FS + SVM."""
    from repro.experiments.registry import ExperimentConfig
    from repro.experiments.tables import make_variant

    config = ExperimentConfig(min_support=min_support, delta=DELTA, max_length=MAX_LENGTH)
    return make_variant("Pat_FS", "svm", config)()
