"""Output checks, run outside every timed window.

Each check returns a list of problems; any problem fails the run.  The
support recount is deliberately naive (Python set containment over the
raw transactions) so it shares no code with ``repro.core.bitset``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.io.serialize import load_patterns, load_selection

#: Mined patterns whose support is recounted per experiment.
RECOUNT_SAMPLE = 200


def check_experiment(result, data, out_dir: Path, rng: np.random.Generator) -> list[str]:
    """``report.json`` matches the result, selected patterns were mined,
    sampled supports match a brute-force recount, and the model beats the
    majority class."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    agree = {
        "fingerprint": (report["fingerprint"], result.run_fingerprint),
        "n_patterns": (report["mining"]["n_patterns"], result.n_patterns),
        "n_selected": (report["selection"]["n_selected"], result.n_selected),
        "mean_accuracy": (report["cv"]["mean_accuracy"], result.mean_accuracy),
        "folds": (
            [f["accuracy"] for f in report["cv"]["folds"]],
            [f.accuracy for f in result.cv.folds],
        ),
    }
    for key, (in_report, returned) in agree.items():
        if in_report != returned:
            problems.append(f"report.json {key} {in_report!r} != result {returned!r}")

    mined = load_patterns(out_dir / "patterns.json").patterns
    selected = load_selection(out_dir / "selection.json").patterns
    if len(mined) != result.n_patterns or len(selected) != result.n_selected:
        problems.append("artifact pattern counts disagree with the result")
    mined_sets = {p.items for p in mined}
    strays = [p.items for p in selected if p.items not in mined_sets]
    if strays:
        problems.append(f"{len(strays)} selected patterns were never mined, e.g. {strays[0]}")

    rows = [frozenset(t) for t in data.transactions]
    sample = rng.choice(len(mined), size=min(RECOUNT_SAMPLE, len(mined)), replace=False)
    for index in sample:
        pattern = mined[int(index)]
        items = frozenset(pattern.items)
        recount = sum(1 for row in rows if items <= row)
        if recount != pattern.support:
            problems.append(
                f"pattern {pattern.items} support {pattern.support} != recount {recount}"
            )
            break

    majority = np.bincount(data.labels).max() / data.n_rows
    if not result.mean_accuracy > majority:
        problems.append(
            f"cv accuracy {result.mean_accuracy:.4f} <= majority rate {majority:.4f}"
        )
    return problems


def check_predictions(answers: dict, pipeline, held_out) -> list[str]:
    """Every sampled serving response equals the source pipeline's predict.

    ``answers`` maps a request's row indices (into ``held_out``) to the
    labels the frontend returned for them.
    """
    problems = []
    for indices, labels in answers.items():
        expected = pipeline.predict(held_out.subset(np.asarray(indices)))
        if not np.array_equal(np.asarray(labels), expected):
            problems.append(f"request rows {indices[:4]}...: served {labels} != predict {expected}")
            break
    return problems
