"""One spec for ``repro experiment``: every setting reaches the fold fits.

:func:`repro.runtime.run_experiment` builds the final fit on all rows and
every fold fit from one ``make_variant(spec.variant, spec.model, spec)``
call.  These tests pin that contract: each spec field either changes the
fold pipeline's constructor parameters or is listed below with a reason;
``--relevance`` changes fold selections; the final-fit artifacts are the
feature set a fit on all rows selects; and the ``pipeline.fit`` spans of
a traced run carry the settings the fits used.
"""

from __future__ import annotations

import inspect
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import pytest

import repro.runtime.experiment as experiment
from repro.cli import main
from repro.datasets.transactions import TransactionDataset
from repro.datasets.uci import load_uci
from repro.experiments.tables import make_variant
from repro.features.pipeline import FrequentPatternClassifier
from repro.io.serialize import load_selection
from repro.obs import load_trace, validate_file
from repro.runtime import ExperimentSpec, run_experiment

SPEC = ExperimentSpec(dataset="planted", min_support=0.3, folds=2, max_length=3)

#: Fields that do not change the fold pipeline, each with the reason.
NOT_PIPELINE_SETTINGS = {
    "dataset": "run identity: names the rows, which the fingerprint hashes",
    "scale": "run identity: sizes the rows, which the fingerprint hashes",
    "folds": "run identity: the CV split, not a fit setting",
    "seed": "run identity: the CV split, not a fit setting",
    "variant": "run identity: selects which pipeline make_variant builds",
    "model": "run identity: selects which learner make_variant builds",
    "shard_rows": "output-invariant: sharded == batch artifacts (pinned in "
    "test_mining_sharded::test_sharded_experiment_matches_batch_artifacts)",
    "condense": "output-invariant: sharded == batch artifacts (pinned in "
    "test_mining_sharded::test_sharded_experiment_matches_batch_artifacts)",
}

#: A changed value for every field that must reach the fold pipeline.
CHANGED = {
    "min_support": 0.4,
    "max_length": 2,
    "max_patterns": 1_000,
    "delta": 2,
    "relevance": "fisher",
}


class _Captured(Exception):
    def __init__(self, factory):
        super().__init__("fold factory captured")
        self.factory = factory


def _fold_parameters(spec, data, tmp_path, monkeypatch) -> dict:
    """Constructor parameters of the fold pipeline ``run_experiment``
    hands to cross-validation (the run stops there)."""

    def capture(factory, *args, **kwargs):
        raise _Captured(factory)

    monkeypatch.setattr(experiment, "cross_validate_pipeline", capture)
    with pytest.raises(_Captured) as caught:
        run_experiment(data, spec, tmp_path / "run")
    pipeline = caught.value.factory()
    names = inspect.signature(FrequentPatternClassifier).parameters
    params = {name: getattr(pipeline, name) for name in names}
    learner = params.pop("classifier")
    params["classifier"] = (type(learner).__name__, vars(learner))
    return params


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentSpec)])
def test_every_spec_field_reaches_the_fold_pipeline_or_is_listed(
    name, tmp_path, monkeypatch, planted_transactions
):
    if name in NOT_PIPELINE_SETTINGS:
        assert name not in CHANGED
        return
    assert name in CHANGED, (
        f"ExperimentSpec.{name} is unclassified: make it reach the fold "
        "pipeline (and add a changed value) or list it with a reason"
    )
    assert getattr(SPEC, name) != CHANGED[name]
    base = _fold_parameters(SPEC, planted_transactions, tmp_path / "a", monkeypatch)
    changed = _fold_parameters(
        replace(SPEC, **{name: CHANGED[name]}),
        planted_transactions,
        tmp_path / "b",
        monkeypatch,
    )
    assert base != changed


def test_invalid_variant_raises_before_any_artifact(tmp_path, planted_transactions):
    out = tmp_path / "run"
    bad_specs = (
        replace(SPEC, variant="Nope"),
        replace(SPEC, variant="Item_RBF", model="c45"),
    )
    for bad in bad_specs:
        with pytest.raises(ValueError):
            run_experiment(planted_transactions, bad, out)
        assert not out.exists()


def test_relevance_changes_fold_selections(tmp_path):
    data = TransactionDataset.from_dataset(load_uci("austral", scale=0.5))
    spec = ExperimentSpec(dataset="austral", scale=0.5, folds=3)
    counts = {}
    for relevance in ("information_gain", "fisher"):
        result = run_experiment(
            data, replace(spec, relevance=relevance), tmp_path / relevance
        )
        counts[relevance] = [f.n_selected_patterns for f in result.cv.folds]
    assert counts["information_gain"] != counts["fisher"]


def _items(patterns) -> list[tuple[tuple[int, ...], int]]:
    return [(p.items, p.support) for p in patterns]


@pytest.mark.parametrize("variant", ["Pat_FS", "Pat_All", "Item_All"])
def test_final_fit_artifacts_equal_a_fit_on_all_rows(
    variant, tmp_path, planted_transactions
):
    spec = replace(SPEC, variant=variant)
    run_experiment(planted_transactions, spec, tmp_path)
    written = _items(load_selection(tmp_path / "selection.json").patterns)
    fitted = make_variant(variant, "svm", spec)().fit(planted_transactions)
    expected = _items(fitted.selected_patterns)
    if variant == "Pat_All":
        # every candidate is kept; selection.json lists them by relevance
        written, expected = sorted(written), sorted(expected)
    assert written == expected
    assert bool(expected) == (variant != "Item_All")


def test_final_fit_applies_the_pipelines_candidate_cap(
    tmp_path, monkeypatch, planted_transactions
):
    def capped(*args):
        build = make_variant(*args)

        def factory():
            pipeline = build()
            pipeline.max_candidates = 5
            return pipeline

        return factory

    monkeypatch.setattr(experiment, "make_variant", capped)
    run_experiment(planted_transactions, SPEC, tmp_path)
    written = _items(load_selection(tmp_path / "selection.json").patterns)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["selection"]["considered"] == 5
    fitted = capped("Pat_FS", "svm", SPEC)().fit(planted_transactions)
    assert written == _items(fitted.selected_patterns)


def test_trace_spans_record_the_settings_fits_used(tmp_path):
    trace_path = tmp_path / "run.jsonl"
    out = tmp_path / "run"
    argv = [
        "experiment", "austral", "--scale", "0.2", "--min-support", "0.25",
        "--folds", "2", "--relevance", "fisher", "--out", str(out),
        "--trace", str(trace_path),
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert validate_file(trace_path) == []
    spans = load_trace(trace_path).spans
    fits = [s["attrs"] for s in spans if s["name"] == "pipeline.fit"]
    assert len(fits) == 2
    for attrs in fits:
        assert attrs["relevance"] == "fisher"
        assert attrs["on_guard"] == "items_only"
        assert attrs["selection"] == "mmrfs"
        assert attrs["delta"] == 3
        assert attrs["min_support"] == 0.25
    [root] = [s["attrs"] for s in spans if s["name"] == "runtime.experiment"]
    run = json.loads((out / "run.json").read_text())
    assert root["fingerprint"] == run["fingerprint"]
