"""The fault-tolerant, resumable end-to-end experiment driver.

``repro experiment DATASET --out DIR`` runs the paper's full pipeline from
one :class:`ExperimentSpec`: a *final fit on all rows* (per-class
closed-pattern mining, the relevance cap, MMRFS) whose feature set is
saved as artifacts, then cross-validated evaluation, where mining and
selection run again inside every training fold.  Both are built by one
:func:`~repro.experiments.tables.make_variant` call, so every setting the
spec names reaches the fold fits.  The stages are checkpointed in a run
directory::

    DIR/
      run.json         run identity: config fingerprint, spec, dataset hash
      cache/           content-addressed stage artifacts (ArtifactCache)
        mine_partition/<key>.json     one per class partition
        select/<key>.json             the final fit's selection
        fold/<key>.json               one per outer CV fold
      patterns.json    final fit: merged mined patterns
      selection.json   final fit: the selected feature set
      report.json      final artifact: fold scores + summary (deterministic)

``--resume`` replays the same spec against the same directory: stages
whose artifacts are present are restored instead of recomputed, and
because every cache key pins the dataset content hash and the complete
stage configuration, a resumed run's final artifacts are byte-identical
to an uninterrupted run's.  Resuming against a directory whose
``run.json`` was produced by a *different* spec or dataset fails loudly
(:class:`ResumeMismatchError`) — silently mixing two runs' artifacts is
the one thing a checkpoint store must never do — and a corrupt artifact
fails with :class:`~repro.runtime.cache.CorruptArtifactError`.

Failure handling within a run: process-pool worker deaths are retried
(:data:`~repro.runtime.retry.DEFAULT_RETRY`), and partitions that trip
the pattern-budget guard degrade to items-only features
(``on_guard="items_only"``) instead of aborting the run, in the final fit
and in every fold fit alike.

The driver plants ``stage:<name>`` fault points after each stage
completes, which is how the crash/resume test suite stages mid-run power
loss deterministically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from ..datasets.transactions import TransactionDataset
from ..eval.cross_validation import CVReport, FoldScore, cross_validate_pipeline
from ..experiments.registry import ExperimentConfig
from ..experiments.tables import make_variant
from ..features.pipeline import cap_candidates
from ..io.serialize import (
    save_patterns,
    save_selection,
    selection_from_json,
    selection_to_json,
)
from ..mining.generation import mine_class_patterns
from ..mining.itemsets import MiningResult
from ..obs import core as _obs
from ..selection.mmrfs import mmrfs, top_k_by_relevance
from ..testing import faults as _faults
from .cache import ArtifactCache, fingerprint
from .retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "FoldCheckpointer",
    "ResumeError",
    "ResumeMissingError",
    "ResumeMismatchError",
    "run_experiment",
]

_RUN_FORMAT_VERSION = 1


class ResumeError(RuntimeError):
    """Base class for ``--resume`` failures."""


class ResumeMissingError(ResumeError):
    """``--resume`` pointed at a directory without a run manifest."""


class ResumeMismatchError(ResumeError):
    """The run directory belongs to a different spec or dataset."""


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(ExperimentConfig):
    """Everything that determines an experiment's outcome.

    The pipeline settings are the inherited :class:`ExperimentConfig`
    fields; the spec adds the run's identity and two out-of-core knobs.
    The final fit and every fold fit are built from it by one
    :func:`~repro.experiments.tables.make_variant` call.

    The spec (plus the dataset's content hash) is the run's fingerprint:
    two runs with equal fingerprints produce byte-identical artifacts, so
    the fingerprint is what ``--resume`` checks before trusting a cache.
    """

    dataset: str
    scale: float = 1.0
    variant: str = "Pat_FS"
    model: str = "svm"
    folds: int = 3
    seed: int = 0
    #: Rows per mmap shard for the final fit's out-of-core mining;
    #: ``None`` keeps the in-memory batch path.  The two paths produce
    #: identical artifacts (property-tested), so this is purely a
    #: memory/scale knob.
    shard_rows: int | None = None
    #: Non-derivable-itemset condensation for the sharded counting pass.
    condense: bool = False


@dataclass
class ExperimentResult:
    """Outcome of one (possibly resumed) experiment run."""

    out_dir: Path
    run_fingerprint: str
    #: Patterns mined and selected by the final fit on all rows.
    n_patterns: int
    n_selected: int
    cv: CVReport

    @property
    def mean_accuracy(self) -> float:
        return self.cv.mean_accuracy


class FoldCheckpointer:
    """Fold-outcome store backed by an :class:`ArtifactCache`.

    The duck-typed ``checkpoint`` collaborator of
    :func:`~repro.eval.cross_validation.cross_validate_pipeline`: one
    artifact per fold, keyed by the run fingerprint and fold index.
    """

    STAGE = "fold"

    def __init__(self, cache: ArtifactCache, run_key: str, model_name: str) -> None:
        self._cache = cache
        self._run_key = run_key
        self._model_name = model_name

    def _key(self, fold_index: int) -> str:
        return fingerprint(
            stage=self.STAGE,
            run=self._run_key,
            model=self._model_name,
            fold=fold_index,
        )

    def load(self, fold_index: int) -> FoldScore | None:
        payload = self._cache.get(self.STAGE, self._key(fold_index))
        if payload is None:
            return None
        return FoldScore(
            fold=int(payload["fold"]),
            accuracy=float(payload["accuracy"]),
            n_train=int(payload["n_train"]),
            n_test=int(payload["n_test"]),
            n_selected_patterns=int(payload["n_selected_patterns"]),
        )

    def store(self, fold_index: int, score: FoldScore) -> None:
        self._cache.put(self.STAGE, self._key(fold_index), asdict(score))
        _faults.fault_point("stage", f"fold:{fold_index}")


def _dump_json(payload: Any, path: Path) -> None:
    """Deterministic JSON artifact write (sorted keys, fixed layout)."""
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def run_fingerprint(spec: ExperimentSpec, data: TransactionDataset) -> str:
    """The run's identity: spec plus dataset content hash."""
    return fingerprint(
        format=_RUN_FORMAT_VERSION,
        spec=asdict(spec),
        dataset_hash=data.content_hash(),
    )


def _write_run_manifest(
    path: Path, spec: ExperimentSpec, data: TransactionDataset, key: str
) -> None:
    _dump_json(
        {
            "format_version": _RUN_FORMAT_VERSION,
            "fingerprint": key,
            "spec": asdict(spec),
            "dataset": {
                "name": data.name,
                "rows": data.n_rows,
                "items": data.n_items,
                "classes": data.n_classes,
                "content_hash": data.content_hash(),
            },
        },
        path,
    )


def _check_resumable(path: Path, key: str) -> None:
    """Validate the existing run manifest against this run's identity."""
    if not path.exists():
        raise ResumeMissingError(
            f"cannot resume: no run manifest at {path} "
            "(was this directory produced by 'repro experiment'?)"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ResumeMismatchError(
            f"cannot resume: run manifest {path} is not valid JSON ({exc})"
        ) from exc
    if manifest.get("format_version") != _RUN_FORMAT_VERSION:
        raise ResumeMismatchError(
            f"cannot resume: unsupported run format "
            f"{manifest.get('format_version')!r} in {path}"
        )
    found = manifest.get("fingerprint")
    if found != key:
        raise ResumeMismatchError(
            "cannot resume: run directory was produced by a different "
            f"spec or dataset (fingerprint {found!r} != {key!r}); "
            "rerun without --resume to start fresh"
        )


def run_experiment(
    data: TransactionDataset,
    spec: ExperimentSpec,
    out_dir: str | Path,
    resume: bool = False,
    n_jobs: int | None = 1,
    retry: RetryPolicy | None = DEFAULT_RETRY,
) -> ExperimentResult:
    """Run (or resume) the checkpointed end-to-end experiment.

    Without ``resume``, any artifacts from a previous run in ``out_dir``
    are cleared first; with it, the run manifest is verified against this
    run's fingerprint and completed stages are restored from the cache.
    An invalid ``spec.variant``/``spec.model`` raises ``ValueError``
    before anything is written.
    """
    factory = make_variant(spec.variant, spec.model, spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    key = run_fingerprint(spec, data)
    manifest_path = out_dir / "run.json"
    cache = ArtifactCache(out_dir / "cache")

    if resume:
        _check_resumable(manifest_path, key)
    else:
        cache.clear()
        for stale in ("patterns.json", "selection.json", "report.json"):
            (out_dir / stale).unlink(missing_ok=True)
        _write_run_manifest(manifest_path, spec, data, key)

    with _obs.span(
        "runtime.experiment",
        dataset=data.name,
        variant=spec.variant,
        resumed=resume,
        fingerprint=key,
    ):
        # The final fit on all rows computes the feature set that
        # ``factory().fit(data)`` would, from the same pipeline object,
        # but through checkpointed stages and without training a model.
        final = factory()
        # -- stage 1: per-class mining (partition-level checkpoints) ----
        if not final.use_patterns:
            mined = MiningResult([], min_support=0, n_rows=data.n_rows)
        elif spec.shard_rows is not None:
            # Out-of-core path: rows live in mmap shard files opened
            # zero-copy by the workers; per-shard artifacts go through
            # the same cache, so resume semantics are unchanged.
            from ..core.shards import shard_dataset
            from ..mining.sharded import mine_sharded

            shard_set = shard_dataset(
                data, out_dir / "shards", shard_rows=spec.shard_rows
            )
            mined = mine_sharded(
                shard_set,
                min_support=final.min_support,
                miner=final.miner,
                max_length=final.max_length,
                max_patterns=final.max_patterns,
                n_jobs=n_jobs,
                retry=retry,
                cache=cache,
                condense=spec.condense,
                on_guard=final.on_guard,
            )
        else:
            mined = mine_class_patterns(
                data,
                min_support=final.min_support,
                miner=final.miner,
                max_length=final.max_length,
                max_patterns=final.max_patterns,
                n_jobs=n_jobs,
                retry=retry,
                cache=cache,
                on_guard=final.on_guard,
            )
        save_patterns(mined, out_dir / "patterns.json", catalog=data.catalog)
        _faults.fault_point("stage", "mine")

        # -- stage 2: feature selection (single checkpoint) -------------
        select_key = fingerprint(stage="select", run=key)
        payload = cache.get("select", select_key)
        if payload is not None:
            selection = selection_from_json(payload)
            _obs.event(
                "stage_skipped",
                "selection: restored final-fit selection from cache",
                stage="select",
            )
        else:
            candidates = cap_candidates(
                mined.patterns, data, final.max_candidates
            )
            if final.selection == "mmrfs":
                selection = mmrfs(
                    candidates,
                    data,
                    relevance=final.relevance,
                    delta=final.delta,
                )
            else:
                # selection="none" (Pat_All): every candidate is a feature;
                # selection.json lists them by relevance.
                selection = top_k_by_relevance(
                    candidates, data, k=len(candidates), relevance=final.relevance
                )
            cache.put("select", select_key, selection_to_json(selection))
        save_selection(selection, out_dir / "selection.json", catalog=data.catalog)
        _faults.fault_point("stage", "select")

        # -- stage 3: cross-validated evaluation (fold checkpoints) ------
        report = cross_validate_pipeline(
            factory,
            data,
            n_folds=spec.folds,
            seed=spec.seed,
            model_name=spec.variant,
            n_jobs=n_jobs,
            checkpoint=FoldCheckpointer(cache, key, spec.variant),
        )

        # -- final report (deterministic: no wall-clock, no hit counts) --
        _dump_json(
            {
                "format_version": _RUN_FORMAT_VERSION,
                "fingerprint": key,
                "spec": asdict(spec),
                "dataset": {
                    "name": data.name,
                    "rows": data.n_rows,
                    "content_hash": data.content_hash(),
                },
                "mining": {
                    "n_patterns": len(mined),
                    "min_support_absolute": mined.min_support,
                },
                "selection": {
                    "n_selected": len(selection),
                    "considered": selection.considered,
                    "fully_covered": selection.fully_covered,
                },
                "cv": {
                    "folds": [asdict(score) for score in report.folds],
                    "mean_accuracy": report.mean_accuracy,
                    "std_accuracy": report.std_accuracy,
                },
            },
            out_dir / "report.json",
        )
        _faults.fault_point("stage", "report")

    return ExperimentResult(
        out_dir=out_dir,
        run_fingerprint=key,
        n_patterns=len(mined),
        n_selected=len(selection),
        cv=report,
    )
