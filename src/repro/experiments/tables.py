"""Drivers for Tables 1-2: accuracy of the five model variants.

Table 1 (SVM): Item_All, Item_FS, Item_RBF, Pat_All, Pat_FS.
Table 2 (C4.5): Item_All, Item_FS, Pat_All, Pat_FS.

Each cell is the mean accuracy of stratified k-fold cross validation, with
mining and selection re-run inside every training fold (the paper's
protocol).  The drivers return structured results plus a paper-style text
rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from ..classifiers.base import Classifier
from ..classifiers.decision_tree import DecisionTree
from ..classifiers.linear_svm import LinearSVM
from ..classifiers.svm import KernelSVM
from ..datasets.transactions import TransactionDataset
from ..datasets.uci import load_uci
from ..eval.cross_validation import cross_validate_pipeline
from ..features.pipeline import FrequentPatternClassifier
from .registry import ExperimentConfig, config_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ArtifactCache

__all__ = [
    "SVM_VARIANTS",
    "C45_VARIANTS",
    "make_variant",
    "AccuracyRow",
    "AccuracyTable",
    "run_accuracy_table",
]

SVM_VARIANTS: tuple[str, ...] = (
    "Item_All",
    "Item_FS",
    "Item_RBF",
    "Pat_All",
    "Pat_FS",
)
C45_VARIANTS: tuple[str, ...] = ("Item_All", "Item_FS", "Pat_All", "Pat_FS")


#: Constructor arguments that shape each column's pipeline.
_VARIANT_SHAPES: dict[str, dict] = {
    "Item_All": dict(use_patterns=False),
    "Item_FS": dict(use_patterns=False, select_items=True),
    "Item_RBF": dict(use_patterns=False),
    "Pat_All": dict(selection="none"),
    "Pat_FS": dict(selection="mmrfs"),
}


def _classifier_factory(model: str) -> Callable[[], Classifier]:
    if model == "svm":
        return LinearSVM
    if model == "c45":
        return DecisionTree
    raise ValueError(f"unknown model family {model!r} (use 'svm' or 'c45')")


def make_variant(
    variant: str,
    model: str,
    config: ExperimentConfig,
) -> Callable[[], FrequentPatternClassifier]:
    """Pipeline factory for one column of Tables 1-2.

    ``variant`` is a paper column name; ``model`` is ``"svm"`` or ``"c45"``.
    Every field of ``config`` reaches the pipeline, and every pipeline
    degrades a guard-tripping class partition to items-only features
    (``on_guard="items_only"``) instead of aborting.  An unknown variant
    or model, or ``Item_RBF`` with ``c45``, raises ``ValueError`` here,
    before any pipeline is built.
    """
    base = _classifier_factory(model)
    if variant not in _VARIANT_SHAPES:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "Item_RBF":
        if model != "svm":
            raise ValueError("Item_RBF is an SVM-only variant")
        # gamma="auto" (1 / n_features) matches the LIBSVM default of the
        # paper's era; the RBF column is a baseline, not a tuned model.
        base = partial(KernelSVM, kernel="rbf", gamma="auto")
    return lambda: FrequentPatternClassifier(
        classifier=base(),
        min_support=config.min_support,
        max_length=config.max_length,
        max_patterns=config.max_patterns,
        delta=config.delta,
        relevance=config.relevance,
        on_guard="items_only",
        **_VARIANT_SHAPES[variant],
    )


@dataclass
class AccuracyRow:
    """One dataset's accuracies across the table's variants (percent)."""

    dataset: str
    accuracies: dict[str, float] = field(default_factory=dict)

    def best_variant(self) -> str:
        return max(self.accuracies, key=self.accuracies.__getitem__)


@dataclass
class AccuracyTable:
    """A reproduced Table 1 or Table 2."""

    title: str
    variants: tuple[str, ...]
    rows: list[AccuracyRow]

    def render(self) -> str:
        """Paper-style fixed-width text table."""
        header = f"{'Data':10s}" + "".join(f"{v:>10s}" for v in self.variants)
        lines = [self.title, header, "-" * len(header)]
        for row in self.rows:
            cells = "".join(
                f"{row.accuracies.get(v, float('nan')):10.2f}"
                for v in self.variants
            )
            lines.append(f"{row.dataset:10s}" + cells)
        means = {
            v: sum(r.accuracies[v] for r in self.rows) / len(self.rows)
            for v in self.variants
            if self.rows
        }
        lines.append("-" * len(header))
        lines.append(
            f"{'mean':10s}"
            + "".join(f"{means.get(v, float('nan')):10.2f}" for v in self.variants)
        )
        return "\n".join(lines)

    def wins_for(self, variant: str) -> int:
        """How many datasets the variant wins outright."""
        return sum(1 for row in self.rows if row.best_variant() == variant)


def run_accuracy_table(
    datasets: Sequence[str],
    model: str = "svm",
    n_folds: int = 10,
    scale: float = 1.0,
    seed: int = 0,
    variants: Sequence[str] | None = None,
    cache: "ArtifactCache | None" = None,
) -> AccuracyTable:
    """Reproduce Table 1 (``model="svm"``) or Table 2 (``model="c45"``).

    Parameters
    ----------
    datasets:
        Dataset names from the registry.
    scale:
        Row-count multiplier for laptop-scale runs (structure preserved).
    variants:
        Subset of columns (defaults to the full paper column set).
    cache:
        Optional :class:`~repro.runtime.cache.ArtifactCache`: every
        (dataset, variant, fold) cell outcome is checkpointed — keyed by
        dataset content hash, model family, fold count, seed and scale —
        so an interrupted table run picks up where it left off instead of
        re-evaluating hours of completed cells.
    """
    if variants is None:
        variants = SVM_VARIANTS if model == "svm" else C45_VARIANTS
    rows: list[AccuracyRow] = []
    for name in datasets:
        config = config_for(name)
        data = TransactionDataset.from_dataset(load_uci(name, scale=scale))
        row = AccuracyRow(dataset=name)
        for variant in variants:
            factory = make_variant(variant, model, config)
            checkpoint = None
            if cache is not None:
                from ..runtime.cache import fingerprint
                from ..runtime.experiment import FoldCheckpointer

                cell_key = fingerprint(
                    stage="accuracy_table_cell",
                    dataset_hash=data.content_hash(),
                    model=model,
                    n_folds=n_folds,
                    seed=seed,
                    scale=scale,
                )
                checkpoint = FoldCheckpointer(cache, cell_key, variant)
            report = cross_validate_pipeline(
                factory,
                data,
                n_folds=n_folds,
                seed=seed,
                model_name=variant,
                checkpoint=checkpoint,
            )
            row.accuracies[variant] = 100.0 * report.mean_accuracy
        rows.append(row)
    title = (
        "Table 1. Accuracy by SVM on Frequent Combined Features vs Single Features"
        if model == "svm"
        else "Table 2. Accuracy by C4.5 on Frequent Combined Features vs Single Features"
    )
    return AccuracyTable(title=title, variants=tuple(variants), rows=rows)
