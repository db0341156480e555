"""MMRFS: Maximal-Marginal-Relevance Feature Selection (paper Algorithm 1).

Greedy selection over the mined pattern set F:

1. start from the single most relevant pattern;
2. repeatedly take the pattern with the highest *gain*
   ``g(alpha) = S(alpha) - max_{beta in Fs} R(alpha, beta)`` (Eq. 10),
   accepting it only if it *correctly covers* at least one instance that is
   not yet covered ``delta`` times;
3. stop when every instance is covered ``delta`` times or F is exhausted.

"Correctly covers" follows the database-coverage convention of associative
classification (CMAR): pattern alpha covers instance i if i contains alpha,
and the cover is *correct* if alpha's majority class equals i's label.

The per-iteration gain update is incremental: selecting beta can only
*raise* each candidate's max-redundancy, so one vectorized
``batch_redundancy`` call per iteration maintains all gains exactly.
Candidate scoring is vectorized too: one
:func:`~repro.measures.contingency.batch_contingency_tables` pass yields
the relevance vector, supports and majority classes of the whole set
(:func:`~repro.selection.relevance.batch_relevance` falls back to the
scalar loop for plain-callable measures).  The packed under-coverage mask
is maintained as selections land, not repacked per candidate probe.

Two coverage engines implement the same algorithm: ``"bitset"`` (default)
keeps every coverage mask packed 64 rows per uint64 word and runs the
redundancy update as AND + popcount; ``"dense"`` is the original boolean
matrix path.  Both perform identical floating-point arithmetic, so their
selections agree bit-for-bit (locked in by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bitset import PatternCovers, pack_bits, popcount, unpack_bits
from ..datasets.transactions import TransactionDataset
from ..obs import core as _obs
from ..measures.contingency import batch_contingency_tables
from ..mining.closed import occurrence_matrix
from ..mining.itemsets import Pattern
from .redundancy import batch_redundancy, batch_redundancy_packed
from .relevance import RelevanceMeasure, batch_relevance, get_relevance

__all__ = ["SelectedFeature", "SelectionResult", "mmrfs", "top_k_by_relevance"]


@dataclass(frozen=True)
class SelectedFeature:
    """One pattern chosen by MMRFS, with its selection-time diagnostics."""

    pattern: Pattern
    relevance: float
    gain: float
    majority_class: int
    order: int


@dataclass
class SelectionResult:
    """Outcome of a feature-selection run."""

    selected: list[SelectedFeature]
    coverage_counts: np.ndarray
    delta: int
    considered: int

    @property
    def patterns(self) -> list[Pattern]:
        return [feature.pattern for feature in self.selected]

    @property
    def fully_covered(self) -> bool:
        """True if every instance reached the delta coverage target."""
        return bool((self.coverage_counts >= self.delta).all())

    def __len__(self) -> int:
        return len(self.selected)


def mmrfs(
    patterns: list[Pattern],
    data: TransactionDataset,
    relevance: str | RelevanceMeasure = "information_gain",
    delta: int = 1,
    max_selected: int | None = None,
    engine: str = "bitset",
) -> SelectionResult:
    """Run Algorithm 1 over mined patterns.

    Parameters
    ----------
    patterns:
        Candidate frequent patterns F (typically closed, length >= 2).
    data:
        The training transactions (used for coverage and contingency).
    relevance:
        Relevance measure S: ``"information_gain"``, ``"fisher"``, or any
        callable on :class:`PatternStats`.
    delta:
        Database-coverage threshold: selection stops once every instance is
        correctly covered ``delta`` times (or candidates run out).
    max_selected:
        Optional hard cap on |Fs| (the paper leaves this to delta; the cap
        exists for ablations and runaway protection).
    engine:
        ``"bitset"`` (default) keeps coverage masks packed and shares the
        dataset's cached item bitsets; ``"dense"`` is the original boolean
        matrix path.  Both produce bit-for-bit identical selections.

    Returns
    -------
    SelectionResult
        Selected features in selection order plus coverage diagnostics.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if engine not in ("bitset", "dense"):
        raise ValueError(f"engine must be 'bitset' or 'dense', got {engine!r}")
    score = get_relevance(relevance)
    if not patterns:
        return SelectionResult(
            selected=[],
            coverage_counts=np.zeros(data.n_rows, dtype=np.int64),
            delta=delta,
            considered=0,
        )
    with _obs.span(
        "selection.mmrfs",
        candidates=len(patterns),
        delta=delta,
        engine=engine,
        rows=data.n_rows,
    ) as selection_span:
        result = _mmrfs_run(
            patterns, data, score, delta, max_selected, engine
        )
        selection_span.set(
            selected=len(result), fully_covered=result.fully_covered
        )
    return result


def _mmrfs_run(
    patterns: list[Pattern],
    data: TransactionDataset,
    score,
    delta: int,
    max_selected: int | None,
    engine: str,
) -> SelectionResult:
    """Algorithm 1 proper (validation and the obs span live in the caller)."""
    session = _obs._ACTIVE
    # One vectorized pass over the batched contingency tables yields the
    # relevance vector, supports and majority classes for every candidate.
    tables = batch_contingency_tables(patterns, data)
    relevances = batch_relevance(score, tables)
    supports = tables.supports
    majority = tables.majority_classes()

    n_rows = data.n_rows
    coverage_counts = np.zeros(n_rows, dtype=np.int64)

    # Coverage only changes inside select(), so the under-coverage mask
    # (rows still short of the delta target) is maintained there rather
    # than recomputed on every candidate probe — rejected probes in the
    # same round reuse it unchanged.
    if engine == "bitset":
        coverage_words = PatternCovers(
            [p.items for p in patterns], data.n_items
        ).words(data.item_bits())
        # correct_words[k]: rows pattern k covers *and* whose label matches
        # the pattern's majority class — packed.
        if data.n_classes:
            correct_words = coverage_words & data.label_bits().words[majority]
        else:
            correct_words = np.zeros_like(coverage_words)
        under_words = pack_bits(coverage_counts < delta)

        def correct_mask(index: int) -> np.ndarray:
            return unpack_bits(correct_words[index], n_rows)

        def redundancy_against(index: int) -> np.ndarray:
            return batch_redundancy_packed(
                coverage_words,
                supports,
                relevances,
                coverage_words[index],
                int(supports[index]),
                float(relevances[index]),
            )

        def covers_undercovered(index: int) -> bool:
            return int(popcount(correct_words[index] & under_words)) > 0

        def refresh_undercovered() -> None:
            nonlocal under_words
            under_words = pack_bits(coverage_counts < delta)

    else:
        matrix = occurrence_matrix(data.transactions, n_items=data.n_items)
        coverage = np.stack(
            [
                matrix[:, list(p.items)].all(axis=1)
                if p.items
                else np.ones(n_rows, dtype=bool)
                for p in patterns
            ]
        )
        # correct_coverage[k, i]: pattern k covers row i, predicts its label.
        correct_coverage = coverage & (majority[:, np.newaxis] == data.labels)
        undercovered = coverage_counts < delta

        def correct_mask(index: int) -> np.ndarray:
            return correct_coverage[index]

        def redundancy_against(index: int) -> np.ndarray:
            return batch_redundancy(
                coverage,
                supports,
                relevances,
                coverage[index],
                int(supports[index]),
                float(relevances[index]),
            )

        def covers_undercovered(index: int) -> bool:
            return bool((correct_coverage[index] & undercovered).any())

        def refresh_undercovered() -> None:
            nonlocal undercovered
            undercovered = coverage_counts < delta

    max_redundancy = np.zeros(len(patterns), dtype=float)
    available = np.ones(len(patterns), dtype=bool)
    selected: list[SelectedFeature] = []

    def select(index: int, gain: float) -> None:
        available[index] = False
        coverage_counts[correct_mask(index)] += 1
        refresh_undercovered()
        selected.append(
            SelectedFeature(
                pattern=patterns[index],
                relevance=float(relevances[index]),
                gain=float(gain),
                majority_class=int(majority[index]),
                order=len(selected),
            )
        )
        # Update every candidate's max-redundancy in one vectorized pass
        # (unavailable rows are masked at argmax time, so updating them too
        # is cheaper than slicing the coverage matrix).
        np.maximum(max_redundancy, redundancy_against(index), out=max_redundancy)
        if session is not None:
            # Each selection re-scores every candidate's gain; the coverage
            # series tracks rows that reached the delta target per round.
            session.add("selection.mmrfs.gain_evaluations", len(patterns))
            session.record(
                "selection.mmrfs.covered_rows",
                int((coverage_counts >= delta).sum()),
            )

    # Line 1-2: seed with the most relevant pattern.
    first = int(np.argmax(relevances))
    select(first, gain=float(relevances[first]))

    rounds = 0
    rejected = 0
    while True:
        if max_selected is not None and len(selected) >= max_selected:
            break
        if (coverage_counts >= delta).all():
            break
        if not available.any():
            break
        rounds += 1
        gains = np.where(available, relevances - max_redundancy, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            break
        # Line 5: accept only if it correctly covers an under-covered row.
        if covers_undercovered(best):
            select(best, gain=float(gains[best]))
        else:
            available[best] = False  # discard: cannot advance coverage
            rejected += 1

    if session is not None:
        session.add("selection.mmrfs.candidates", len(patterns))
        session.add("selection.mmrfs.rounds", rounds)
        session.add("selection.mmrfs.accepted", len(selected))
        session.add("selection.mmrfs.rejected", rejected)

    return SelectionResult(
        selected=selected,
        coverage_counts=coverage_counts,
        delta=delta,
        considered=len(patterns),
    )


def top_k_by_relevance(
    patterns: list[Pattern],
    data: TransactionDataset,
    k: int,
    relevance: str | RelevanceMeasure = "information_gain",
) -> SelectionResult:
    """Ablation baseline: pick the k most relevant patterns, no redundancy.

    This is "MMRFS without the MMR part" — used to quantify how much the
    redundancy term and the coverage stopping rule contribute.

    Top-k has no coverage stopping rule, so the result's coverage
    diagnostics use ``delta=1`` semantics: ``fully_covered`` reports
    whether the k chosen patterns correctly cover every instance at least
    once.  (It previously reported ``delta=0``, which made
    ``fully_covered`` vacuously True — ``coverage_counts >= 0`` always
    holds.)
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    score = get_relevance(relevance)
    tables = batch_contingency_tables(patterns, data)
    relevances = batch_relevance(score, tables)
    majority = tables.majority_classes()
    order = np.argsort(-relevances, kind="stable")[:k]

    coverage_counts = np.zeros(data.n_rows, dtype=np.int64)
    selected = []
    for rank, index in enumerate(order):
        index = int(index)
        mask = data.covers(patterns[index].items)
        coverage_counts[mask & (data.labels == majority[index])] += 1
        selected.append(
            SelectedFeature(
                pattern=patterns[index],
                relevance=float(relevances[index]),
                gain=float(relevances[index]),
                majority_class=int(majority[index]),
                order=rank,
            )
        )
    return SelectionResult(
        selected=selected,
        coverage_counts=coverage_counts,
        delta=1,
        considered=len(patterns),
    )
