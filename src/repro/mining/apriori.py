"""Apriori frequent itemset mining (Agrawal & Srikant, VLDB 1994).

Level-wise candidate generation with the anti-monotone pruning rule.  Kept as
the reference implementation: FP-growth and the closed miners are
property-tested against it.  For production use prefer
:func:`repro.mining.fpgrowth.fpgrowth`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from ..obs import core as _obs
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, check_item_ids

__all__ = ["apriori"]


def _count_candidates(
    transactions: Sequence[tuple[int, ...]],
    candidates: set[tuple[int, ...]],
) -> dict[tuple[int, ...], int]:
    """Support counts of the candidate itemsets in one database pass."""
    if not candidates:
        return {}
    length = len(next(iter(candidates)))
    counts: dict[tuple[int, ...], int] = dict.fromkeys(candidates, 0)
    for transaction in transactions:
        if len(transaction) < length:
            continue
        for subset in combinations(transaction, length):
            if subset in counts:
                counts[subset] += 1
    return counts


def _generate_candidates(frequent: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Join step + prune step of Apriori.

    Two frequent k-itemsets sharing their first k-1 items join into a
    (k+1)-candidate; a candidate survives only if all its k-subsets are
    frequent.
    """
    frequent_set = set(frequent)
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for itemset in frequent:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])

    candidates: set[tuple[int, ...]] = set()
    for prefix, tails in by_prefix.items():
        tails.sort()
        for a, b in combinations(tails, 2):
            candidate = prefix + (a, b)
            if all(
                candidate[:i] + candidate[i + 1 :] in frequent_set
                for i in range(len(candidate))
            ):
                candidates.add(candidate)
    return candidates


def apriori(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all frequent itemsets with absolute support >= ``min_support``.

    Parameters
    ----------
    transactions:
        Iterable of item-id sequences (each is internally canonicalized).
    min_support:
        Absolute support threshold (count of transactions), >= 1.
    max_length:
        Optional cap on itemset length.
    max_patterns:
        Optional enumeration budget; exceeding it raises
        :class:`~repro.mining.itemsets.PatternBudgetExceeded`.
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(sorted(set(t))) for t in transactions]
    check_item_ids(transactions)
    session = _obs._ACTIVE

    item_counts: dict[int, int] = {}
    for transaction in transactions:
        for item in transaction:
            item_counts[item] = item_counts.get(item, 0) + 1

    patterns: list[Pattern] = []

    def emit(items: tuple[int, ...], support: int) -> None:
        # Record-then-check: trips at budget + 1 (the documented semantics
        # on PatternBudgetExceeded, identical across all miners).
        patterns.append(Pattern(items=items, support=support))
        if max_patterns is not None and len(patterns) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(patterns))

    try:
        frequent = sorted(
            (item,) for item, count in item_counts.items() if count >= min_support
        )
        if session is not None:
            # Level 1: every distinct item is a support-counted candidate.
            session.add("mining.apriori.candidates", len(item_counts))
            session.add("mining.apriori.pruned", len(item_counts) - len(frequent))
        for itemset in frequent:
            emit(itemset, item_counts[itemset[0]])

        length = 1
        while frequent and (max_length is None or length < max_length):
            candidates = _generate_candidates(frequent)
            counts = _count_candidates(transactions, candidates)
            frequent = sorted(
                itemset for itemset, count in counts.items() if count >= min_support
            )
            if session is not None:
                session.add("mining.apriori.candidates", len(candidates))
                session.add(
                    "mining.apriori.pruned", len(candidates) - len(frequent)
                )
            for itemset in frequent:
                emit(itemset, counts[itemset])
            length += 1
    finally:
        # Flushed even when the pattern budget trips, so a blown-up run
        # still reports how far enumeration got.
        if session is not None:
            session.add("mining.apriori.patterns", len(patterns))

    return MiningResult(patterns, min_support=min_support, n_rows=len(transactions))
