"""Reference miners the differential test suites compare production against.

Production mining runs only :func:`repro.mining.closed.closed_fpgrowth`
and :func:`repro.mining.fpgrowth.fpgrowth` (``_MINERS`` in
:mod:`repro.mining.generation`).  The miners here are independent
implementations kept as oracles: the property and differential suites
check the production miners against them on small data.  No module under
``repro`` imports this one, so the runtime never loads it.

* :func:`apriori` — level-wise candidate generation with the anti-monotone
  pruning rule (Agrawal & Srikant, VLDB 1994); the frequent-set oracle for
  FP-growth.
* :func:`charm` — a CHARM-style vertical closed miner (Zaki & Hsiao,
  SDM 2002), derived independently of the LCM-style closed miner.
  Candidates at each level are sorted by ascending support, so for a pair
  (Xi, Xj) with j after i only three relations are possible:

  - tid(Xi) == tid(Xj): Xj is absorbed into Xi's closure and removed;
  - tid(Xi) ⊂ tid(Xj): Xj's items join Xi's closure (Xj stays a generator);
  - incomparable: the pair spawns a child generator (Xi ∪ Xj, Ti ∩ Tj).

  Results are recorded in a dict keyed by tidset, keeping the longest
  itemset seen for each tidset — since an itemset's closure shares its
  tidset, this final map is exactly {tidset -> closed itemset}.
* :func:`maximal_frequent` — maximal frequent itemsets (the border of the
  frequent family: no proper superset is frequent) by a depth-first
  MAFIA-style search over the boolean occurrence matrix, with a subset
  check against the maximal sets found so far.
* :func:`brute_force_closed` and :func:`brute_force_maximal` — enumerate
  the whole frequent family and filter it; exponential, tiny data only.

Apriori and CHARM record the ``mining.apriori.*`` and ``mining.charm.*``
obs counters.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ..mining.closed import occurrence_matrix
from ..mining.fpgrowth import fpgrowth
from ..mining.itemsets import (
    MiningResult,
    Pattern,
    PatternBudgetExceeded,
    check_item_ids,
)
from ..obs import core as _obs

__all__ = [
    "apriori",
    "charm",
    "maximal_frequent",
    "brute_force_closed",
    "brute_force_maximal",
]


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


_Node = tuple[frozenset, frozenset]


def charm(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all closed frequent itemsets (absolute ``min_support``)."""
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(sorted(set(t))) for t in transactions]
    check_item_ids(transactions)

    tid_builder: dict[int, set[int]] = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            tid_builder.setdefault(item, set()).add(tid)
    item_tidsets = {
        item: frozenset(tids)
        for item, tids in tid_builder.items()
        if len(tids) >= min_support
    }

    # closed[tidset] = longest itemset observed with that tidset (its closure).
    closed: dict[frozenset, frozenset] = {}

    def record(itemset: frozenset, tidset: frozenset) -> None:
        existing = closed.get(tidset)
        if existing is None or len(itemset) > len(existing):
            closed[tidset] = itemset
        # Record-then-check over *distinct* tidsets (updating a known
        # tidset's closure never grows the count): trips at budget + 1,
        # the documented semantics on PatternBudgetExceeded.
        if max_patterns is not None and len(closed) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(closed))

    root: list[_Node] = [
        (frozenset([item]), tidset) for item, tidset in item_tidsets.items()
    ]
    # Search statistics; local int bumps flushed to the obs session once at
    # the end (also when the budget trips mid-search).
    stats = {"absorbed": 0, "children": 0}
    try:
        _charm_extend(_sorted_nodes(root), record, min_support, stats)
    finally:
        session = _obs._ACTIVE
        if session is not None:
            session.add("mining.charm.patterns", len(closed))
            session.add("mining.charm.absorbed", stats["absorbed"])
            session.add("mining.charm.candidates", len(root) + stats["children"])

    patterns = [
        Pattern(items=tuple(sorted(itemset)), support=len(tidset))
        for tidset, itemset in closed.items()
    ]
    patterns.sort(key=lambda p: (p.length, p.items))
    return MiningResult(patterns, min_support=min_support, n_rows=len(transactions))


def _sorted_nodes(nodes: list[_Node]) -> list[_Node]:
    """Ascending support, item ids as tiebreak (CHARM's processing order)."""
    return sorted(nodes, key=lambda node: (len(node[1]), sorted(node[0])))


def _charm_extend(
    nodes: list[_Node],
    record: Callable[[frozenset, frozenset], None],
    min_support: int,
    stats: dict,
) -> None:
    """Process one equivalence class of candidates."""
    index = 0
    while index < len(nodes):
        itemset_i, tidset_i = nodes[index]

        # Pass 1: grow the closure of node i from later siblings.
        j = index + 1
        while j < len(nodes):
            itemset_j, tidset_j = nodes[j]
            if tidset_i == tidset_j:
                itemset_i = itemset_i | itemset_j
                del nodes[j]
                stats["absorbed"] += 1
                continue
            if tidset_i < tidset_j:
                itemset_i = itemset_i | itemset_j
            j += 1
        nodes[index] = (itemset_i, tidset_i)

        # Pass 2: children from siblings with incomparable tidsets.
        children: list[_Node] = []
        for itemset_j, tidset_j in nodes[index + 1 :]:
            intersection = tidset_i & tidset_j
            if len(intersection) >= min_support and intersection != tidset_i:
                children.append((itemset_i | itemset_j, intersection))

        record(itemset_i, tidset_i)
        if children:
            stats["children"] += len(children)
            _charm_extend(_sorted_nodes(children), record, min_support, stats)
        index += 1


class _MaximalStore:
    """Maximal candidates with an any-superset-present query."""

    def __init__(self) -> None:
        self.itemsets: list[frozenset[int]] = []

    def has_superset(self, items: frozenset[int]) -> bool:
        return any(items <= existing for existing in self.itemsets)

    def add(self, items: frozenset[int]) -> None:
        # Remove dominated entries (can happen when a longer maximal set is
        # found after a shorter sibling).
        self.itemsets = [s for s in self.itemsets if not s <= items]
        self.itemsets.append(items)

    def __len__(self) -> int:
        return len(self.itemsets)


def maximal_frequent(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all maximal frequent itemsets (absolute ``min_support``).

    With ``max_length`` set, maximality is relative to the capped family
    (an itemset is reported when no frequent *extension within the cap*
    exists).
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(t) for t in transactions]
    matrix = occurrence_matrix(transactions)
    n_rows, n_items = matrix.shape

    counts = matrix.sum(axis=0)
    frequent_items = [
        int(i) for i in np.argsort(-counts, kind="stable")
        if counts[i] >= min_support
    ]
    store = _MaximalStore()

    def descend(
        items: tuple[int, ...], rows: np.ndarray, start: int
    ) -> None:
        extendable = False
        for position in range(start, len(frequent_items)):
            item = frequent_items[position]
            new_rows = rows & matrix[:, item]
            if int(new_rows.sum()) < min_support:
                continue
            extendable = True
            if max_length is not None and len(items) + 1 > max_length:
                extendable = False
                break
            descend(items + (item,), new_rows, position + 1)
        if items and not extendable:
            itemset = frozenset(items)
            if not store.has_superset(itemset):
                store.add(itemset)
                if max_patterns is not None and len(store) > max_patterns:
                    raise PatternBudgetExceeded(max_patterns, len(store))

    if n_rows and frequent_items:
        descend((), np.ones(n_rows, dtype=bool), 0)

    patterns = []
    for itemset in store.itemsets:
        columns = sorted(itemset)
        support = int(matrix[:, columns].all(axis=1).sum())
        patterns.append(Pattern(items=tuple(columns), support=support))
    patterns.sort(key=lambda p: (p.length, p.items))
    return MiningResult(patterns, min_support=min_support, n_rows=n_rows)


def brute_force_maximal(
    transactions: Sequence[Sequence[int]], min_support: int
) -> MiningResult:
    """Reference: filter the full frequent family down to its border."""
    result = fpgrowth(transactions, min_support)
    frequent = result.as_dict()
    maximal = []
    for items, support in frequent.items():
        itemset = set(items)
        if not any(
            itemset < set(other) for other in frequent if len(other) > len(items)
        ):
            maximal.append(Pattern(items=items, support=support))
    maximal.sort(key=lambda p: (p.length, p.items))
    return MiningResult(maximal, min_support=min_support, n_rows=len(transactions))


def brute_force_closed(
    transactions: Sequence[Sequence[int]], min_support: int
) -> MiningResult:
    """Reference closed miner: enumerate frequent sets, filter non-closed.

    Exponential; only for cross-checking the fast miners on tiny data.
    """
    result = apriori(transactions, min_support)
    support = result.as_dict()
    closed: list[Pattern] = []
    for items, sup in support.items():
        itemset = set(items)
        is_closed = not any(
            sup == other_sup and itemset < set(other_items)
            for other_items, other_sup in support.items()
        )
        if is_closed:
            closed.append(Pattern(items=items, support=sup))
    closed.sort(key=lambda p: (p.length, p.items))
    return MiningResult(closed, min_support=min_support, n_rows=len(transactions))
