"""CHARM-style vertical closed itemset miner (Zaki & Hsiao, SDM 2002).

A second, independently-derived closed miner used to cross-check
:func:`repro.mining.closed.closed_fpgrowth`.  Works on (itemset, tidset)
pairs.  Candidates at each level are sorted by ascending support, so for a
pair (Xi, Xj) with j after i only three relations are possible:

* tid(Xi) == tid(Xj): Xj is absorbed into Xi's closure and removed;
* tid(Xi) ⊂ tid(Xj): Xj's items join Xi's closure (Xj stays a generator);
* incomparable: the pair spawns a child generator (Xi ∪ Xj, Ti ∩ Tj).

Results are recorded in a dict keyed by tidset, keeping the longest itemset
seen for each tidset — since an itemset's closure shares its tidset, this
final map is exactly {tidset -> closed itemset}.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..obs import core as _obs
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, check_item_ids

__all__ = ["charm"]

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
