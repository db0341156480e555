"""Closed frequent itemset mining (the role FPClose [9] plays in the paper).

The paper uses *closed* patterns as features because a non-closed pattern is
completely redundant w.r.t. its closure (Section 3.3).  This module
implements an LCM-style closed miner (Uno et al.): depth-first enumeration of
closed itemsets via *prefix-preserving closure extension*, which visits every
closed frequent itemset exactly once with no duplicate detection and no
storage of already-found patterns.

The vertical representation is packed: each item carries a uint64 bitset
over transactions (:class:`repro.core.bitset.BitMatrix`), so tidset
intersection is a bitwise AND, support is a popcount, and the closure of a
tidset T is the set of items i with ``popcount(mask_i & T) == |T|``.

Each search node decides all its candidate items in one batch instead of
a Python loop over them: one AND gives every extension's tidset, and one
:func:`repro.core.bitset.intersection_counts` call gives the matrix of
pairwise supports from which every candidate's support, closure and
prefix-preservation test are read.  That call works through the candidates
in blocks, so its ``(block, extensions, n_words)`` AND temporary stays
within a fixed word budget however many rows the database has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.bitset import BitMatrix, intersection_counts, packed_ones
from ..obs import core as _obs
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, check_item_ids

__all__ = ["closed_fpgrowth", "occurrence_matrix"]


def occurrence_matrix(
    transactions: Sequence[Sequence[int]], n_items: int | None = None
) -> np.ndarray:
    """Boolean (n_rows, n_items) matrix: cell (t, i) = item i in transaction t.

    The dense counterpart of :meth:`repro.core.bitset.BitMatrix.vertical`;
    kept for the cold paths (analysis, baselines) and as the reference the
    bitset kernels are property-tested against.
    """
    transactions = [tuple(set(t)) for t in transactions]
    if n_items is None:
        n_items = 1 + max((max(t) for t in transactions if t), default=-1)
    matrix = np.zeros((len(transactions), n_items), dtype=bool)
    for row, transaction in enumerate(transactions):
        if transaction:
            matrix[row, list(transaction)] = True
    return matrix


def closed_fpgrowth(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all *closed* frequent itemsets (absolute ``min_support``).

    Output: every itemset X with support >= min_support such that no proper
    superset of X has the same support.  Order of patterns is deterministic
    (DFS over the prefix-preserving extension tree).

    Raises
    ------
    PatternBudgetExceeded
        If ``max_patterns`` closed patterns would be exceeded (see the
        budget semantics documented on the exception).
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(set(t)) for t in transactions]
    check_item_ids(transactions)
    n_rows = len(transactions)
    n_items = 1 + max((max(t) for t in transactions if t), default=-1)

    patterns: list[Pattern] = []

    def emit(items: Sequence[int], support: int) -> None:
        patterns.append(Pattern(items=tuple(int(i) for i in items), support=support))
        if max_patterns is not None and len(patterns) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(patterns))

    if n_rows == 0 or n_items == 0 or n_rows < min_support:
        return MiningResult(patterns, min_support=min_support, n_rows=n_rows)

    item_bits = BitMatrix.vertical(transactions, n_items)
    column_counts = item_bits.popcounts()
    frequent = column_counts >= min_support
    frequent_items = np.flatnonzero(frequent)
    if len(frequent_items) == 0:
        return MiningResult(patterns, min_support=min_support, n_rows=n_rows)

    all_rows = packed_ones(n_rows)
    root_closure = column_counts == n_rows  # items present in every transaction
    root_items = np.nonzero(root_closure)[0]

    # Enumeration statistics; local int bumps flushed to the obs session
    # once at the end (also when the budget trips, even on the root).
    stats = {"closure_checks": 0, "support_pruned": 0, "prefix_pruned": 0}
    search = _Search(
        item_words=item_bits.words,
        frequent=frequent,
        min_support=min_support,
        max_length=max_length,
        emit=emit,
        stats=stats,
    )
    live = frequent_items[~root_closure[frequent_items]]
    try:
        if len(root_items) and (max_length is None or len(root_items) <= max_length):
            emit(root_items, n_rows)
        _expand(search, root_closure, all_rows, -1, live, column_counts[live])
    finally:
        session = _obs._ACTIVE
        if session is not None:
            session.add("mining.closed.patterns", len(patterns))
            session.add("mining.closed.closure_checks", stats["closure_checks"])
            session.add("mining.closed.support_pruned", stats["support_pruned"])
            session.add("mining.closed.prefix_pruned", stats["prefix_pruned"])
    return MiningResult(patterns, min_support=min_support, n_rows=n_rows)


@dataclass(slots=True)
class _Search:
    """The inputs every node of one closed-itemset search shares."""

    item_words: np.ndarray
    frequent: np.ndarray  # bool per item: globally frequent
    min_support: int
    max_length: int | None
    emit: Callable[[Sequence[int], int], None]
    stats: dict


def _expand(
    search: _Search,
    closure_mask: np.ndarray,
    row_words: np.ndarray,
    core_item: int,
    live: np.ndarray,
    live_supports: np.ndarray,
) -> None:
    """Prefix-preserving closure extension from one closed itemset.

    ``closure_mask`` marks the items of the current closed set P;
    ``row_words`` is its packed tidset.  For every frequent item i > core_item
    not in P we compute Y = clo(P ∪ {i}); Y is accepted iff its items below i
    coincide with P's (prefix preservation), which guarantees each closed set
    is generated from exactly one parent.

    ``live`` (ascending) holds the items outside P that may still be
    frequent under P, ``live_supports`` the support of P ∪ {i} for each;
    every other frequent item already failed the support test at an
    ancestor.  A candidate's outcome depends only on P, so the node decides
    them all at once:

    * the extensions E are the live items that pass the support test; one
      AND gives their tidsets, and one :func:`intersection_counts` over E
      gives ``counts[i, e] = support(P ∪ {i, e})`` for every candidate i;
    * clo(P ∪ {i}) is P plus the extensions whose count equals i's support
      (no item outside E can hold min_support of i's rows);
    * prefix preservation holds iff i's first closure column is its own;
    * an accepted child's row of ``counts`` is its own ``live_supports``,
      and a child with no support-passing live item above its own is a
      leaf, tallied here without a call.

    Children are emitted and expanded in ascending item order, as a per-item
    scan would.  Each candidate's outcome is tallied only when that scan
    reaches it, so the counters agree even when the budget trips mid-node.
    """
    stats = search.stats
    min_support = search.min_support
    passing = live_supports >= min_support
    extensions = live[passing]
    # The checked candidates are E's items above core_item: columns low..
    low = int(extensions.searchsorted(core_item, "right"))
    n_checked = len(extensions) - low
    open_items = search.frequent & ~closure_mask  # in the scan, in order
    if n_checked == 0:
        n_candidates = int(np.count_nonzero(open_items[core_item + 1 :]))
        _tally(stats, (0, 0, 0), (n_candidates, 0, 0))
        return
    rows = search.item_words[extensions] & row_words
    counts = intersection_counts(rows[low:], rows)
    supports = live_supports[passing][low:]
    closures = counts == supports[:, np.newaxis]  # clo(P ∪ {i}) \ P
    columns = np.arange(len(extensions))
    own = columns[low:]
    prefix_violation = closures.argmax(axis=1) < own
    grown = closures.sum(axis=1)
    accepted = ~prefix_violation
    length = int(np.count_nonzero(closure_mask))
    if search.max_length is not None:
        accepted &= grown <= search.max_length - length
    children = np.flatnonzero(accepted).tolist()
    if not children:
        n_candidates = int(np.count_nonzero(open_items[core_item + 1 :]))
        n_violations = int(np.count_nonzero(prefix_violation))
        _tally(stats, (0, 0, 0), (n_candidates, n_checked, n_violations))
        return
    above = columns > own[:, np.newaxis]
    extends = ((counts >= min_support) & ~closures & above).any(axis=1).tolist()

    scan = np.cumsum(open_items).tolist()  # open items <= each item
    start = scan[core_item] if core_item >= 0 else 0
    child_masks = np.repeat(closure_mask[np.newaxis], len(children), axis=0)
    child_masks[:, extensions] = closures[children]
    members = np.nonzero(child_masks)[1].tolist()
    ends = np.cumsum(grown[children] + length).tolist()
    violations = np.cumsum(prefix_violation).tolist()
    items = extensions.tolist()
    grown = grown.tolist()
    supports = supports.tolist()
    # (candidates scanned, closure checks, prefix prunes) tallied so far
    done = (0, 0, 0)
    for k, j in enumerate(children):
        item = items[low + j]
        now = (scan[item] - start, j + 1, violations[j])
        _tally(stats, done, now)
        done = now
        search.emit(members[ends[k - 1] if k else 0 : ends[k]], supports[j])
        if extends[j]:
            outside = ~closures[j]
            _expand(
                search,
                child_masks[k],
                rows[low + j],
                item,
                extensions[outside],
                counts[j, outside],
            )
        else:
            # The leaf's candidates, all support-pruned: P's open items
            # above `item`, less the extensions its closure took in.
            stats["support_pruned"] += scan[-1] - scan[item] - (grown[j] - 1)
    _tally(stats, done, (scan[-1] - start, n_checked, violations[-1]))


def _tally(stats: dict, before: tuple, after: tuple) -> None:
    """Add the outcomes of the candidates scanned between two tallies.

    A tally is ``(candidates scanned, closure checks, prefix prunes)``;
    every scanned candidate that was not checked was support-pruned.
    """
    scanned = after[0] - before[0]
    checks = after[1] - before[1]
    stats["support_pruned"] += scanned - checks
    stats["closure_checks"] += checks
    stats["prefix_pruned"] += after[2] - before[2]
