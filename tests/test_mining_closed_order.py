"""Order-and-counter oracle for the LCM-style closed miner.

The differential suites compare *sets* of patterns over databases small
enough to fit one 64-bit word.  This suite pins more: ``closed_fpgrowth``
must emit exactly the ``(items, support)`` *sequence* of a plain-Python
LCM (frozenset tidsets, one candidate item at a time, prefix-preserving
closure extension), and report the same ``mining.closed.*`` counters,
including when the pattern budget trips part-way through a search node.
Databases run to 200 rows, so masks of 1, 2, 3 and 4 words all occur.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mining import PatternBudgetExceeded, closed_fpgrowth
from repro.obs import core as obs

COUNTERS = ("patterns", "closure_checks", "support_pruned", "prefix_pruned")


def reference_lcm(transactions, min_support, max_length, max_patterns, stats):
    """Closed itemsets in DFS order, one candidate item per step.

    Fills ``stats`` with the four ``mining.closed.*`` counts as it goes,
    so they are current when the budget trips.
    """
    rows = [frozenset(t) for t in transactions]
    items = sorted(set().union(*rows)) if rows else []
    tidsets = {
        i: frozenset(r for r, row in enumerate(rows) if i in row) for i in items
    }
    frequent = [i for i in items if len(tidsets[i]) >= min_support]
    emitted = []

    def emit(itemset, support):
        emitted.append((tuple(sorted(itemset)), support))
        stats["patterns"] = len(emitted)
        if max_patterns is not None and len(emitted) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(emitted))

    def closure(tids):
        return {i for i in items if tids <= tidsets[i]}

    def expand(closed, tids, core):
        for item in frequent:
            if item <= core or item in closed:
                continue
            child = tids & tidsets[item]
            if len(child) < min_support:
                stats["support_pruned"] += 1
                continue
            stats["closure_checks"] += 1
            grown = closure(child)
            if any(j < item and j not in closed for j in grown):
                stats["prefix_pruned"] += 1
                continue
            if max_length is not None and len(grown) > max_length:
                continue
            emit(grown, len(child))
            expand(grown, child, item)

    if not rows or len(rows) < min_support or not frequent:
        return emitted
    everything = frozenset(range(len(rows)))
    root = closure(everything)
    if root and (max_length is None or len(root) <= max_length):
        emit(root, len(rows))
    expand(root, everything, -1)
    return emitted


@st.composite
def databases(draw):
    """Transactions over up to 12 items with planted implications.

    Each item has its own density, and a few "a implies b" pairs copy one
    item's rows into another's so that closures reach past the candidate
    item and prefix-preservation actually prunes.
    """
    n_rows = draw(st.integers(0, 200))
    n_items = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_items)) < rng.uniform(0.05, 0.95, n_items)
    for _ in range(draw(st.integers(0, 4))):
        a, b = rng.integers(0, n_items, 2)
        dense[:, b] |= dense[:, a]
    return [np.flatnonzero(row).tolist() for row in dense]


def mine_with_counters(transactions, min_support, max_length, max_patterns):
    with obs.session() as session:
        try:
            result = closed_fpgrowth(
                transactions,
                min_support,
                max_length=max_length,
                max_patterns=max_patterns,
            )
            outcome = [(p.items, p.support) for p in result.patterns]
        except PatternBudgetExceeded as exc:
            outcome = ("tripped", exc.emitted)
    counters = {
        name: session.counters.get(f"mining.closed.{name}", 0) for name in COUNTERS
    }
    return outcome, counters


@settings(max_examples=150, deadline=None)
@given(
    transactions=databases(),
    share=st.floats(0.02, 0.6),
    max_length=st.sampled_from([None, 1, 2, 3]),
    max_patterns=st.one_of(st.none(), st.integers(0, 40)),
)
@example(transactions=[[0]], share=0.5, max_length=None, max_patterns=0)
@example(
    transactions=[[0, 1]] * 64 + [[1, 2]] * 65,
    share=0.1,
    max_length=None,
    max_patterns=None,
)
@example(
    transactions=[[0, 1, 2], [2, 3]] * 100, share=0.05, max_length=2, max_patterns=None
)
@example(
    transactions=[[i % 5, 5 + i % 7] for i in range(193)],
    share=0.02,
    max_length=None,
    max_patterns=20,
)
def test_closed_sequence_and_counters_match_reference(
    transactions, share, max_length, max_patterns
):
    min_support = max(1, math.ceil(share * len(transactions)))
    stats = dict.fromkeys(COUNTERS, 0)
    try:
        expected = reference_lcm(
            transactions, min_support, max_length, max_patterns, stats
        )
    except PatternBudgetExceeded as exc:
        assert exc.emitted == max_patterns + 1
        expected = ("tripped", exc.emitted)

    outcome, counters = mine_with_counters(
        transactions, min_support, max_length, max_patterns
    )
    assert outcome == expected
    assert counters == stats


def test_budget_trip_mid_node_keeps_scan_order_counters():
    """Item 0's subtree trips a budget of one before the root's scan
    reaches items 1-3, so their checks must not be counted yet."""
    transactions = [[0, 3], [1, 3], [2, 3], [0], [1], [2]] * 3
    stats = dict.fromkeys(COUNTERS, 0)
    with pytest.raises(PatternBudgetExceeded):
        reference_lcm(transactions, 2, None, 1, stats)
    outcome, counters = mine_with_counters(transactions, 2, None, 1)
    assert outcome == ("tripped", 2)
    assert counters == stats
    assert counters["closure_checks"] == 2  # root candidates 1-3 never scanned
