"""Tests for maximal frequent itemset mining."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import PatternBudgetExceeded, closed_fpgrowth, fpgrowth
from repro.testing.oracles import brute_force_maximal, maximal_frequent

WEATHER = [
    (0, 3, 5),
    (0, 3, 6),
    (1, 3, 5),
    (2, 4, 5),
    (2, 4, 6),
    (1, 4, 6),
    (0, 4, 5),
    (2, 3, 6),
]


def transactions_strategy():
    return st.lists(
        st.lists(st.integers(0, 7), min_size=0, max_size=6),
        min_size=1,
        max_size=20,
    )


class TestMaximal:
    def test_agrees_with_brute_force(self):
        for min_support in (1, 2, 3):
            fast = {(p.items, p.support) for p in maximal_frequent(WEATHER, min_support)}
            slow = {(p.items, p.support) for p in brute_force_maximal(WEATHER, min_support)}
            assert fast == slow

    def test_no_maximal_set_subsumed(self):
        result = maximal_frequent(WEATHER, 2)
        itemsets = [set(p.items) for p in result]
        for i, a in enumerate(itemsets):
            for j, b in enumerate(itemsets):
                if i != j:
                    assert not a < b

    def test_every_frequent_under_some_maximal(self):
        frequent = fpgrowth(WEATHER, 2)
        maximal = maximal_frequent(WEATHER, 2)
        borders = [set(p.items) for p in maximal]
        for pattern in frequent:
            assert any(set(pattern.items) <= border for border in borders)

    def test_maximal_subset_of_closed(self):
        """Every maximal itemset is closed (no superset has any support
        >= min_support, a fortiori none has equal support)."""
        closed = {p.items for p in closed_fpgrowth(WEATHER, 2)}
        for pattern in maximal_frequent(WEATHER, 2):
            assert pattern.items in closed

    def test_fewer_than_closed(self, planted_transactions):
        subset = planted_transactions.subset(range(100))
        closed = closed_fpgrowth(subset.transactions, 15)
        maximal = maximal_frequent(subset.transactions, 15)
        assert 0 < len(maximal) <= len(closed)

    def test_budget(self):
        with pytest.raises(PatternBudgetExceeded):
            maximal_frequent(WEATHER, 1, max_patterns=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal_frequent(WEATHER, 0)

    def test_empty(self):
        assert len(maximal_frequent([], 1)) == 0
        assert len(maximal_frequent([()], 1)) == 0

    @settings(max_examples=50, deadline=None)
    @given(transactions=transactions_strategy(), min_support=st.integers(1, 4))
    def test_property_agreement(self, transactions, min_support):
        fast = {
            (p.items, p.support)
            for p in maximal_frequent(transactions, min_support)
        }
        slow = {
            (p.items, p.support)
            for p in brute_force_maximal(transactions, min_support)
        }
        assert fast == slow
