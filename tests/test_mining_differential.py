"""Differential test suite: the miners must be interchangeable.

Hypothesis generates random transaction databases and asserts, at 200+
examples per miner pair:

* ``apriori`` and ``fpgrowth`` return *identical* frequent sets with
  identical supports;
* the two closed miners (LCM-style ``closed_fpgrowth`` and CHARM) agree
  with each other;
* every miner rejects negative item ids the same way, before any work;
* expanding a closed result — every subset of every closed itemset, with
  the max support over its closed supersets — reconstructs the *full*
  frequent set, supports included.  This is the closure property the
  paper's feature-generation step relies on when it swaps "all frequent"
  for "closed" candidates.

Together these pin the miner-interchangeability contract that
``mine_class_patterns(miner=...)`` and the scalability tables assume.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import closed_fpgrowth, fpgrowth
from repro.testing.oracles import apriori, charm

DIFFERENTIAL_EXAMPLES = 200


def databases():
    """Random small transaction databases over items 0..7."""
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=7), max_size=6),
        min_size=1,
        max_size=20,
    )


def supports():
    return st.integers(min_value=1, max_value=4)


def expand_closed(result) -> dict[tuple[int, ...], int]:
    """Frequent set implied by a closed result.

    Every frequent itemset is a subset of some closed itemset, and its
    support is the *maximum* support among its closed supersets (the
    support of its closure).
    """
    frequent: dict[tuple[int, ...], int] = {}
    for pattern in result.patterns:
        for size in range(1, len(pattern.items) + 1):
            for subset in combinations(pattern.items, size):
                if frequent.get(subset, -1) < pattern.support:
                    frequent[subset] = pattern.support
    return frequent


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=databases(), min_support=supports())
def test_apriori_fpgrowth_identical(db, min_support):
    assert apriori(db, min_support).as_dict() == fpgrowth(db, min_support).as_dict()


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=databases(), min_support=supports())
def test_closed_miners_agree(db, min_support):
    assert (
        closed_fpgrowth(db, min_support).as_dict()
        == charm(db, min_support).as_dict()
    )


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=databases(), min_support=supports())
def test_charm_expansion_reconstructs_frequent_set(db, min_support):
    full = apriori(db, min_support).as_dict()
    assert expand_closed(charm(db, min_support)) == full


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=databases(), min_support=supports())
def test_closed_fpgrowth_expansion_reconstructs_frequent_set(db, min_support):
    full = fpgrowth(db, min_support).as_dict()
    assert expand_closed(closed_fpgrowth(db, min_support)) == full


@pytest.mark.parametrize("miner", [apriori, fpgrowth, closed_fpgrowth, charm])
def test_negative_item_ids_rejected(miner):
    # A budget of zero would trip on the first emitted pattern, so the
    # ValueError shows the check runs before any mining.
    with pytest.raises(ValueError, match="item ids must be non-negative"):
        miner([[-1, 0], [0], [1]], 1, max_patterns=0)
