"""Frequent pattern mining: FP-growth and the closed miner behind the pipeline.

Only the miners the paper's pipeline runs are re-exported here.  The
sequence (:mod:`repro.mining.prefixspan`) and graph
(:mod:`repro.mining.gspan`) extensions load on their own import, and the
reference miners the differential tests check against (Apriori, CHARM,
the maximal miner, brute force) live in :mod:`repro.testing.oracles`.
"""

from .closed import closed_fpgrowth
from .fpgrowth import fpgrowth
from .fptree import FPTree
from .generation import (
    filter_by_information_gain,
    mine_class_patterns,
    recount_supports,
)
from .guards import MiningTimeLimitExceeded, guarded_mine
from .itemsets import Pattern, PatternBudgetExceeded

__all__ = [
    "fpgrowth",
    "closed_fpgrowth",
    "FPTree",
    "Pattern",
    "PatternBudgetExceeded",
    "mine_class_patterns",
    "recount_supports",
    "filter_by_information_gain",
    "guarded_mine",
    "MiningTimeLimitExceeded",
]
