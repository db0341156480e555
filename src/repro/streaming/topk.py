"""Best-first discriminative top-k mining: the min_sup knob removed.

Every batch miner in :mod:`repro.mining` asks the caller to guess
``min_sup`` up front — too low and enumeration blows up (Tables 3-5),
too high and the discriminative low-support patterns are gone.
:class:`TopKMiner` inverts the contract: the caller says *how many*
patterns they want and the miner finds exactly the ``k`` best by
information gain, pruning the itemset lattice with the paper's own
support-parameterized ``IG_ub(theta)`` bound (Section 3.1.2 / Eq. 2,
evaluated through the vectorized
:func:`repro.measures.vectorized.ig_upper_bound_batch`) — the top-k
search discipline of He et al., *Mining Top-k Approximate Frequent
Patterns*, applied to the discriminative setting.

The search is exact, not approximate: a subtree rooted at an itemset
with support fraction ``theta`` is skipped only when a proven upper
bound on the IG of *every* superset falls strictly below the current
k-th best IG.  Three bounds compose (all valid for any descendant,
whose support fraction can only shrink):

* ``IG(C;X) <= H(X) = h(theta')`` — mutual information never exceeds
  the feature's own entropy, and ``h`` is nondecreasing on (0, 1/2];
* ``IG(C;X) <= H(C)`` — nor the class entropy (any class count);
* for binary classes, the paper's ``IG_ub`` evaluated at
  ``min(theta, p')`` with ``p' = min(p, 1-p)`` — ``IG_ub`` is
  nondecreasing on ``(0, p']`` (the fact the min_sup strategy's
  bisection already relies on) and binary IG is symmetric in the class
  prior, so the minority-prior evaluation bounds every feasible
  contingency below ``theta``.

Exactness is pinned by the hypothesis differential suite
(``tests/test_streaming_topk.py``): the result must equal "mine the
batch at the implied min_sup, rank by IG, take k" — the same oracle
discipline the bitset, vectorized-scoring and serving layers used.

Memory is O(k + frontier): the best-k list is bounded by construction,
frontier entries store only an item tuple plus its bound (tidsets are
re-derived from the cached vertical bitsets at pop time), and an
optional ``frontier_cap`` turns pathological frontier growth into a
loud :class:`FrontierCapExceeded` instead of silent memory creep —
record-then-check semantics matching
:class:`~repro.mining.itemsets.PatternBudgetExceeded`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.bitset import cover_class_counts, packed_ones
from ..datasets.transactions import TransactionDataset
from ..measures.bounds import BoundMode
from ..measures.vectorized import ig_upper_bound_batch, information_gain_batch
from ..mining.itemsets import MiningResult, Pattern
from ..obs import core as _obs

__all__ = [
    "FrontierCapExceeded",
    "ScoredPattern",
    "TopKMiner",
    "TopKResult",
    "rank_key",
]


class FrontierCapExceeded(RuntimeError):
    """The best-first frontier outgrew its declared memory cap.

    Raised *after* provably-useless entries (bound below the current
    k-th best IG) have been compacted away, so the cap measures live
    candidates only.  ``size`` is the frontier size that tripped the
    cap — always a strict lower bound on what an uncapped run would
    have held.
    """

    def __init__(self, cap: int, size: int) -> None:
        self.cap = cap
        self.size = size
        super().__init__(
            f"top-k frontier grew to {size} live entries, over the cap of {cap}"
        )


_PRUNE_SLACK = 1e-9


def rank_key(ig: float, items: tuple[int, ...]) -> tuple:
    """Total order over scored patterns: best IG first, ties broken
    deterministically by (shorter, lexicographically smaller) itemset.

    Both the miner and its batch oracle rank by this exact key, so
    top-k equality is bytewise, never "equal up to tie order".
    """
    return (-ig, len(items), items)


@dataclass(frozen=True)
class ScoredPattern:
    """One top-k entry: the pattern, its IG and its per-class supports."""

    pattern: Pattern
    ig: float
    class_counts: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "items": list(self.pattern.items),
            "support": self.pattern.support,
            "ig": self.ig,
            "class_counts": list(self.class_counts),
        }


class TopKResult:
    """Outcome of one top-k mine: ranked patterns plus search diagnostics."""

    def __init__(
        self,
        ranked: Sequence[ScoredPattern],
        k: int,
        n_rows: int,
        nodes_expanded: int = 0,
        candidates_scored: int = 0,
        subtrees_pruned: int = 0,
        frontier_peak: int = 0,
    ) -> None:
        self.ranked = list(ranked)
        self.k = int(k)
        self.n_rows = int(n_rows)
        self.nodes_expanded = int(nodes_expanded)
        self.candidates_scored = int(candidates_scored)
        self.subtrees_pruned = int(subtrees_pruned)
        self.frontier_peak = int(frontier_peak)

    @property
    def patterns(self) -> list[Pattern]:
        return [scored.pattern for scored in self.ranked]

    @property
    def threshold_ig(self) -> float:
        """IG of the k-th (worst kept) pattern; 0.0 when fewer than k exist.

        The knob-free analogue of the paper's ``IG0``: every pattern
        *not* returned has IG <= this value.
        """
        if len(self.ranked) < self.k or not self.ranked:
            return 0.0
        return self.ranked[-1].ig

    @property
    def implied_min_support(self) -> int:
        """The smallest support among the returned patterns (>= 1).

        Batch-mining at this absolute min_sup and re-ranking by IG
        reproduces this exact result — the round-trip the differential
        suite pins.  When the result holds fewer than k patterns the
        enumeration was exhaustive, so the implied threshold is 1.
        """
        if not self.ranked or len(self.ranked) < self.k:
            return 1
        return min(scored.pattern.support for scored in self.ranked)

    def mining_result(self) -> MiningResult:
        """The top-k set in the shape batch-miner consumers expect."""
        return MiningResult(
            self.patterns,
            min_support=self.implied_min_support,
            n_rows=self.n_rows,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "n_rows": self.n_rows,
            "threshold_ig": self.threshold_ig,
            "implied_min_support": self.implied_min_support,
            "patterns": [scored.to_json() for scored in self.ranked],
        }

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self):
        return iter(self.ranked)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopKResult(k={self.k}, found={len(self.ranked)}, "
            f"threshold_ig={self.threshold_ig:.4f})"
        )


def _entropy_bits(x: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy h(x) in bits (0 log 0 = 0)."""
    x = np.asarray(x, dtype=float)
    logx = np.log2(x, out=np.zeros_like(x), where=x > 0)
    log1mx = np.log2(1.0 - x, out=np.zeros_like(x), where=x < 1)
    return -x * logx - (1.0 - x) * log1mx


def _class_entropy(class_totals: np.ndarray) -> float:
    """Shannon entropy H(C) of a class-count vector, in bits."""
    total = class_totals.sum()
    if total <= 0:
        return 0.0
    p = class_totals[class_totals > 0] / total
    return float(-(p * np.log2(p)).sum())


class TopKMiner:
    """Exact best-first top-k discriminative pattern miner.

    Parameters
    ----------
    k:
        How many patterns to return (ranked by :func:`rank_key`).
    min_length / max_length:
        Length window for *returned* patterns.  Shorter itemsets are
        still expanded (their supersets may qualify); longer ones are
        never generated.
    frontier_cap:
        Optional bound on live frontier entries.  Exceeding it (after
        compacting provably-prunable entries) raises
        :class:`FrontierCapExceeded` — the search never silently
        degrades to an approximate answer.
    bound_mode:
        Forwarded to :func:`ig_upper_bound_batch` for the binary-class
        bound ("paper" or "exact"; identical on the clamped
        minority-prior range the miner evaluates, see module docstring).
    """

    def __init__(
        self,
        k: int,
        min_length: int = 1,
        max_length: int | None = None,
        frontier_cap: int | None = None,
        bound_mode: BoundMode = "paper",
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        if max_length is not None and max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        if frontier_cap is not None and frontier_cap < 1:
            raise ValueError("frontier_cap must be >= 1")
        self.k = int(k)
        self.min_length = int(min_length)
        self.max_length = None if max_length is None else int(max_length)
        self.frontier_cap = frontier_cap
        self.bound_mode = bound_mode

    # ------------------------------------------------------------------
    def _subtree_bounds(
        self, thetas: np.ndarray, priors: np.ndarray, h_class: float
    ) -> np.ndarray:
        """Upper bound on the IG of every itemset in each child's subtree.

        Descendant support fractions satisfy ``theta' <= theta``, so each
        component bound is evaluated at its monotone clamp (see module
        docstring for why each is valid).
        """
        bounds = np.minimum(_entropy_bits(np.minimum(thetas, 0.5)), h_class)
        if priors.size == 2:
            p = float(priors[1])
            p_minor = min(p, 1.0 - p)
            if 0.0 < p_minor:
                clamped = np.minimum(thetas, p_minor)
                paper = ig_upper_bound_batch(
                    clamped, p_minor, mode=self.bound_mode
                )
                bounds = np.minimum(bounds, paper)
        # The bound expressions can round a few ulp *below* the true
        # supremum (e.g. IG_ub(1/3, 1/3) vs the directly-computed IG of a
        # pattern achieving it), which would float-prune an exact tie.
        # Slack on the bound side keeps pruning sound; it only ever makes
        # the search expand slightly more, never miss a winner.
        return bounds + _PRUNE_SLACK

    def mine(self, data: TransactionDataset) -> TopKResult:
        """The k best patterns of ``data`` by information gain, exactly."""
        with _obs.span(
            "streaming.topk",
            k=self.k,
            rows=data.n_rows,
            items=data.n_items,
        ) as topk_span:
            result = self._mine(data)
            topk_span.set(
                found=len(result),
                nodes=result.nodes_expanded,
                pruned=result.subtrees_pruned,
            )
        session = _obs._ACTIVE
        if session is not None:
            session.add_many(
                (
                    ("streaming.topk.runs", 1),
                    ("streaming.topk.nodes_expanded", result.nodes_expanded),
                    ("streaming.topk.candidates_scored", result.candidates_scored),
                    ("streaming.topk.subtrees_pruned", result.subtrees_pruned),
                )
            )
        return result

    def _mine(self, data: TransactionDataset) -> TopKResult:
        n = data.n_rows
        if n == 0 or data.n_items == 0:
            return TopKResult([], k=self.k, n_rows=n)
        item_bits = data.item_bits()
        label_words = data.label_bits().words
        class_totals = data.class_counts().astype(np.int64)
        priors = class_totals / n
        h_class = _class_entropy(class_totals)
        n_items = data.n_items

        # best: ascending by rank key, at most k entries.  Keys are unique
        # (they end in the itemset), so tuple comparison never reaches the
        # non-orderable ScoredPattern payload.
        best: list[tuple[tuple, ScoredPattern]] = []
        # frontier: max-heap on the subtree bound (negated), ties broken by
        # (length, items) for a deterministic pop order.  Entries carry no
        # tidset — it is re-derived from the cached vertical bitsets at pop
        # time, keeping each entry O(pattern length).
        frontier: list[tuple[float, int, tuple[int, ...]]] = []
        nodes_expanded = 0
        candidates_scored = 0
        subtrees_pruned = 0
        frontier_peak = 0

        def worst_ig() -> float:
            return -best[-1][0][0]

        def offer(items: tuple[int, ...], ig: float, counts: tuple[int, ...]):
            if len(items) < self.min_length:
                return
            key = rank_key(ig, items)
            if len(best) == self.k and key >= best[-1][0]:
                return
            insort(
                best,
                (key, ScoredPattern(Pattern(items, int(sum(counts))), ig, counts)),
            )
            if len(best) > self.k:
                best.pop()

        def expand(items: tuple[int, ...], tidset: np.ndarray) -> None:
            nonlocal nodes_expanded, candidates_scored
            nodes_expanded += 1
            start = items[-1] + 1 if items else 0
            if start >= n_items:
                return
            present = cover_class_counts(
                item_bits.words[start:] & tidset, label_words
            )
            supports = present.sum(axis=1)
            igs = information_gain_batch(
                present, class_totals[np.newaxis, :] - present
            )
            live = np.flatnonzero(supports >= 1)
            candidates_scored += int(live.size)
            child_len = len(items) + 1
            expandable = (
                self.max_length is None or child_len < self.max_length
            )
            if expandable and live.size:
                thetas = supports[live] / n
                bounds = self._subtree_bounds(thetas, priors, h_class)
            for j, idx in enumerate(live):
                item = start + int(idx)
                child = items + (item,)
                counts = tuple(int(c) for c in present[idx])
                if self.max_length is None or child_len <= self.max_length:
                    offer(child, float(igs[idx]), counts)
                if expandable and item < n_items - 1:
                    bound = float(bounds[j])
                    # Strict comparison: a subtree whose bound *equals*
                    # the k-th best IG may still hold a tie that wins on
                    # the deterministic tie-break, so only strictly
                    # dominated subtrees are pruned.
                    if len(best) == self.k and bound < worst_ig():
                        nonlocal_pruned()
                        continue
                    heapq.heappush(frontier, (-bound, child_len, child))

        def nonlocal_pruned() -> None:
            nonlocal subtrees_pruned
            subtrees_pruned += 1

        def compact_frontier() -> None:
            """Drop frontier entries strictly below the current threshold."""
            nonlocal frontier, subtrees_pruned
            if len(best) < self.k:
                return
            threshold = worst_ig()
            kept = [entry for entry in frontier if -entry[0] >= threshold]
            subtrees_pruned += len(frontier) - len(kept)
            heapq.heapify(kept)
            frontier = kept

        expand((), packed_ones(n))
        frontier_peak = len(frontier)
        while frontier:
            neg_bound, _, items = heapq.heappop(frontier)
            if len(best) == self.k and -neg_bound < worst_ig():
                # Bound-ordered pop: every remaining subtree is dominated.
                subtrees_pruned += 1 + len(frontier)
                break
            expand(items, item_bits.and_reduce(items))
            if len(frontier) > frontier_peak:
                frontier_peak = len(frontier)
            if self.frontier_cap is not None and len(frontier) > self.frontier_cap:
                compact_frontier()
                if len(frontier) > self.frontier_cap:
                    raise FrontierCapExceeded(self.frontier_cap, len(frontier))

        return TopKResult(
            [scored for _, scored in best],
            k=self.k,
            n_rows=n,
            nodes_expanded=nodes_expanded,
            candidates_scored=candidates_scored,
            subtrees_pruned=subtrees_pruned,
            frontier_peak=frontier_peak,
        )
