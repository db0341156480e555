"""Property tests for the packed-bitset engine against dense numpy.

Every kernel — pack/unpack, popcount, intersection, Jaccard redundancy —
is checked against its ``dtype=bool`` equivalent on random masks,
including widths that are not multiples of 64 and the all-zero / all-one
edge rows (appended to every generated matrix so each example exercises
them).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitset
from repro.core.bitset import (
    _TABLE_CHUNK,
    WORD_BITS,
    BitMatrix,
    PatternCovers,
    intersection_counts,
    pack_bits,
    packed_ones,
    popcount,
    scatter_bits,
    unpack_bits,
    word_count,
)
from repro.mining.closed import occurrence_matrix
from repro.selection.redundancy import batch_redundancy, batch_redundancy_packed

#: Widths straddling the word size: 1 word exactly, off-by-one both ways,
#: multiple words, and a sub-byte width.
EDGE_WIDTHS = [1, 5, 63, 64, 65, 127, 128, 200]


@st.composite
def bool_matrices(draw):
    """Random boolean matrices with all-zero and all-one rows appended."""
    n_bits = draw(st.integers(min_value=1, max_value=200))
    n_rows = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_bits)) < draw(
        st.floats(min_value=0.0, max_value=1.0)
    )
    edges = np.vstack(
        [np.zeros((1, n_bits), dtype=bool), np.ones((1, n_bits), dtype=bool)]
    )
    return np.vstack([dense, edges])


class TestPackUnpack:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_roundtrip(self, dense):
        packed = pack_bits(dense)
        assert packed.shape == (dense.shape[0], word_count(dense.shape[1]))
        assert np.array_equal(unpack_bits(packed, dense.shape[1]), dense)

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_tail_bits_are_zero(self, dense):
        """The packed invariant: bits past n_bits in the last word are 0."""
        packed = pack_bits(dense)
        full = unpack_bits(packed, packed.shape[1] * WORD_BITS)
        assert not full[:, dense.shape[1]:].any()

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_word_boundaries(self, width, rng):
        dense = rng.random((3, width)) < 0.5
        assert np.array_equal(unpack_bits(pack_bits(dense), width), dense)

    def test_one_dimensional_mask(self, rng):
        mask = rng.random(70) < 0.5
        packed = pack_bits(mask)
        assert packed.shape == (2,)
        assert np.array_equal(unpack_bits(packed, 70), mask)

    def test_zero_width(self):
        packed = pack_bits(np.zeros((2, 0), dtype=bool))
        assert packed.shape == (2, 0)
        assert np.array_equal(popcount(packed), np.zeros(2, dtype=np.int64))


class TestPopcount:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_matches_dense_sum(self, dense):
        assert np.array_equal(
            popcount(pack_bits(dense)), dense.sum(axis=1).astype(np.int64)
        )

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_all_ones_row(self, width):
        ones = np.ones((1, width), dtype=bool)
        assert popcount(pack_bits(ones))[0] == width
        assert int(popcount(packed_ones(width))) == width

    def test_scalar_for_single_mask(self, rng):
        mask = rng.random(100) < 0.3
        assert int(popcount(pack_bits(mask))) == int(mask.sum())


class TestIntersection:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_and_matches_dense(self, dense):
        packed = pack_bits(dense)
        reference = dense[0]
        joint = packed & packed[0]
        assert np.array_equal(
            unpack_bits(joint, dense.shape[1]), dense & reference
        )

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_intersection_counts_match_dense(self, dense):
        packed = pack_bits(dense)
        expected = (dense & dense[-1]).sum(axis=1)
        assert np.array_equal(intersection_counts(packed, packed[-1]), expected)

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices(), block_words=st.sampled_from([1, 3, 1 << 17]))
    def test_intersection_count_matrix_matches_dense(self, dense, block_words):
        """A 2-D mask stack gives the (k, m) matrix, block size aside."""
        packed = pack_bits(dense)
        others = packed[::-1][: max(1, len(packed) // 2)]
        expected = dense.astype(int) @ dense[::-1][: len(others)].T.astype(int)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitset, "_INTERSECTION_BLOCK_WORDS", block_words)
            counts = intersection_counts(packed, others)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_and_reduce_matches_dense_all(self, dense):
        matrix = BitMatrix.from_dense(dense)
        indices = list(range(dense.shape[0]))
        assert np.array_equal(
            unpack_bits(matrix.and_reduce(indices), matrix.n_bits),
            dense.all(axis=0),
        )

    def test_and_reduce_empty_is_all_ones(self):
        matrix = BitMatrix.from_dense(np.zeros((3, 70), dtype=bool))
        assert np.array_equal(
            unpack_bits(matrix.and_reduce([]), 70), np.ones(70, dtype=bool)
        )
        assert matrix.support([]) == 70


class TestJaccardKernel:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_packed_redundancy_matches_dense(self, dense, seed):
        """The packed Jaccard-redundancy kernel is bit-for-bit the dense one."""
        rng = np.random.default_rng(seed)
        supports = dense.sum(axis=1).astype(np.int64)
        relevances = rng.random(dense.shape[0])
        packed = pack_bits(dense)
        for reference in range(dense.shape[0]):
            dense_result = batch_redundancy(
                dense,
                supports,
                relevances,
                dense[reference],
                int(supports[reference]),
                float(relevances[reference]),
            )
            packed_result = batch_redundancy_packed(
                packed,
                supports,
                relevances,
                packed[reference],
                int(supports[reference]),
                float(relevances[reference]),
            )
            assert np.array_equal(dense_result, packed_result)


class TestBitMatrix:
    def test_vertical_is_transposed_occurrence_matrix(self, tiny_transactions):
        dense = occurrence_matrix(
            tiny_transactions.transactions, n_items=tiny_transactions.n_items
        )
        vertical = BitMatrix.vertical(
            tiny_transactions.transactions, tiny_transactions.n_items
        )
        assert np.array_equal(vertical.to_dense(), dense.T)
        assert np.array_equal(vertical.popcounts(), dense.sum(axis=0))

    def test_dataset_cache_is_reused(self, tiny_transactions):
        assert tiny_transactions.item_bits() is tiny_transactions.item_bits()
        assert tiny_transactions.label_bits() is tiny_transactions.label_bits()

    def test_covers_matches_naive_subset_check(self, planted_transactions):
        data = planted_transactions
        pattern = data.transactions[0][:2]
        expected = np.fromiter(
            (set(pattern).issubset(t) for t in data.transactions),
            dtype=bool,
            count=data.n_rows,
        )
        assert np.array_equal(data.covers(pattern), expected)
        assert data.support_count(pattern) == int(expected.sum())

    def test_covers_out_of_range_items_is_empty(self, tiny_transactions):
        mask = tiny_transactions.covers((0, tiny_transactions.n_items + 5))
        assert not mask.any()
        assert tiny_transactions.support_count((tiny_transactions.n_items,)) == 0

    def test_rejects_mismatched_words(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((2, 3), dtype=np.uint64), n_bits=64)

    def test_class_support_counts_match_bincount(self, planted_transactions):
        data = planted_transactions
        pattern = data.transactions[0][:2]
        mask = data.covers(pattern)
        expected = np.bincount(data.labels[mask], minlength=data.n_classes)
        assert np.array_equal(data.class_support_counts(pattern), expected)


@st.composite
def transaction_databases(draw):
    n_items = draw(st.integers(min_value=1, max_value=12))
    n_rows = draw(st.integers(min_value=0, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return [
        sorted(
            rng.choice(
                n_items, size=rng.integers(0, n_items + 1), replace=False
            ).tolist()
        )
        for _ in range(n_rows)
    ], n_items


class TestScatterBits:
    def test_empty_is_noop(self):
        words = np.zeros((3, 2), dtype=np.uint64)
        scatter_bits(
            words,
            np.array([], dtype=np.intp),
            np.array([], dtype=np.intp),
        )
        assert words.sum() == 0

    def test_duplicates_are_idempotent(self):
        once = np.zeros((2, 2), dtype=np.uint64)
        scatter_bits(once, np.array([1, 0]), np.array([64, 3]))
        thrice = np.zeros((2, 2), dtype=np.uint64)
        scatter_bits(
            thrice,
            np.array([1, 0, 1, 0, 1, 0]),
            np.array([64, 3, 64, 3, 64, 3]),
        )
        assert np.array_equal(once, thrice)

    def test_same_word_bits_merge(self):
        words = np.zeros((1, 1), dtype=np.uint64)
        scatter_bits(words, np.zeros(3, dtype=np.intp), np.array([0, 1, 63]))
        assert words[0, 0] == (1 | 2 | (1 << 63))

    def test_non_contiguous_target(self):
        # Regression: flat-view scatter silently wrote into a copy when
        # the word array was a non-contiguous slice.
        backing = np.zeros((4, 6), dtype=np.uint64)
        view = backing[::2, :3]
        scatter_bits(view, np.array([0, 1]), np.array([5, 70]))
        assert backing[0, 0] == np.uint64(1) << np.uint64(5)
        assert backing[2, 1] == np.uint64(1) << np.uint64(6)


class TestVerticalPacking:
    @settings(max_examples=100, deadline=None)
    @given(db=transaction_databases())
    def test_matches_dense_pack(self, db):
        transactions, n_items = db
        vertical = BitMatrix.vertical(transactions, n_items)
        dense = np.zeros((n_items, len(transactions)), dtype=bool)
        for t, row in enumerate(transactions):
            dense[list(row), t] = True
        assert np.array_equal(vertical.words, pack_bits(dense))
        assert vertical.n_bits == len(transactions)

    def test_out_of_range_item_rejected(self):
        with pytest.raises(IndexError):
            BitMatrix.vertical([[0], [3]], n_items=3)
        with pytest.raises(IndexError):
            BitMatrix.vertical([[-1]], n_items=3)

    def test_no_dense_intermediate_allocation(self):
        # 10k rows x 2000 items of arity 2 — the wide-sparse shape the
        # spike hit hardest.  The old path allocated the dense bool
        # occurrence matrix (n_items * n_rows = 20 MB) before packing;
        # the scatter path peaks at O(total set bits) temporaries
        # (~64 bytes per set bit here, ~1.3 MB) plus the 2.5 MB packed
        # result.
        rng = np.random.default_rng(0)
        n_rows, n_items = 10_000, 2000
        transactions = [
            sorted(rng.choice(n_items, size=2, replace=False).tolist())
            for _ in range(n_rows)
        ]
        tracemalloc.start()
        BitMatrix.vertical(transactions, n_items)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dense_bytes = n_rows * n_items
        assert peak < dense_bytes // 4


#: Item space of the PatternCovers property cases.
COVER_ITEMS = 6


@st.composite
def cover_cases(draw):
    """Transactions, labels and a pattern list for the cover kernel.

    Row counts include 0 and widths off the 64-bit word size; the pattern
    list always holds the empty pattern and a length-1 pattern, and its
    length is drawn from either side of the kernel's block boundary.
    """
    n_rows = draw(
        st.sampled_from([0, 1, 63, 64, 65, 130]) | st.integers(0, 140)
    )
    n_classes = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [
        tuple(int(i) for i in np.flatnonzero(rng.random(COVER_ITEMS) < 0.6))
        for _ in range(n_rows)
    ]
    labels = rng.integers(0, n_classes, size=n_rows)
    items = st.integers(min_value=0, max_value=COVER_ITEMS - 1)
    drawn = draw(
        st.lists(
            st.frozensets(items, max_size=4).map(lambda s: tuple(sorted(s))),
            max_size=8,
        )
    )
    base = [(), (draw(items),)] + drawn
    n_patterns = draw(
        st.sampled_from(
            [0, 1, len(base), _TABLE_CHUNK - 1, _TABLE_CHUNK, _TABLE_CHUNK + 1]
        )
    )
    patterns = [base[i % len(base)] for i in range(n_patterns)]
    return rows, labels, n_classes, patterns


class TestPatternCovers:
    @given(cover_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_set_containment(self, case):
        rows, labels, n_classes, patterns = case
        covers = PatternCovers(patterns, COVER_ITEMS)
        item_bits = BitMatrix.vertical(rows, COVER_ITEMS)
        label_words = pack_bits(
            labels[np.newaxis, :] == np.arange(n_classes)[:, np.newaxis]
        )
        # Pure-Python oracle: containment per row, memoised per itemset.
        row_sets = [set(row) for row in rows]
        contained = {
            p: [set(p) <= row for row in row_sets] for p in set(patterns)
        }
        expected_dense = np.array(
            [contained[p] for p in patterns], dtype=bool
        ).reshape(len(patterns), len(rows))
        expected_counts = np.array(
            [
                [
                    sum(hit and y == c for hit, y in zip(contained[p], labels))
                    for c in range(n_classes)
                ]
                for p in patterns
            ],
            dtype=np.int64,
        ).reshape(len(patterns), n_classes)

        words = covers.words(item_bits)
        assert words.shape == (len(patterns), word_count(len(rows)))
        assert np.array_equal(unpack_bits(words, len(rows)), expected_dense)
        counts = covers.class_counts(item_bits, label_words)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(
            counts.sum(axis=1), expected_dense.sum(axis=1)
        )

    @pytest.mark.parametrize("pattern", [(-1, 0), (0, 4), (5,)])
    def test_out_of_range_items_rejected(self, pattern):
        with pytest.raises(ValueError, match="never match"):
            PatternCovers([(0,), pattern], n_items=4)
