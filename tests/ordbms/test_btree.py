"""B+tree index: correctness under inserts, duplicates, deletes, ranges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordbms.btree import FANOUT, BTreeIndex
from repro.ordbms.rowid import RowId


def rid(n: int) -> RowId:
    return RowId(n)


@pytest.fixture
def tree():
    return BTreeIndex("t")


class TestBasics:
    def test_empty_search(self, tree):
        assert tree.search("missing") == []
        assert len(tree) == 0

    def test_insert_and_search(self, tree):
        tree.insert("k", rid(1))
        assert tree.search("k") == [rid(1)]

    def test_duplicate_keys_accumulate(self, tree):
        tree.insert("k", rid(1))
        tree.insert("k", rid(2))
        assert sorted(tree.search("k")) == [rid(1), rid(2)]
        assert len(tree) == 2

    def test_search_does_not_bleed_into_neighbors(self, tree):
        for i, key in enumerate(["a", "b", "c"]):
            tree.insert(key, rid(i))
        assert tree.search("b") == [rid(1)]


class TestSplitsAndDepth:
    def test_many_inserts_keep_all_keys(self, tree):
        count = FANOUT * FANOUT  # forces at least two levels of splits
        for i in range(count):
            tree.insert(i, rid(i))
        assert len(tree) == count
        for probe in (0, 1, FANOUT, count // 2, count - 1):
            assert tree.search(probe) == [rid(probe)]

    def test_keys_iterates_sorted(self, tree):
        import random

        values = list(range(200))
        random.Random(5).shuffle(values)
        for value in values:
            tree.insert(value, rid(value))
        assert [key for key, _ in tree.items()] == sorted(values)


class TestDelete:
    def test_delete_single(self, tree):
        tree.insert("k", rid(1))
        assert tree.delete("k", rid(1))
        assert tree.search("k") == []
        assert len(tree) == 0

    def test_delete_one_of_duplicates(self, tree):
        tree.insert("k", rid(1))
        tree.insert("k", rid(2))
        assert tree.delete("k", rid(1))
        assert tree.search("k") == [rid(2)]

    def test_delete_missing_returns_false(self, tree):
        tree.insert("k", rid(1))
        assert not tree.delete("k", rid(99))
        assert not tree.delete("other", rid(1))

    def test_delete_after_splits(self, tree):
        count = FANOUT * 3
        for i in range(count):
            tree.insert(i, rid(i))
        for i in range(0, count, 2):
            assert tree.delete(i, rid(i))
        for i in range(count):
            expected = [] if i % 2 == 0 else [rid(i)]
            assert tree.search(i) == expected


    def test_postings_stay_in_rowid_order(self, tree):
        # Rows arrive in physical order; a rollback's restore or an
        # update re-adds an old address, which must not land at the end.
        for n in (1, 2, 4, 3, 3):
            tree.insert("k", rid(n))
        assert tree.search("k") == [rid(1), rid(2), rid(3), rid(3), rid(4)]
        assert tree.delete("k", rid(2)) and tree.delete("k", rid(3))
        assert [rowid for _, rowid in tree.items()] == [rid(1), rid(3), rid(4)]
        assert len(tree) == 3

    def test_one_call_posts_several_rowids_of_one_key(self, tree):
        tree.insert("k", rid(1), rid(4), rid(9))
        tree.insert("k", rid(2), rid(3))  # into the middle
        tree.insert("k", rid(10), rid(11))  # past the end
        assert tree.search("k") == [rid(n) for n in (1, 2, 3, 4, 9, 10, 11)]
        assert len(tree) == 7
        assert tree.delete("k", rid(2), rid(99), rid(10)) == 2
        assert tree.search("k") == [rid(n) for n in (1, 3, 4, 9, 11)] and len(tree) == 5
        assert tree.delete("k", *tree.search("k")) == 5
        assert (tree.search("k"), len(tree), list(tree.items())) == ([], 0, [])

    def test_delete_does_not_compare_against_every_posting(self, tree):
        compares = []

        class Counted(RowId):
            def __lt__(self, other):
                compares.append(other)
                return int(self) < int(other)

            def __eq__(self, other):
                compares.append(other)
                return int(self) == int(other)

            __hash__ = RowId.__hash__

        for n in range(4096):  # one low-cardinality key, as NODETYPE has
            tree.insert(1, Counted(n))
        compares.clear()
        assert tree.delete(1, Counted(32 * 64))
        assert len(compares) <= 16
        assert len(tree.search(1)) == 4095


class TestRange:
    def test_range_inclusive(self, tree):
        for i in range(20):
            tree.insert(i, rid(i))
        got = [key for key, _ in tree.range(5, 9)]
        assert got == [5, 6, 7, 8, 9]

    def test_range_open_ended(self, tree):
        for i in range(10):
            tree.insert(i, rid(i))
        assert [k for k, _ in tree.range(low=7)] == [7, 8, 9]
        assert [k for k, _ in tree.range(high=2)] == [0, 1, 2]
        assert len(list(tree.range())) == 10

    def test_range_spans_leaf_boundaries(self, tree):
        count = FANOUT * 3
        for i in range(count):
            tree.insert(i, rid(i))
        got = [key for key, _ in tree.range(FANOUT - 2, FANOUT + 2)]
        assert got == list(range(FANOUT - 2, FANOUT + 3))


class TestProperties:
    @given(st.lists(st.integers(-1000, 1000), max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_multimap(self, keys):
        tree = BTreeIndex()
        reference: dict[int, list[RowId]] = {}
        for position, key in enumerate(keys):
            rowid = rid(position)
            tree.insert(key, rowid)
            reference.setdefault(key, []).append(rowid)
        for key, rowids in reference.items():
            assert sorted(tree.search(key)) == sorted(rowids)
        assert list(dict.fromkeys(key for key, _ in tree.items())) == sorted(reference)
        assert len(tree) == len(keys)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(0, 30)),
            max_size=150,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_insert_delete_interleaving(self, operations):
        tree = BTreeIndex()
        reference: dict[str, set[RowId]] = {}
        for key, n in operations:
            rowid = rid(n)
            live = reference.setdefault(key, set())
            if rowid in live:
                assert tree.delete(key, rowid)
                live.discard(rowid)
            else:
                tree.insert(key, rowid)
                live.add(rowid)
        for key in "abcdef":
            assert set(tree.search(key)) == reference.get(key, set())

    @given(st.sets(st.integers(0, 500), max_size=200), st.integers(0, 500),
           st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_range_equals_filter(self, keys, bound_a, bound_b):
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        tree = BTreeIndex()
        for key in keys:
            tree.insert(key, rid(key))
        got = [key for key, _ in tree.range(low, high)]
        assert got == sorted(key for key in keys if low <= key <= high)
