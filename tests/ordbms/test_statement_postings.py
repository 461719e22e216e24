"""A statement posts its index entries once: removed rows first, then
added ones, one B+tree descent per key.  Whatever the statement, every
index must equal one rebuilt from the heap, and a refused statement
must leave every index as it was."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintError
from repro.ordbms import CLOB, INTEGER, VARCHAR, Column, Table, TableSchema

#: Rows the hot key holds before the first statement.
HOT = 300
KEYS = ("hot", "a", "b", "c", None)
WORDS = ("alpha", "beta", "gamma", "the", "of")

notes = st.one_of(
    st.none(), st.just(""),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
)


def seeded_table():
    table = Table(
        TableSchema(
            "T",
            (
                Column("ID", INTEGER, nullable=False),
                Column("KEY", VARCHAR),
                Column("NOTE", CLOB),
            ),
            primary_key="ID",
        )
    )
    table.create_index("KEY")
    table.create_text_index("NOTE")
    rowids = table.next_rowids(HOT + 2)
    row = table.schema.row_of_image
    images = [(i, "hot", "alpha beta alpha") for i in range(HOT)]
    images += [(HOT, "a", None), (HOT + 1, None, "of")]
    table.change([(None, row(image, rowid)) for image, rowid in zip(images, rowids)])
    return table


def postings(table):
    """Every index's entries and size, as the table keeps them."""
    return (
        {column: (list(table.index_on(column).items()), len(table.index_on(column)))
         for column in table.index_columns},
        (table.text_index_on("NOTE").signature(), len(table.text_index_on("NOTE"))),
    )


def rebuilt(table):
    """The same, rebuilt from the heap."""
    return (
        {column: (list(index.items()), len(index))
         for column in table.index_columns
         for index in [table._build_index(column)]},  # noqa: SLF001 - the reference build
        (lambda index: (index.signature(), len(index)))(
            table._build_text_index("NOTE")  # noqa: SLF001
        ),
    )


@st.composite
def statement(draw, table, next_id):
    """One statement over ``table``'s live rows: deletes, in-place
    updates (a key moved, an ID handed from one slot to another) and
    tail inserts, in an arbitrary order."""
    live = list(table.scan())
    touched = draw(st.lists(st.sampled_from(live), unique_by=lambda row: row.rowid, max_size=40))
    kinds = draw(st.lists(st.sampled_from(("delete", "update")), min_size=len(touched),
                          max_size=len(touched)))
    deleted = [row for row, kind in zip(touched, kinds) if kind == "delete"]
    updated = [row for row, kind in zip(touched, kinds) if kind == "update"]
    # An updated row keeps its ID, takes a fresh one, or takes the ID of
    # a row this statement deletes or moves (a value freed in the batch).
    ids = [row.ID for row in updated]
    freed = [row.ID for row in deleted]
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    pairs = []
    for row, new_id in zip(updated, ids):
        if freed and draw(st.booleans()):
            freed.append(new_id)
            new_id = freed.pop(0)
        pairs.append((row, row._replace(ID=new_id, KEY=draw(st.sampled_from(KEYS)),
                                        NOTE=draw(notes))))
    pairs += [(row, None) for row in deleted]
    # A freed ID and a deleted row's key come back on a new row.
    fresh = [(freed.pop() if freed and draw(st.booleans()) else next(next_id),
              draw(st.sampled_from(KEYS + tuple(row.KEY for row in deleted))), draw(notes))
             for _ in range(draw(st.integers(0, 30)))]
    order = draw(st.permutations(list(range(len(pairs))) + [None] * len(fresh)))
    tail, values, mixed = iter(table.next_rowids(len(fresh))), iter(fresh), []
    for at in order:
        if at is None:
            mixed.append((None, table.schema.row_of_image(next(values), next(tail))))
        else:
            mixed.append(pairs[at])
    return mixed


class TestBatchedPostingEqualsRebuild:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_statement_leaves_the_indexes_a_rebuild_would(self, data):
        table, next_id = seeded_table(), iter(range(10_000, 20_000))
        for _ in range(data.draw(st.integers(1, 4))):
            table.change(data.draw(statement(table, next_id)))
            assert postings(table) == rebuilt(table)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_refused_statement_leaves_every_index_unchanged(self, data):
        table, next_id = seeded_table(), iter(range(10_000, 20_000))
        pairs = data.draw(statement(table, next_id))
        kept = next(row for row in table.scan() if row.rowid not in
                    {(before or after).rowid for before, after in pairs})
        clash = table.schema.row_of_image((kept.ID, "b", "gamma"), table.next_rowids(1)[0])
        pairs = [pair for pair in pairs if pair[0] is not None] + [(None, clash)]
        before = postings(table)
        with pytest.raises(ConstraintError, match=f"duplicate value {kept.ID} "):
            table.change(pairs)
        assert postings(table) == before == rebuilt(table)

    def test_a_hot_key_loses_rows_in_any_order_without_a_rebuild_of_its_list(self):
        table = seeded_table()
        hot = table.index_on("KEY")
        leaf = hot._find_leaf("hot")  # noqa: SLF001 - the key's own list
        listed = leaf.values[leaf.keys.index("hot")]
        held = list(listed)
        rows = [table.fetch(rowid) for rowid in held[::-7]]  # descending, spread
        table.change([(row, None) for row in rows])
        gone = {row.rowid for row in rows}
        assert leaf.values[leaf.keys.index("hot")] is listed
        assert listed == [rowid for rowid in held if rowid not in gone]
        assert postings(table) == rebuilt(table)

    def test_a_key_removed_and_re_added_in_one_statement(self):
        table = seeded_table()
        a, hot = table.lookup("KEY", "a")[0], table.lookup("KEY", "hot")[0]
        pairs = [(a, a._replace(KEY="hot")), (hot, hot._replace(KEY="a"))]
        table.change(pairs)
        assert [row.ID for row in table.lookup("KEY", "a")] == [hot.ID]
        assert postings(table) == rebuilt(table)
