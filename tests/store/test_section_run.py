"""The forward read against the hop walk it replaced.

``HopOracle`` is the read path as the paper tells it and as it ran
before: children by their ``PARENTROWID`` in ROWID order, a section by
next-sibling hops, a DOM by recursion over both, and a row's sections by
a climb to the root.  It trusts only the parent links and the order of
siblings.  ``NodeAccessor.run`` and the ``compose_*`` functions
trust the whole layout instead — a document's rows are one ROWID run in
document order — and must hand back the same rows and the same
serialized XML, as of now and pinned, from every heap the store can be
in; ``SectionPass`` must say what the climb says.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RowIdError
from repro.ordbms import MemoryLogDevice
from repro.ordbms.wal import encode_checkpoint
from repro.sgml.dom import Element, Text
from repro.sgml.nodetypes import NodeType
from repro.sgml.serializer import serialize
from repro.store import (
    XmlStore,
    check_store,
    compose_document,
    compose_node,
    compose_section,
)
from repro.store.accessor import joined_text, split_section
from repro.store.schema import decode_attributes
from tests.store.test_decompose_onepass import (
    SMALL,
    WIDE,
    document,
    load_rolled_back,
    tree_strategy,
)


def scope(accessor, context_row):
    """The scope of the section ``context_row`` heads: its run past the
    heading (:func:`split_section`)."""
    return split_section(accessor.run(context_row, siblings=True))[1]


#: The rows the old recursive loader laid down (memo.md stored twice,
#: plan.md stored and deleted), dumped by today's schema.
OLD_LOADER_SNAPSHOT = (
    "%NETMARK-SNAPSHOT 4\nTABLE DOC\nSCHEMA DOC_ID:INTEGER!,FILE_NAME:VARCHAR!,FILE_DATE:TIMESTAMP,FILE_SIZE:INTEGER,FORMAT:VARCHAR,METADATA:CLOB,ROOTROWID:ROWID!\tDOC_ID\tFILE_NAME\t-\n"
    "ROW 0 1\tmemo.md\t~\t24\tmarkdown\tchar_size=24;format=markdown;line_count=4\t0\n"
    "ROW 1 2\tmemo.md\t~\t24\tmarkdown\tchar_size=24;format=markdown;line_count=4\t6\n"
    "TOMB 2\n"
    "TABLE XML\nSCHEMA DOC_ID:INTEGER!,PARENTROWID:ROWID,NODETYPE:INTEGER!,NODENAME:VARCHAR,NODEDATA:CLOB,ATTRS:CLOB\t-\tNODENAME\tNODEDATA\n"
    "ROW 0 1\t~\t1\tdocument\t~\t~\n"
    "ROW 1 1\t0\t5\tsection\t~\t~\n"
    "ROW 2 1\t1\t3\tcontext\t~\t~\n"
    "ROW 3 1\t2\t2\t~\tBudget\t~\n"
    "ROW 4 1\t1\t1\tcontent\t~\t~\n"
    "ROW 5 1\t4\t2\t~\tTravel funds.\t~\n"
    "ROW 6 2\t~\t1\tdocument\t~\t~\n"
    "ROW 7 2\t6\t5\tsection\t~\t~\n"
    "ROW 8 2\t7\t3\tcontext\t~\t~\n"
    "ROW 9 2\t8\t2\t~\tOps\t~\n"
    "ROW 10 2\t7\t1\tcontent\t~\t~\n"
    "ROW 11 2\t10\t2\t~\tLaunch pad work.\t~\n"
    + "".join(f"TOMB {slot}\n" for slot in range(12, 18))
)


class HopOracle:
    """The hop-based walk, on the parent links alone: ``PARENTROWID`` up,
    children by ``PARENTROWID`` in ROWID order, the next such child
    across.  Rows come through ``accessor``, so the oracle reads as of
    its LSN."""

    def __init__(self, accessor):
        self.accessor = accessor
        self._documents = {}  # doc id -> its rows as of the LSN

    def parent(self, row):
        above = row.PARENTROWID
        return None if above is None else self.accessor.node(above)

    def next_sibling(self, row):
        parent = self.parent(row)
        family = [row] if parent is None else self.children(parent)
        later = [sibling for sibling in family if sibling.rowid > row.rowid]
        return later[0] if later else None

    def rows(self, doc_id):
        """Document ``doc_id``'s rows as of the LSN, found by their key:
        a filtered scan, blind to the run a forward read follows."""
        rows = self._documents.get(doc_id)
        if rows is None:
            accessor = self.accessor
            rows = self._documents[doc_id] = accessor.table.snapshot_search("DOC_ID", doc_id, accessor.lsn)
        return rows

    def children(self, row):
        below = [child for child in self.rows(row.DOC_ID) if child.PARENTROWID == row.rowid]
        return sorted(below, key=lambda child: child.rowid)

    def facts(self, row):
        """``(sections, ancestor, emphasised)`` of a TEXT row, all the way
        to the root (:meth:`climb`)."""
        sections = []
        ancestor = emphasised = None
        for found, above in self.climb(row):
            if self.accessor.is_context(found):
                sections.append(found.rowid)
                if above:
                    ancestor, emphasised = ancestor or found.rowid, emphasised or False
            elif emphasised is None and found.NODETYPE == int(NodeType.INTENSE):
                emphasised = True
        return tuple(sections), ancestor, bool(emphasised)

    def governing(self, row):
        """The first CONTEXT on the climb (None: front matter)."""
        for found, _ in self.climb(row):
            if self.accessor.is_context(found):
                return found
        return None

    def climb(self, row):
        """Bottom-up, one level per hop: the parent (flagged True), then —
        unless the node on the path is itself a CONTEXT, which ends the
        scope before it — the latest CONTEXT sibling preceding it."""
        current = row
        while (parent := self.parent(current)) is not None:
            yield parent, True
            best = None
            for sibling in () if self.accessor.is_context(current) else self.children(parent):
                if sibling.rowid >= current.rowid:
                    break
                if self.accessor.is_context(sibling):
                    best = sibling
            if best is not None:
                yield best, False
            current = parent

    def subtree(self, row):
        result = []
        for child in self.children(row):
            result.append(child)
            result.extend(self.subtree(child))
        return result

    def section_scope(self, context_row):
        scope = []
        sibling = self.next_sibling(context_row)
        while sibling is not None and not self.accessor.is_context(sibling):
            scope.append(sibling)
            scope.extend(self.subtree(sibling))
            sibling = self.next_sibling(sibling)
        return scope

    @staticmethod
    def text_of(rows):
        pieces = [
            (row.NODEDATA or "").strip()
            for row in rows
            if row.NODETYPE == int(NodeType.TEXT) and row.NODEDATA
        ]
        return " ".join(piece for piece in pieces if piece)

    def compose_node(self, row):
        if row.NODETYPE == int(NodeType.TEXT):
            return Text(row.NODEDATA or "")
        element = Element(
            row.NODENAME or "node", decode_attributes(row.ATTRS)
        )
        element.synthetic = row.NODETYPE == int(NodeType.SIMULATION)
        for child_row in self.children(row):
            element.append(self.compose_node(child_row))
        return element

    def compose_section(self, context_row):
        section = Element("section", synthetic=True)
        section.append(self.compose_node(context_row))
        sibling = self.next_sibling(context_row)
        while sibling is not None and not self.accessor.is_context(sibling):
            section.append(self.compose_node(sibling))
            sibling = self.next_sibling(sibling)
        return section

    def compose_document(self, doc_id):
        [root] = [row for row in self.rows(doc_id) if row.PARENTROWID is None]
        return self.compose_node(root)


def assert_reads_agree(store):
    """Every row's facts and subtree, every section, every document:
    forward read and pass == hop walk, through an unheld accessor and
    through a pinned one."""
    assert check_store(store.database).ok
    rows = list(store.xml_table.scan())
    with store.snapshot() as snapshot:
        for pin in (None, snapshot):
            oracle = HopOracle(store.new_accessor(pin))
            accessor = store.new_accessor(pin)
            for row in rows:
                if accessor.is_text(row):
                    for indexed in (True, False):
                        assert accessor.text_facts([row.rowid], indexed) == [
                            oracle.facts(row)
                        ]
                else:
                    assert accessor.governing(row) == (
                        row if accessor.is_context(row) else oracle.governing(row)
                    )
                assert accessor.run(row)[1:] == oracle.subtree(row)
                assert serialize(compose_node(row, accessor)) == (
                    serialize(oracle.compose_node(row))
                )
                if not accessor.is_context(row):
                    continue
                hops = oracle.section_scope(row)
                assert scope(accessor, row) == hops
                assert accessor.run(row, siblings=True) == (
                    [row] + oracle.subtree(row) + hops
                )
                assert joined_text(scope(accessor, row)) == oracle.text_of(hops)
                assert accessor.context_title(row) == (
                    oracle.text_of(oracle.subtree(row))
                )
                assert serialize(compose_section(row, accessor)) == (
                    serialize(oracle.compose_section(row))
                )
            for entry in store.documents(pin):
                composed = compose_document(entry.doc_id, accessor)
                assert serialize(composed) == (
                    serialize(oracle.compose_document(entry.doc_id))
                )
    return len(rows)


def now(store):
    """The LSN a read given no snapshot resolves at."""
    return store.database.mvcc.read_lsn()


def context_rows(store):
    return [
        row for row in store.xml_table.scan()
        if row.NODETYPE == int(NodeType.CONTEXT)
    ]


#: Flat HTML shape: headings are siblings of the paragraphs they govern.
FLAT = ("doc", {}, [
    ("h1", {}, ["alpha"]), ("p", {}, ["beta gamma", ("b", {}, ["x"])]), "orbit",
    ("h1", {"id": "two"}, ["orbit", ("b", {}, ["x"])]), ("p", {}, []),
    ("title", {}, []), ("p", {}, ["alpha"]),
])


class TestAgainstTheHopWalk:
    @given(st.lists(tree_strategy, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_generated_doms_read_identically(self, specs):
        store = XmlStore()
        for index, spec in enumerate(specs):
            store.store_document(document(spec, f"d{index}.xml"))
        assert_reads_agree(store)

    def test_block_and_file_boundaries(self):
        """What a flat heap still has to cross: runs that start right
        behind a run of tombstones, and a document that ends at the tail."""
        store = XmlStore()
        for index, spec in enumerate([FLAT, WIDE, FLAT, SMALL]):
            store.store_document(document(spec, f"d{index}.xml"))
        store.delete_document(store.lookup_by_name("d1.xml").doc_id)
        store.store_document(document(WIDE, "tail.xml"))
        assert "TOMB" in store.dump()
        assert assert_reads_agree(store) > 3 * 4 * 2
        rows = list(store.xml_table.scan())
        behind = next(row for row in rows if row.DOC_ID == store.lookup_by_name("d2.xml").doc_id)
        assert not store.xml_table.exists(behind.rowid - 1)  # d2's root follows the tombstones
        root = next(row for row in rows if row.DOC_ID == store.lookup_by_name("tail.xml").doc_id)
        last = store.new_accessor().run(root)[-1]
        assert last.rowid == store.xml_table.next_rowids(1)[0] - 1  # the run ends at the tail

    def test_after_a_replace(self):
        """The old run is a row of tombstones, the new one is at the tail."""
        store = XmlStore()
        store.store_text("# Plan\n\nold words\n\n## Risks\n\nnone\n", "plan.md")
        store.store_document(document(FLAT, "between.xml"))
        store.replace_text("# Plan\n\nnew words\n\n## Risks\n\nmany\n", "plan.md")
        assert "TOMB" in store.dump()
        assert_reads_agree(store)
        last = context_rows(store)[-1]
        assert joined_text(scope(store.new_accessor(), last)) == "many"

    def test_after_a_rolled_back_load(self):
        """The last section of the last document runs into tombstones."""
        store = XmlStore()
        store.store_document(document(FLAT, "kept.xml"))
        load_rolled_back(store, WIDE)
        assert store.dump().rstrip().splitlines()[-1].startswith("TOMB")
        assert_reads_agree(store)
        store.store_document(document(FLAT, "next.xml"))
        assert_reads_agree(store)

    def test_last_section_of_the_last_document_ends_at_the_heap_tail(self):
        store = XmlStore()
        store.store_document(document(FLAT, "only.xml"))
        last = context_rows(store)[-1]
        run = store.new_accessor().run(last, siblings=True)[1:]
        assert run and store.xml_table.next_rowids(1)[0] > run[-1].rowid
        assert list(store.xml_table.rows_after(run[-1].rowid, now(store))) == []
        assert_reads_agree(store)

    def test_context_root_with_no_siblings(self):
        store = XmlStore()
        store.store_document(document(("h1", {}, ["alpha", ("b", {}, ["x"])])))
        store.store_document(document(("title", {}, [])))
        [first, second] = context_rows(store)
        assert first.PARENTROWID is None
        assert scope(store.new_accessor(), first) == []
        assert store.new_accessor().context_title(first) == "alpha x"
        assert store.new_accessor().run(second, siblings=True)[1:] == []
        assert_reads_agree(store)

    def test_store_reopened_through_recover(self):
        device = MemoryLogDevice()
        first = XmlStore.open(device)
        first.store_document(document(FLAT, "before.xml"))
        load_rolled_back(first, SMALL)
        first.replace_text("<doc><h1>Plan</h1><p>words</p></doc>", "before.xml")
        reopened = XmlStore.open(device)
        assert reopened.last_recovery is not None
        reopened.store_document(document(FLAT, "after.xml"))
        assert_reads_agree(reopened)
        assert_reads_agree(XmlStore.open(device))

    def test_snapshot_written_before_the_one_pass_loader(self):
        """Rows the old recursive loader laid down are in the same order."""
        restored = XmlStore.restore(OLD_LOADER_SNAPSHOT)
        assert assert_reads_agree(restored) == 12
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, OLD_LOADER_SNAPSHOT))
        opened = XmlStore.open(device)
        opened.replace_text("# Budget\n\nMore.\n", "memo.md")
        assert_reads_agree(opened)


class TestPinnedRun:
    def test_a_run_stops_at_rows_the_pin_cannot_see(self):
        """A document added after the pin is a run of invisible slots."""
        store = XmlStore()
        store.store_document(document(FLAT, "seen.xml"))
        last = context_rows(store)[-1]
        with store.snapshot() as snapshot:
            pinned = store.new_accessor(snapshot)
            before = pinned.run(last, siblings=True)[1:]
            store.store_document(document(FLAT, "unseen.xml"))
            assert store.new_accessor(snapshot).run(last, siblings=True)[1:] == before
            assert list(
                store.xml_table.rows_after(before[-1].rowid, snapshot.lsn)
            ) == []
        assert len(list(
            store.xml_table.rows_after(before[-1].rowid, now(store))
        )) > 0

    def test_a_deleted_document_is_still_whole_under_an_older_pin(self):
        store = XmlStore()
        result = store.store_document(document(FLAT, "doomed.xml"))
        store.store_document(document(SMALL, "kept.xml"))
        with store.snapshot() as snapshot:
            oracle = HopOracle(store.new_accessor(snapshot))
            root = store.new_accessor(snapshot).node(result.root_rowid)
            expected = oracle.subtree(root)
            store.delete_document(result.doc_id)
            pinned = store.new_accessor(snapshot)
            assert pinned.run(root)[1:] == expected
            assert serialize(
                compose_document(result.doc_id, pinned)
            ) == serialize(oracle.compose_document(result.doc_id))
        with pytest.raises(RowIdError):
            store.new_accessor().node(result.root_rowid)
        with pytest.raises(RowIdError):  # a run has a head, or it is no run
            list(store.xml_table.rows_after(result.root_rowid, now(store)))


class TestOneWindow:
    """``run`` reads a run in one ``Table.rows_after`` window with
    one head check, and counts the rows it pulled: the run, and the row
    that ended it when a row did."""

    @staticmethod
    def fetched(accessor, row):
        accessor.stats.reset()
        run = accessor.run(row, siblings=True)[1:]
        assert accessor.stats.batch_fetches == 1
        return run, accessor.stats.rows_fetched

    def test_rows_fetched_is_the_rows_pulled(self):
        store = XmlStore()
        store.store_document(document(FLAT, "first.xml"))
        store.store_document(document(SMALL, "second.xml"))
        accessor, endings = store.new_accessor(), []
        for row in context_rows(store):
            run, pulled = self.fetched(accessor, row)
            assert run == accessor.run(row)[1:] + scope(accessor, row)
            after = run[-1].rowid if run else row.rowid
            stopper = store.xml_table.rows_after(after, now(store), lambda rows: next(rows, None))
            assert pulled == len(run) + (stopper is not None)
            endings.append(None if stopper is None else stopper.DOC_ID != row.DOC_ID)
        # A sibling heading, the next document's root, the heap's tail.
        assert endings.count(False) and endings.count(True) == 1 and endings[-1] is None

    def test_a_run_into_tombstones_counts_no_empty_slot(self):
        store = XmlStore()
        store.store_document(document(FLAT, "kept.xml"))
        load_rolled_back(store, WIDE)
        last = context_rows(store)[-1]
        run, pulled = self.fetched(store.new_accessor(), last)
        assert run and pulled == len(run)

    @pytest.mark.parametrize("history", [False, True])
    def test_a_head_reclaimed_since_it_was_read_is_a_typed_error(self, history):
        """The accessor read the heading; its document was deleted and the
        history swept before the forward read.  With other history still
        held the window resolves slots by address; without, it slices."""
        store = XmlStore()
        doomed = store.store_document(document(FLAT, "doomed.xml"))
        store.store_document(document(SMALL, "other.xml"))
        table = store.xml_table
        table.vacuum_versions()
        accessor = store.new_accessor()  # unheld: nothing keeps its history
        head = context_rows(store)[0]
        assert accessor.node(head.rowid) is head
        store.delete_document(doomed.doc_id)
        with store.snapshot():
            if history:
                store.delete_document(store.lookup_by_name("other.xml").doc_id)
            table.vacuum_versions()
            assert bool(table._history) is history
            with pytest.raises(RowIdError, match="not visible"):
                accessor.run(head, siblings=True)[1:]

    def test_runs_read_under_a_real_writer_are_the_runs_at_their_lsn(self):
        """Two reader threads pin, and read every section's run, while a
        writer replaces documents under a one-microsecond switch interval.
        Once it stops, a fresh accessor at each pin reads the same runs."""
        import sys
        import threading

        def text(revision):
            body = "".join(f"<p>line {n} <b>r{revision}</b></p>" for n in range(revision % 7))
            return f"<doc><h1>Alpha</h1>{body}<h1>Beta r{revision}</h1><p>last</p></doc>"

        store = XmlStore()
        names = [f"d{n}.xml" for n in range(4)]
        for revision, name in enumerate(names):
            store.store_text(text(revision), name)
        done, errors, taken = threading.Event(), [], []

        def write():
            try:
                for revision in range(40):
                    store.replace_text(text(revision), names[revision % len(names)])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        def read():
            try:
                for _ in range(25):
                    if done.is_set():
                        return
                    snapshot = store.snapshot()
                    taken.append((snapshot, runs := {}))
                    accessor = store.new_accessor(snapshot)
                    for entry in store.documents(snapshot):
                        for row in accessor.document(entry.doc_id):
                            if accessor.is_context(row):
                                runs[row.rowid] = accessor.run(row, siblings=True)[1:]
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target) for target in (write, read, read)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not errors and taken
            for snapshot, runs in taken:
                accessor = store.new_accessor(snapshot)
                for rowid, run in runs.items():
                    assert accessor.run(accessor.node(rowid), siblings=True)[1:] == run
        finally:
            for snapshot, _ in taken:
                snapshot.release()
