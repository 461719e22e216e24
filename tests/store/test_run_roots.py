"""A row's document is its run: ``NodeAccessor.document_of`` against the
parent chain.

No node row names its document.  The accessor answers from the store's
:class:`~repro.store.accessor.RunRoots` — the last root at or before a
row's slot, and the DOC row that named it.  The oracle here knows none
of that: it follows ``PARENTROWID`` up to the row without a parent and
takes the DOC row, visible at the same LSN, whose ``ROOTROWID`` names
it.  The two must agree on every row visible at the accessor's LSN —
live, under a pin held across a delete and a replace, after an index
rebuild with that pin still held, and on a follower under a pin held
across a shipped delete.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FollowerReplica, LogShipper
from repro.ordbms import MemoryLogDevice, RowId
from repro.store import XmlStore
from tests.store.chain import chain_root
from tests.store.test_decompose_onepass import document, tree_strategy

REPLACEMENT = "<doc><h1>Fresh</h1><p>new words</p></doc>"
SPEC = ("doc", {}, [("h1", {}, ["orbit"]), ("p", {}, ["alpha", ("b", {}, ["x"])])])


def by_the_chain(store, lsn):
    """ROWID -> (root, doc id) of every XML row visible at ``lsn``."""
    rows = list(store.xml_table.snapshot_scan(lsn))
    by_rowid = {row.rowid: row for row in rows}
    named = {doc.ROOTROWID: doc.DOC_ID for doc in store.doc_table.snapshot_scan(lsn)}
    found = {}
    for row in rows:
        root = chain_root(row, by_rowid)
        found[row.rowid] = (root, named[root])
    return found


def assert_agrees(store, snapshot=None):
    accessor = store.new_accessor(snapshot)
    expected = by_the_chain(store, accessor.lsn)
    rows = accessor.nodes(sorted(expected))
    assert {row.rowid: accessor.document_of(row) for row in rows} == expected
    return len(expected)


def stored(specs):
    device = MemoryLogDevice()
    store = XmlStore.open(device)
    for index, spec in enumerate(specs):
        store.store_document(document(spec, f"d{index}.xml"))
    return store, device


documents = st.lists(tree_strategy, min_size=2, max_size=4)


class TestEveryRowFindsItsDocument:
    @given(documents, st.data())
    @settings(max_examples=40, deadline=None)
    def test_live_pinned_and_rebuilt(self, specs, data):
        store, _ = stored(specs)
        assert assert_agrees(store)
        doomed, replaced = data.draw(
            st.lists(st.sampled_from(range(len(specs))), min_size=2, max_size=2, unique=True)
        )
        with store.snapshot() as pin:
            before = assert_agrees(store, pin)
            store.delete_document(store.lookup_by_name(f"d{doomed}.xml").doc_id)
            store.replace_text(REPLACEMENT, f"d{replaced}.xml")
            assert assert_agrees(store, pin) == before  # the deleted rows too
            assert_agrees(store)
            for table in (store.doc_table, store.xml_table):
                table.rebuild_indexes()
            assert assert_agrees(store, pin) == before
            assert_agrees(store)

    @given(documents, st.data())
    @settings(max_examples=20, deadline=None)
    def test_on_a_follower_across_a_shipped_delete(self, specs, data):
        store, device = stored([])
        shipper = LogShipper(device)
        follower = FollowerReplica.bootstrap("f1", MemoryLogDevice(), shipper.bundle())
        _ = follower.store  # wired before the first shipment: every DOC row arrives fed
        for index, spec in enumerate(specs):
            store.store_document(document(spec, f"d{index}.xml"))
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert assert_agrees(follower.store) == store.node_count
        doomed = data.draw(st.sampled_from(range(len(specs))))
        with follower.database.open_snapshot() as pin:
            before = assert_agrees(follower.store, pin)
            store.delete_document(store.lookup_by_name(f"d{doomed}.xml").doc_id)
            store.replace_text(REPLACEMENT, f"d{(doomed + 1) % len(specs)}.xml")
            follower.apply_batch(shipper.batch_after(follower.acked_lsn))
            assert assert_agrees(follower.store, pin) == before
            assert assert_agrees(follower.store) == store.node_count


class TestADamagedRootClaimsNothing:
    """A ``ROOTROWID`` rewritten in place to a slot that starts no run of
    its own adds nothing to the map: no row changes document."""

    def test_a_root_named_twice_or_a_row_with_a_parent(self, loaded_store):
        store = loaded_store
        before = by_the_chain(store, store.new_accessor().lsn)
        first, second = (store.doc_table.lookup("DOC_ID", doc_id)[0] for doc_id in (1, 2))
        for named in (second.ROOTROWID, RowId(second.ROOTROWID + 1)):
            store.database.update("DOC", first.rowid, {"ROOTROWID": named})
        accessor = store.new_accessor()
        rows = accessor.nodes(sorted(before))
        assert {row.rowid: accessor.document_of(row) for row in rows} == before


class TestReadersBesideTheWriter:
    def test_four_readers_resolve_rows_while_documents_land(self):
        """The writer adds to the map while readers bisect it: four reader
        threads, a tiny switch interval, each resolving every row of the
        documents stored so far; every answer is the one the store gave."""
        store, _ = stored([])
        landed: list[tuple[int, int, int]] = []  # (root, doc id, rows), as the store answered
        wrong: list[tuple] = []
        done = threading.Event()

        def reader() -> None:
            while True:
                finished = done.is_set()  # one more round sees every document
                accessor = store.new_accessor()
                for root, doc_id, count in list(landed):
                    for row in accessor.nodes([RowId(root + at) for at in range(count)]):
                        if accessor.document_of(row) != (root, doc_id):
                            wrong.append((row.rowid, accessor.document_of(row), doc_id))
                if finished:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for index in range(40):
                result = store.store_document(document(SPEC, f"d{index}.xml"))
                landed.append((result.root_rowid, result.doc_id, result.node_count))
            done.set()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
