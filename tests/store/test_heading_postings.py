"""The NODEDATA index's heading postings and section members, against
their definitions.

A ``Context=`` probe reads only the heading postings: the postings of
the TEXT rows with a CONTEXT ancestor, which are all ``ContextLift``
can keep.  ``Intersect`` reads the section members: per section, the
indexed TEXT rows the hop walk finds in it.  Both are derived like the
section facts — never logged, gone with their row, rebuilt where the
facts are — so after any run of stores, replaces and deletes, a
rebuild, a checkpoint reopen, WAL replay and a follower's bundle and
shipped batches, they must match the hop walk, and indexed ``Context=``
and combined answers the scan path's.  Heading words also occur in body
text and in phrases of several words.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FollowerReplica, LogShipper
from repro.ordbms.wal import MemoryLogDevice
from repro.query import QueryEngine
from repro.sgml.nodetypes import NodeType
from repro.store import XmlStore, check_store
from tests.store.test_section_run import HopOracle

WORDS = ("budget", "risk", "plan", "of", "the")
PROBES = ("budget", "risk plan", "budget budget", "plan of the budget", "of the", "risk")
NAMES = ("a.xml", "b.xml", "c.xml")

words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
heading = st.tuples(st.sampled_from(("h1", "h2", "title")), words, st.booleans())
section = st.tuples(heading, st.lists(words, max_size=3))


def render(sections):
    parts = ["<doc><p>budget risk plan</p>"]
    for (tag, title, bold), body in sections:
        title = f"{title} <b>budget</b>" if bold else title
        parts.append(f"<{tag}>{title}</{tag}>" + "".join(f"<p>{text}</p>" for text in body))
    return "".join(parts) + "</doc>"


documents = st.lists(section, min_size=1, max_size=3).map(render)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(NAMES), documents),
        st.tuples(st.just("delete"), st.sampled_from(NAMES), st.none()),
        st.tuples(st.just("rebuild"), st.none(), st.none()),
    ),
    min_size=1, max_size=6,
)


def assert_heading_postings(store):
    index = store.xml_table.text_index_on("NODEDATA")
    oracle = HopOracle(store.new_accessor())
    facts = {
        row.rowid: oracle.facts(row) for row in store.xml_table.scan()
        if row.NODETYPE == int(NodeType.TEXT)
    }
    heads = {rowid for rowid, fact in facts.items() if fact[1] is not None}
    postings = index.signature()
    assert index.signature(headings=True) == tuple(p for p in postings if p[1] in heads)
    members = defaultdict(set)
    for _, rowid, _ in postings:
        for section in facts[rowid][0]:
            members[section].add(rowid)
    assert index.members() == {section: frozenset(rows) for section, rows in members.items()}
    indexed, scanned = QueryEngine(store), QueryEngine(store, use_index=False)
    for phrase in PROBES:
        assert index.lookup_phrase(phrase, headings=True) == index.lookup_phrase(phrase) & heads
        for query in (f"Context={phrase}", *(f"Context={phrase}&Content={w}" for w in WORDS[:3])):
            assert [m.rowid for m in indexed.execute(query)] == [
                m.rowid for m in scanned.execute(query)
            ]
    assert check_store(store.database).ok


class TestHeadingPostingsAreTheHeadingRowsPostings:
    @given(steps)
    @settings(max_examples=30, deadline=None)
    def test_through_every_write_and_every_way_back(self, steps):
        device = MemoryLogDevice()
        store = XmlStore.open(device)
        shipper = LogShipper(device)
        follower = FollowerReplica.bootstrap("f", MemoryLogDevice(), shipper.bundle())
        _ = follower.store  # wired before the first batch: rows arrive derived
        for kind, name, text in steps:
            if kind == "put":
                store.replace_text(text, name)
            elif kind == "delete" and (entry := store.lookup_by_name(name)):
                store.delete_document(entry.doc_id)
            elif kind == "rebuild":
                store.xml_table.rebuild_indexes()
            assert_heading_postings(store)
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert_heading_postings(follower.store)
        replayed = MemoryLogDevice()
        replayed._chunks, replayed._checkpoint = list(device._chunks), device._checkpoint
        assert_heading_postings(XmlStore.open(replayed))  # WAL replay
        XmlStore.open(replayed).checkpoint()
        assert_heading_postings(XmlStore.open(replayed))  # a checkpoint reopen
        bundled = FollowerReplica.bootstrap("g", MemoryLogDevice(), shipper.bundle())
        bundled.install_bundle(shipper.bundle())
        assert_heading_postings(bundled.store)  # a follower's install_bundle
        expected = store.xml_table.text_index_on("NODEDATA")
        for back in (follower.store, XmlStore.open(replayed), bundled.store):
            index = back.xml_table.text_index_on("NODEDATA")
            assert index.signature(headings=True) == expected.signature(headings=True)
            assert index.members() == expected.members()


class TestSlotZeroIsAHeading:
    def test_a_context_at_slot_zero_governs_its_text(self):
        """The XML table's first row is slot 0: as a CONTEXT ancestor it
        still makes its text heading text, and ``Context=`` finds it."""
        store = XmlStore()
        store.store_text("<title>Budget review</title>", "t.xml")
        root, text = store.xml_table.scan()
        assert root.rowid == 0 and root.NODETYPE == int(NodeType.CONTEXT)
        index = store.xml_table.text_index_on("NODEDATA")
        assert index.lookup_phrase("budget", headings=True) == {text.rowid}
        assert [m.rowid for m in QueryEngine(store).execute("Context=Budget")] == [0]
        assert_heading_postings(store)
