"""What the NODEDATA index says of every TEXT row, and who keeps it true.

``(sections, CONTEXT ancestor, under INTENSE)`` per row, derived by one
streaming pass as the row is written (``SectionPass``) and never logged:
fsck owns it (``section-facts``, repairable), and every way a store
comes back — crash recovery, a checkpoint or a dump (neither carries a
fact, so every one ever written is "from before"), a follower's shipped
replay, a rolled-back delete — passes the same check and answers the
five ``rows_read_by_request`` requests byte for byte as the writer does.
"""

import pytest

from repro.cluster import FollowerReplica, LogShipper
from repro.errors import RowIdError
from repro.ordbms.wal import CHANGE, MemoryLogDevice, parse_log
from repro.query import QueryEngine
from repro.sgml.serializer import serialize
from repro.store import XmlStore, check_store, repair_store
from repro.store.accessor import NodeAccessor, RunRoots, SectionPass
from repro.store.schema import XML_TABLE
from repro.workloads import CorpusSpec, generate_corpus
from tests.store.chain import document_of, document_rows
from tests.store.test_section_run import HopOracle

NESTED = (
    "<doc><p>front matter</p><h1>Alpha <b>bold</b><h2>inner</h2>tail</h1>"
    "<p>one <b>two</b></p><div><h2>Nested</h2><p>below <em>it</em></p></div>"
    "<p>after</p><h1>Beta</h1><p>last</p></doc>"
)
REQUESTS = (
    "Content=system&limit=5", "Content=shuttle+program&limit=20",
    "Context=Budget&limit=5", "Context=Budget&Content=system&limit=10",
    "Context=Budget",
)


def facts_of(store):
    return store.xml_table.text_index_on("NODEDATA").facts


def bodies(store):
    engine = QueryEngine(store)
    return [serialize(engine.execute(q).to_xml(), indent=2) for q in REQUESTS]


class TestThePassEqualsTheWalk:
    def test_on_nested_contexts_row_by_row(self, store):
        store.store_text(NESTED, "nested.xml")
        oracle, facts = HopOracle(store.new_accessor()), facts_of(store)
        texts = [row for row in store.xml_table.scan() if row.NODEDATA]
        assert len(facts) == len(texts) == 13
        for row in texts:
            assert facts[row.rowid] == oracle.facts(row), row.NODEDATA
        by_text = {row.NODEDATA: facts[row.rowid] for row in texts}
        name = {row.rowid: row.NODENAME for row in store.xml_table.scan()}
        # title ∪ scope, governing first; a heading in a heading; INTENSE.
        assert by_text["front matter"] == ((), None, False)
        assert [name[s] for s in by_text["inner"][0]] == ["h2", "h1"]
        assert [name[s] for s in by_text["tail"][0]] == ["h1", "h2"]
        assert [name[s] for s in by_text["it"][0]] == ["h2", "h1"]
        assert by_text["it"][1:] == (None, True)
        assert by_text["bold"][2] and by_text["bold"][1] == by_text["bold"][0][0]
        assert by_text["after"][0] == by_text["one "][0] != by_text["last"][0]

    def test_rows_of_one_section_share_one_fact(self, loaded_store):
        facts = facts_of(loaded_store)
        assert len({id(fact) for fact in facts.values()}) < len(facts)

    def test_a_database_no_store_has_wired_keeps_none(self, loaded_store):
        from repro.ordbms.snapshot import load_database

        database = load_database(loaded_store.dump())
        assert database.table(XML_TABLE).text_index_on("NODEDATA").facts is None
        assert check_store(database).ok  # nothing derived, nothing to drift
        row = next(r for r in database.table(XML_TABLE).scan() if r.NODEDATA)
        roots = RunRoots(database.table(XML_TABLE))  # what a store feeds every DOC row
        for doc in database.table("DOC").scan():
            roots(doc)
        accessor = NodeAccessor(database, roots)  # reads run a pass, as the scan path does
        assert accessor.text_facts([row.rowid]) == [HopOracle(accessor).facts(row)]

    def test_a_pass_takes_a_document_newest_row_first(self, store):
        """Rows fed in reverse wait for their parents and come out as the
        forward pass would have them."""
        store.store_text(NESTED, "nested.xml")
        rows = list(store.xml_table.scan())
        derived = {}
        backwards = SectionPass(derived)
        for row in reversed(rows):
            backwards(row)
        assert derived == facts_of(store)

    def test_a_delete_undone_while_the_pass_holds_its_document_open(self, store):
        """The pass's open state describes the document it took last.  An
        in-place change of that document's rows, newest row first, whole
        or in part, feeds them again — and must not inherit that state."""
        store.store_text(NESTED, "nested.xml")
        xml = store.xml_table
        rows = document_rows(store.database, store.lookup_by_name("nested.xml").doc_id)
        for edited in (rows, rows[:4]):
            store.database.change([(XML_TABLE, [
                (xml.fetch(row.rowid), xml.schema.row_of_image(row[:-1], row.rowid))
                for row in reversed(edited)
            ])])
            assert check_store(store.database).ok


class TestFsckOwnsTheFacts:
    @pytest.mark.parametrize("field", [0, 1, 2], ids=["section", "ancestor", "emphasis"])
    def test_each_fact_tampered_is_found_and_rebuilt(self, store, field):
        store.store_text(NESTED, "nested.xml")
        facts = facts_of(store)
        victim = next(row for row in store.xml_table.scan() if row.NODEDATA == "bold")
        true = facts[victim.rowid]
        wrong = [true[0][:0], None, not true[2]][field]
        facts[victim.rowid] = true[:field] + (wrong,) + true[field + 1:]
        report = check_store(store.database)
        assert report.codes() == {"section-facts"} and report.count("section-facts") == 1
        assert report.violations[0].rowid == str(victim.rowid)
        # The reference fsck holds the index to is the walk's answer.
        walked = HopOracle(store.new_accessor()).facts(victim)
        assert f"a fresh pass {walked} " in report.violations[0].detail
        repaired = repair_store(store.database)
        assert repaired.ok and repaired.repaired > 0
        assert facts_of(store)[victim.rowid] == true
        assert check_store(store.database).ok

    def test_a_fact_missing_or_left_behind_is_found(self, store):
        store.store_text(NESTED, "nested.xml")
        facts = facts_of(store)
        victim = next(iter(facts))
        kept = facts.pop(victim)
        assert check_store(store.database).codes() == {"section-facts"}
        facts[victim] = kept
        doc_id = store.lookup_by_name("nested.xml").doc_id
        store.delete_document(doc_id)
        assert facts == {} and check_store(store.database).ok
        facts[victim] = kept
        assert check_store(store.database).codes() == {"section-facts"}
        assert repair_store(store.database).ok and facts_of(store) == {}

    def test_an_in_place_update_leaves_its_row_without_a_fact(self, store):
        """Pins a known fault, not a contract: editing an XML row in place
        (``Database.update``) re-posts its text with no fact, so the index
        path loses the row's section until a repair; the scan path runs
        the pass and still finds it (DESIGN.md §16)."""
        store.store_text("# Budget\n\nalpha beta\n", "a.md")
        store.store_text("# Budget\n\ndelta epsilon\n", "b.md")
        body = next(row for row in store.xml_table.scan() if row.NODEDATA == "alpha beta")
        assert facts_of(store)[body.rowid][0]
        store.database.update(XML_TABLE, body.rowid, {"NODEDATA": "alpha gamma"})
        assert body.rowid not in facts_of(store)
        assert check_store(store.database).codes() == {"section-facts", "text-index-drift"}
        query = "Context=Budget&Content=gamma"

        def answers():
            return [len(QueryEngine(store, use_index=flag).execute(query)) for flag in (True, False)]

        assert answers() == [0, 1]
        assert repair_store(store.database).ok
        assert answers() == [1, 1] and check_store(store.database).ok


def nodename_contexts(store, name, snapshot=None):
    """What a ``Nodename=`` heading must be, element by element: the
    element's own title if it is a CONTEXT, else its governing CONTEXT's
    by the hop walk, else the file name."""
    accessor = store.new_accessor(snapshot)
    oracle = HopOracle(accessor)
    expected = []
    for row in accessor.lookup_rows("NODENAME", name):
        heading = row if accessor.is_context(row) else oracle.governing(row)
        expected.append(
            accessor.context_title(heading) if heading is not None
            else store.entry_at(document_of(store.database, row, accessor.lsn), accessor.lsn).file_name
        )
    return expected


class TestEveryFallbackIsTheDocumentsPass:
    """A row whose fact the index does not carry is answered by a fresh
    pass over its document as of the reader's LSN — one helper, four
    callers — and each equals the hop walk."""

    def test_a_pin_held_across_a_delete_reads_facts_the_index_dropped(self, store):
        result = store.store_text(NESTED, "nested.xml")
        store.store_text("<doc><h1>Other</h1><p>beta</p></doc>", "other.xml")
        with store.snapshot() as pin:
            texts = [
                row for row in document_rows(store.database, result.doc_id)
                if NodeAccessor.is_text(row)
            ]
            walked = [HopOracle(store.new_accessor(pin)).facts(row) for row in texts]
            query = "Content=any:two+below+last"
            before = [m.context for m in QueryEngine(store).execute(query, pin)]
            store.delete_document(result.doc_id)
            assert not facts_of(store).keys() & {row.rowid for row in texts}
            pinned = store.new_accessor(pin)
            assert pinned.text_facts([row.rowid for row in texts]) == walked
            after = QueryEngine(store).execute(query, pin)
            assert [m.context for m in after] == before
            assert len(before) == 3

    def test_the_scan_path_on_nested_contexts(self, store):
        store.store_text(NESTED, "nested.xml")
        accessor = store.new_accessor()
        texts = [row for row in store.xml_table.scan() if accessor.is_text(row)]
        oracle = HopOracle(store.new_accessor())
        assert accessor.text_facts([r.rowid for r in texts], indexed=False) == [
            oracle.facts(row) for row in texts
        ]
        for query in ("Content=any:bold+below+after", "Context=inner|Nested", "Content=tail"):
            scanned = QueryEngine(store, use_index=False).execute(query)
            indexed = QueryEngine(store).execute(query)
            assert [(m.context, m.content, m.score) for m in scanned] == [
                (m.context, m.content, m.score) for m in indexed
            ]

    def test_fscks_fresh_pass_is_the_walk(self, store):
        store.store_text(NESTED, "nested.xml")
        store.store_text("<doc><p>x</p><h2>y <em>z</em></h2><p>w</p></doc>", "flat.xml")
        fresh = SectionPass({})
        for row in store.xml_table.scan():
            fresh(row)
        oracle = HopOracle(store.new_accessor())
        assert fresh.facts == {
            row.rowid: oracle.facts(row)
            for row in store.xml_table.scan() if NodeAccessor.is_text(row)
        }

    @pytest.mark.parametrize("name", ["p", "b", "em", "h2", "div"])
    def test_nodename_headings_of_nested_contexts(self, store, name):
        result = store.store_text(NESTED, "nested.xml")
        expected = nodename_contexts(store, name)
        assert expected
        query = f"Nodename={name}"
        assert [m.context for m in QueryEngine(store).execute(query)] == expected
        with store.snapshot() as pin:
            store.delete_document(result.doc_id)
            pinned = QueryEngine(store).execute(query, pin)
            assert [m.context for m in pinned] == expected
            assert nodename_contexts(store, name, pin) == expected


class TestEveryWayAStoreComesBack:
    @pytest.fixture(scope="class")
    def writer(self):
        device = MemoryLogDevice()
        store = XmlStore.open(device)
        shipper = LogShipper(device)
        follower = FollowerReplica.bootstrap("f1", MemoryLogDevice(), shipper.bundle())
        _ = follower.store  # wired before the first shipment: rows arrive derived
        files = generate_corpus(CorpusSpec(documents=30, seed=7))
        for file in files[:20]:
            store.store_text(file.text, file.name)
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        store.store_text(NESTED, "nested.xml")
        for file in files[20:]:
            store.store_text(file.text, file.name)
        store.replace_text(files[3].text + "\n\nshuttle program system\n", files[3].name)
        store.delete_document(store.lookup_by_name(files[5].name).doc_id)
        rows = document_rows(store.database, store.lookup_by_name("nested.xml").doc_id)
        with pytest.raises(RowIdError):  # a slot named twice: the delete moves nothing
            store.database.change([(XML_TABLE, [(row, None) for row in rows + rows[:1]])])
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        return device, store, follower, shipper

    def test_the_writer_itself_after_a_rolled_back_delete(self, writer):
        store = writer[1]
        assert check_store(store.database).ok
        assert any("<result" in body for body in bodies(store))

    def test_recovered_from_a_crash_copy(self, writer):
        device, store = writer[:2]
        copy = MemoryLogDevice()
        copy._chunks, copy._checkpoint = list(device._chunks), device._checkpoint
        # ... that died halfway through loading one more document.
        before = len(device._chunks)
        store.store_text(NESTED, "torn.xml")
        (record,) = device._chunks[before:]  # the DOC row and the node rows
        copy._chunks.append(record[:len(record) // 2])
        store.delete_document(store.lookup_by_name("torn.xml").doc_id)
        recovered = XmlStore.open(copy)
        assert recovered.last_recovery.torn_tail
        assert check_store(recovered.database).ok
        assert facts_of(recovered) == facts_of(store)
        assert bodies(recovered) == bodies(store)

    def test_loaded_from_a_checkpoint_and_from_a_dump(self, writer):
        device, store = writer[:2]
        copy = MemoryLogDevice()
        copy._chunks, copy._checkpoint = list(device._chunks), device._checkpoint
        XmlStore.open(copy).checkpoint()
        records, torn = parse_log(copy.read_log())
        assert torn is None and records  # the log parses, and is not empty
        assert CHANGE not in {record.kind for record in records}
        assert "nested.xml" in copy.load_checkpoint()
        for back in (XmlStore.open(copy), XmlStore.restore(store.dump())):
            assert check_store(back.database).ok
            assert facts_of(back) == facts_of(store)
            assert bodies(back) == bodies(store)

    def test_a_follower_after_shipped_replay(self, writer):
        _, store, follower, shipper = writer
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert follower.dump() == store.dump()
        assert check_store(follower.database).ok
        assert facts_of(follower.store) == facts_of(store)
        assert bodies(follower.store) == bodies(store)
