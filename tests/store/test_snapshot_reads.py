"""Store-level MVCC: every read resolves at one commit LSN — pinned
reads stay byte-identical under ingest, reads given no pin see whole
transactions only."""

import ast
import re
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import Netmark
from repro.errors import ReproError, RowIdError
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.server.workers import IngestThread
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(documents=24, seed=77))


@pytest.fixture
def store(corpus):
    loaded = XmlStore()
    for file in corpus[:12]:
        loaded.store_text(file.text, file.name)
    return loaded


class TestPinnedReads:
    def test_pinned_document_is_byte_identical_under_bulk_ingest(
        self, store, corpus
    ):
        doc_id = store.documents()[0].doc_id
        quiesced = serialize(store.document(doc_id), indent=2)
        with store.snapshot() as snap:
            before = serialize(
                store.document(doc_id, snapshot=snap), indent=2
            )
            # Bulk-ingest the rest of the corpus while the pin is open.
            for file in corpus[12:]:
                store.store_text(file.text, file.name)
            after = serialize(
                store.document(doc_id, snapshot=snap), indent=2
            )
        assert before == quiesced
        assert after == quiesced

    def test_pinned_catalog_does_not_grow(self, store, corpus):
        with store.snapshot() as snap:
            pinned_before = [
                entry.doc_id for entry in store.documents(snapshot=snap)
            ]
            for file in corpus[12:16]:
                store.store_text(file.text, file.name)
            pinned_after = [
                entry.doc_id for entry in store.documents(snapshot=snap)
            ]
        assert pinned_before == pinned_after
        assert len(store.documents()) == len(pinned_before) + 4

    def test_post_commit_snapshot_sees_new_documents(self, store, corpus):
        with store.snapshot() as old_snap:
            result = store.store_text(corpus[20].text, corpus[20].name)
            assert all(
                entry.doc_id != result.doc_id
                for entry in store.documents(snapshot=old_snap)
            )
        with store.snapshot() as new_snap:
            assert any(
                entry.doc_id == result.doc_id
                for entry in store.documents(snapshot=new_snap)
            )
            # The new document composes fully through the new pin.
            document = store.document(result.doc_id, snapshot=new_snap)
            assert document.root is not None

    def test_pinned_read_survives_replacement(self, store, corpus):
        entry = store.documents()[3]
        quiesced = serialize(store.document(entry.doc_id), indent=2)
        with store.snapshot() as snap:
            # corpus[15] shares entry 3's format (the formats cycle with
            # period 6), so the converter accepts it under the old name.
            store.replace_text(
                corpus[15].text, entry.file_name
            )  # supersedes: old nodes deleted, new revision stored
            pinned = serialize(
                store.document(entry.doc_id, snapshot=snap), indent=2
            )
        assert pinned == quiesced
        replacement = store.lookup_by_name(entry.file_name)
        assert replacement.metadata.get("revision") == "2"

    def test_vacuum_never_reclaims_a_pinned_generation(self, store, corpus):
        entry = store.documents()[0]
        quiesced = serialize(store.document(entry.doc_id), indent=2)
        with store.snapshot() as snap:
            # corpus[18] shares entry 0's format (period-6 format cycle).
            store.replace_text(corpus[18].text, entry.file_name)
            store.database.vacuum_versions()
            pinned = serialize(
                store.document(entry.doc_id, snapshot=snap), indent=2
            )
            assert pinned == quiesced
        # Pin released: the superseded revision's history may now go.
        reclaimed = store.database.vacuum_versions()
        assert reclaimed > 0

    def test_commits_sweeping_under_a_pin_leave_its_view_alone(
        self, store, corpus
    ):
        entry = store.documents()[0]
        engine = QueryEngine(store)
        older = store.snapshot()
        store.store_text(corpus[12].text, corpus[12].name)
        quiesced_doc = serialize(store.document(entry.doc_id), indent=2)
        quiesced_hits = serialize(engine.execute("Context=Budget").to_xml(), indent=2)
        with store.snapshot() as snap:
            # Every commit below tries a history sweep; releasing the
            # older pin moves the horizon up to this one, so the next
            # commit really reclaims — everything at or below the pin,
            # nothing above it.
            store.replace_text(corpus[18].text, entry.file_name)
            older.release()
            for file in corpus[13:16]:
                store.store_text(file.text, file.name)
            history = store.xml_table._history
            assert history and all(
                lsn > snap.lsn for entries in history.values() for lsn, _ in entries
            )
            assert serialize(
                store.document(entry.doc_id, snapshot=snap), indent=2
            ) == quiesced_doc
            assert serialize(
                engine.execute("Context=Budget", snapshot=snap).to_xml(), indent=2
            ) == quiesced_hits
        # Last pin gone: the next commit leaves no history behind at all.
        store.store_text(corpus[16].text, corpus[16].name)
        assert len(store.xml_table._history) == 0
        assert len(store.doc_table._history) == 0


class TestSnapshotQueries:
    @pytest.mark.parametrize(
        "query",
        [
            "Context=Budget",
            "Content=program",
            "Context=Budget&Content=program",
            "Nodename=title",
        ],
    )
    def test_snapshot_query_matches_quiesced_run(self, store, query):
        engine = QueryEngine(store)
        quiesced = serialize(engine.execute(query).to_xml(), indent=2)
        with store.snapshot() as snap:
            pinned = serialize(
                engine.execute(query, snapshot=snap).to_xml(), indent=2
            )
        assert pinned == quiesced

    def test_snapshot_query_ignores_concurrent_ingest(self, store, corpus):
        engine = QueryEngine(store)
        query = "Context=Budget"
        quiesced = serialize(engine.execute(query).to_xml(), indent=2)
        with store.snapshot() as snap:
            for file in corpus[12:20]:
                store.store_text(file.text, file.name)
            pinned = serialize(
                engine.execute(query, snapshot=snap).to_xml(), indent=2
            )
        assert pinned == quiesced
        # Without the pin, the same query reflects the new corpus.
        live = serialize(engine.execute(query).to_xml(), indent=2)
        assert live != quiesced

    def test_scan_fallback_matches_quiesced_run(self, store, corpus):
        engine = QueryEngine(store, use_index=False)
        query = "Content=program"
        quiesced = serialize(engine.execute(query).to_xml(), indent=2)
        with store.snapshot() as snap:
            for file in corpus[12:16]:
                store.store_text(file.text, file.name)
            pinned = serialize(
                engine.execute(query, snapshot=snap).to_xml(), indent=2
            )
        assert pinned == quiesced


class TestPinnedReadersUnderARealWriter:
    """The read path's batch window, forward read and rowid-only probe,
    pinned, while another thread rewrites the very rows they answer from."""

    QUERY = "Context=Technology Gap&Content=program&Cache=0"

    def pinned_view(self, store, engine, snap):
        """The body, every matched section's run and every matched
        document's rowids, all as of ``snap``."""
        results = engine.execute(self.QUERY, snapshot=snap)
        accessor = store.new_accessor(snap)
        runs = [
            accessor.subtree(accessor.node(match.rowid), siblings=True)
            for match in results
        ]
        rowids = [
            store.xml_table.snapshot_rowids("DOC_ID", match.doc_id, snap.lsn)
            for match in results
        ]
        return serialize(results.to_xml(), indent=2), runs, rowids

    def test_answers_do_not_move_while_the_writer_does(self, store, corpus):
        engine = QueryEngine(store, cache=QueryCache())
        matched = engine.execute(self.QUERY).documents()
        assert len(matched) >= 3
        spare = {file.name.rsplit(".", 1)[1]: file for file in corpus[12:]}
        failures: list[BaseException] = []

        def write():
            try:
                for round_no in range(3):
                    for name in matched[1:]:  # the matched sections themselves
                        store.replace_text(
                            spare[name.rsplit(".", 1)[1]].text, name
                        )
                    for file in corpus[12:]:  # more rows with the term
                        store.replace_text(file.text, file.name)
                doomed = store.lookup_by_name(matched[0])
                store.delete_document(doomed.doc_id)
            except BaseException as error:  # pragma: no cover - failure path
                failures.append(error)

        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with store.snapshot() as snap:
                before = self.pinned_view(store, engine, snap)
                assert all(before[1]) and all(before[2])
                writer.start()
                reads = 0
                while writer.is_alive() or reads < 3:
                    assert self.pinned_view(store, engine, snap) == before
                    reads += 1
                writer.join(timeout=60)
                assert not writer.is_alive()
                assert self.pinned_view(store, engine, snap) == before
        finally:
            sys.setswitchinterval(interval)
            writer.join(timeout=60)
        assert not failures
        assert store.xml_table.read_retries >= 0  # may rise; answers may not
        assert matched[0] not in engine.execute(self.QUERY).documents()
        with store.snapshot() as later:
            assert self.pinned_view(store, engine, later) != before


class TestReadsWithoutAPin:
    """A read given no snapshot resolves at the LSN one opened now would
    pin: the open transaction's work is not there yet."""

    def test_a_read_in_the_middle_of_a_load_sees_none_of_it(
        self, store, monkeypatch
    ):
        engine = QueryEngine(store)
        query = "Content=zebra"
        before = (
            serialize(engine.execute(query).to_xml()), store.documents(),
        )
        assert len(engine.execute(query)) == 0
        seen = []
        insert = store.database.insert

        def insert_then_read(table, values):
            rowid = insert(table, values)
            if "zebra one" in (values.get("NODEDATA") or "") and not seen:
                assert store.database.in_transaction
                # Half the document is in: its DOC row, its first
                # section, and the index postings of both.
                assert len(store.doc_table) == len(before[1]) + 1
                seen.append((
                    serialize(engine.execute(query).to_xml()),
                    store.documents(),
                ))
            return rowid

        monkeypatch.setattr(store.database, "insert", insert_then_read)
        loaded = store.store_text(
            "# Alpha\n\nzebra one\n\n# Beta\n\nzebra two\n", "zebra.md"
        )
        assert seen == [before]
        assert len(engine.execute(query)) == 2
        assert store.documents()[-1].doc_id == loaded.doc_id

    def test_a_lazy_field_of_a_since_deleted_document_is_a_typed_error(
        self, store
    ):
        first, *_ = QueryEngine(store).execute("Context=Budget")
        store.delete_document(first.doc_id)
        with pytest.raises(RowIdError):  # not a section read as empty
            first.content


class TestWhoMayReadWithoutAnLsn:
    """``Table.fetch`` / ``lookup`` / ``scan`` read the heap as it is this
    instant — no LSN, no seqlock, half a transaction included.  Outside
    ``repro.ordbms`` they are for the writer's own pre-reads and for
    whole-store maintenance; a reader goes through a
    :class:`~repro.store.accessor.NodeAccessor` or the ``snapshot_*``
    doors.  Every call of one of the three names is listed here, so a new
    pin-less reader has to say why it may, then join the list."""

    CALLERS = {
        "store/xmlstore.py": 5,  # delete_document x2, lookup_by_name, adopt x2
        "store/fsck.py": 5,  # the checker reads the heap it is checking
        "server/daemon.py": 1,  # settling a journalled ingest at startup
        "baselines/shredded.py": 8,  # the baseline's own tables, not XML/DOC
        # Same method names, not the table's:
        "query/engine.py": 1,  # QueryCache.lookup
        "query/plan.py": 1,  # TextIndex.lookup, inside probe_text's lookup
    }

    def test_pinless_callers_are_the_listed_ones(self):
        root = Path(repro.__file__).parent
        found = {}
        for path in sorted(root.rglob("*.py")):
            name = path.relative_to(root).as_posix()
            calls = [
                node
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"fetch", "lookup", "scan"}
            ]
            if calls and not name.startswith("ordbms/"):
                found[name] = len(calls)
        assert found == self.CALLERS


class TestBareReadersUnderARealWriter:
    """Reads given no pin, while the ingest thread replaces every
    document they answer from.  Nothing holds the history such a read
    resolves with, so a commit that lands in the middle of it shows to
    the table calls made afterwards: an answer may list a document some
    of whose sections it probed too early to see.  What it never holds
    is a torn unit — every match is a whole section of one committed
    revision, every document body is one committed revision's — and a
    document that went away between the plan and a lazy field is a typed
    error, not a section read as empty.  The facade's ``Netmark.search``
    holds one snapshot for the call, as HTTP does: its whole *answer* is
    one committed state, every document at one revision."""

    DOCS = 24
    HEADINGS = (
        "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta",
        "Eta", "Theta", "Iota", "Kappa", "Lambda", "Mu",
    )

    @classmethod
    def text(cls, doc, revision):
        return "".join(
            f"# {heading} d{doc}\n\nmarker d{doc}r{revision} {heading.lower()}\n\n"
            for heading in cls.HEADINGS
        )

    @classmethod
    def sections(cls, doc, revision):
        return {
            (f"{heading} d{doc}", f"marker d{doc}r{revision} {heading.lower()}")
            for heading in cls.HEADINGS
        }

    def test_a_committed_state_or_a_typed_error(self):
        node = Netmark()
        whole = set()
        for revision in (1, 2):
            for doc in range(self.DOCS):
                alone = XmlStore()
                result = alone.store_text(self.text(doc, revision), f"d{doc}.md")
                whole.add(serialize(alone.document(result.doc_id)))
        for doc in range(self.DOCS):
            node.drop(f"d{doc}.md", self.text(doc, 1))
        node.poll()
        for doc in range(self.DOCS):
            node.drop(f"d{doc}.md", self.text(doc, 2))
        engine = QueryEngine(node.store)

        def read_sections(query):
            return {
                (match.context, match.content)
                for match in engine.execute(query)
            }

        order = sorted(range(self.DOCS), key=lambda doc: f"d{doc}.md")

        def one_committed_state(answer):
            """Replaced documents at revision 2, at most one between the
            two commits of its replace, the rest at revision 1 — in the
            daemon's path order, every document whole."""
            found = {}
            for match in answer:
                found.setdefault(match.file_name, set()).add(
                    (match.context, match.content)
                )
            state = ""
            for doc in order:
                sections = found.get(f"d{doc}.md")
                [revision] = ["x"] if sections is None else [
                    str(revision) for revision in (1, 2)
                    if sections == {
                        pair for pair in self.sections(doc, revision)
                        if pair[0].startswith(("Alpha", "Beta"))
                    }
                ]
                state += revision
            assert re.fullmatch("2*x?1*", state), state

        def read_document(doc):
            for entry in node.store.documents():
                if entry.file_name == f"d{doc}.md":
                    return serialize(node.store.document(entry.doc_id))
            return None  # between the two commits of its replace

        def attempt(read, argument):
            try:
                return read(argument)
            except ReproError:
                return None

        for doc in range(self.DOCS):
            assert read_sections(f"Content=d{doc}r1") == self.sections(doc, 1)
        ingest = IngestThread(node.daemon)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ingest.start()
            # The daemon replaces the files in path order; keep reading
            # the one it replaces next until its new revision shows, so
            # every delete and every load is straddled by reads of the
            # rows it touches.  The reads are small, many to a replace;
            # ``Context=`` leaves the content lazy, so the plan and the
            # field read apart.
            for doc in order:
                found = polled = None
                while not (polled or found and found <= self.sections(doc, 2)):
                    polled = ingest.heartbeats > 1  # its one poll is over
                    found = attempt(read_sections, f"Context=Beta d{doc}")
                    assert not found or (
                        found <= self.sections(doc, 1)
                        or found <= self.sections(doc, 2)
                    )
                    body = attempt(read_document, doc)
                    assert body is None or body in whole
                    one_committed_state(node.search("Content=any:alpha beta"))
        finally:
            sys.setswitchinterval(interval)
            assert ingest.stop(timeout=60) == self.DOCS
        for doc in range(self.DOCS):
            assert read_sections(f"Content=d{doc}r2") == self.sections(doc, 2)
            assert read_sections(f"Content=d{doc}r1") == set()
