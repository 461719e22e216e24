"""The NETMARK XML Store facade.

One object owning the generated schema, the decomposer and the
reconstruction path.  Everything above (query engine, server, federation)
talks to an :class:`XmlStore`; everything below is the ORDBMS substrate.

Typical use::

    store = XmlStore()
    result = store.store_text(open("budget.ndoc").read(), "budget.ndoc")
    document = store.document(result.doc_id)      # reconstructed DOM
    for ctx in store.contexts(result.doc_id):     # CONTEXT rows
        ...
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from repro.converters import convert
from repro.errors import DocumentNotFoundError
from repro.ordbms import Database, Snapshot, Table
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.sgml.dom import Document
from repro.sgml.serializer import XmlWriter
from repro.store.accessor import NodeAccessor, RunRoots, SectionPass
from repro.store.compose import compose_document, write_rows
from repro.store.decompose import DecomposeResult, Decomposer
from repro.store.schema import (
    DOC_TABLE,
    XML_TABLE,
    DocRow,
    XmlRow,
    create_netmark_schema,
    decode_metadata,
    require_netmark_schema,
)


@dataclass(frozen=True)
class StoredDocument:
    """Catalog entry for one stored document (a DOC-table row, typed)."""

    doc_id: int
    file_name: str
    file_date: _dt.datetime | None
    file_size: int | None
    format: str
    metadata: dict[str, str]

    @property
    def revision(self) -> int:
        """The ``revision`` metadata counter (1 when absent or unreadable)."""
        try:
            return int(self.metadata.get("revision", "1"))
        except ValueError:
            return 1


class XmlStore:
    """Schema-less document storage over the ORDBMS substrate."""

    def __init__(
        self,
        database: Database | None = None,
        config: NodeTypeConfig = DEFAULT_CONFIG,
    ) -> None:
        database = database or Database()
        create_netmark_schema(database)
        self._wire(database, config)

    def _wire(self, database: Database, config: NodeTypeConfig) -> None:
        """Bind every field to a database that already has the schema."""
        require_netmark_schema(database)
        self.database = database
        self.config = config
        self._doc_table = database.table(DOC_TABLE)
        self._xml_table = database.table(XML_TABLE)
        # Every row indexed from here on (loaded, replayed, shipped) says
        # which sections its text is in — heading text posted twice, every
        # row listed among its sections' members; the rows there, in one pass.
        self._xml_table.derive_facts(SectionPass, SectionPass.is_heading, SectionPass.sections)
        roots = self._roots = RunRoots(self._xml_table)
        self._doc_table.derive_facts(lambda _: roots)
        self._decomposer = Decomposer(database, config)
        #: doc id -> catalog entry, read and filled by :meth:`cached_entry`.
        self._entries: dict[int, StoredDocument] = {}
        #: Set by :meth:`open` when the store came back from a crash.
        self.last_recovery = None

    # -- persistence ----------------------------------------------------------

    def dump(self) -> str:
        """Serialise the whole store (see :mod:`repro.ordbms.snapshot`)."""
        from repro.ordbms.snapshot import dump_database

        return dump_database(self.database)

    @classmethod
    def restore(
        cls, snapshot_text: str, config: NodeTypeConfig = DEFAULT_CONFIG
    ) -> "XmlStore":
        """Rebuild a store from :meth:`dump` output.

        Physical ROWIDs are restored exactly (they are stored inside node
        rows), and the document id allocator resumes past the highest
        restored id, so new documents never collide with old ones.
        """
        from repro.ordbms.snapshot import load_database

        return cls.adopt(load_database(snapshot_text), config)

    @classmethod
    def open(
        cls, device: object, config: NodeTypeConfig = DEFAULT_CONFIG
    ) -> "XmlStore":
        """Open (or create) a *durable* store on a WAL ``LogDevice``.

        First open (empty device): creates the NETMARK schema and writes
        the baseline checkpoint — from then on every committed document
        is durable the moment ``store_*`` returns.  Reopen (device holds
        a checkpoint/log): runs crash recovery, which replays every whole
        record, drops a torn one, and resumes the log;
        the :class:`~repro.ordbms.recovery.RecoveryResult` is kept on
        :attr:`last_recovery`.
        """
        from repro.ordbms.recovery import recover

        if device.load_checkpoint() is None and not device.read_log():
            store = cls(config=config)
            store.database.enable_wal(device)
            return store
        result = recover(device)
        store = cls.adopt(result.database, config)
        store.last_recovery = result
        return store

    def checkpoint(self) -> int:
        """Fold the store into a fresh checkpoint and truncate its log."""
        return self.database.checkpoint()

    @classmethod
    def adopt(
        cls, database: Database, config: NodeTypeConfig = DEFAULT_CONFIG
    ) -> "XmlStore":
        """Wire a store view around a database that already has the schema.

        The entry point for databases materialised elsewhere — crash
        recovery output, a replication follower's applied state — where
        the NETMARK tables exist but no :class:`XmlStore` does yet.  The
        document id allocator resumes past the highest stored id.
        """
        store = cls.__new__(cls)
        store._wire(database, config)
        max_doc = max(
            (row.DOC_ID for row in store._doc_table.scan()), default=0
        )
        store._decomposer.resume(max_doc + 1)
        return store

    # -- ingestion ------------------------------------------------------------

    def store_document(
        self, document: Document, file_date: _dt.datetime | None = None
    ) -> DecomposeResult:
        """Store an already-parsed DOM document."""
        return self._decomposer.load(document, file_date=file_date)

    def store_text(
        self,
        text: str,
        name: str,
        file_date: _dt.datetime | None = None,
    ) -> DecomposeResult:
        """Convert raw file content through the upmark registry and store it."""
        return self.store_document(convert(text, name), file_date=file_date)

    def replace_text(
        self,
        text: str,
        name: str,
        file_date: _dt.datetime | None = None,
    ) -> DecomposeResult:
        """Store ``text`` as the new revision of the document named ``name``.

        If a document with that file name exists it is superseded: its
        nodes are removed and the replacement carries a ``revision``
        metadata counter one higher.  With no prior document this is
        exactly :meth:`store_text` (revision 1).  Either way the new
        content is parsed *before* anything is deleted, so a conversion
        failure leaves the old revision untouched.
        """
        document = convert(text, name)
        existing = self.lookup_by_name(name)
        document.metadata["revision"] = 1
        if existing is not None:
            document.metadata["revision"] = existing.revision + 1
            self.delete_document(existing.doc_id)
        return self.store_document(document, file_date=file_date)

    def delete_document(self, doc_id: int) -> int:
        """Remove a document and its nodes, as one statement; returns nodes
        removed: the run from the root its DOC row names, read off the heap
        as it stands (a writer's pre-read), none if the root is another's."""
        doc_rows = self._doc_table.lookup("DOC_ID", doc_id)
        if not doc_rows:
            raise DocumentNotFoundError(f"no document with id {doc_id}")
        xml, node_rows, root = self._xml_table, [], doc_rows[0].ROOTROWID
        # The run ends at a tombstone, the heap tail or the next root.
        for slot in count(root) if self._roots.docs.get(root) == doc_id else ():
            row = xml.fetch(slot) if xml.exists(slot) else None
            if row is None or node_rows and row.PARENTROWID is None:
                break
            node_rows.append(row)
        self.database.change([
            (XML_TABLE, [(row, None) for row in node_rows]),
            (DOC_TABLE, [(doc_rows[0], None)]),
        ])
        self._entries.pop(doc_id, None)
        return len(node_rows)

    # -- snapshots (MVCC) -----------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin a consistent read view over DOC + XML (context manager).

        Every read taken through the handle — catalog lookups, query
        execution via ``engine.execute(query, snapshot=snap)``, lazy
        match resolution — sees the store exactly as of the pin for as
        long as the pin is held, no matter what the daemon ingests
        meanwhile, and never blocks::

            with store.snapshot() as snap:
                results = engine.execute(query, snapshot=snap)

        A read given no snapshot resolves at the same LSN without
        holding it: whole statements only, exact until the next
        statement, after which it sees that commit too and a lazy read of
        a since-deleted document raises the typed
        :class:`~repro.errors.RowIdError`.
        """
        return self.database.open_snapshot()

    # -- catalog ------------------------------------------------------------

    def documents(self, snapshot: Snapshot | None = None) -> list[StoredDocument]:
        """All stored documents, in DOC_ID order."""
        rows = self._doc_table.snapshot_scan(
            self.database.mvcc.read_lsn(snapshot)
        )
        entries = [self._to_stored(row) for row in rows]
        entries.sort(key=lambda entry: entry.doc_id)
        return entries

    def describe(self, doc_id: int, snapshot: Snapshot | None = None) -> StoredDocument:
        return self.entry_at(doc_id, self.database.mvcc.read_lsn(snapshot))

    def entry_at(self, doc_id: int, lsn: int) -> StoredDocument:
        """The catalog entry of ``doc_id`` as of commit LSN ``lsn``."""
        rows = self._doc_table.snapshot_search("DOC_ID", doc_id, lsn)
        if not rows:
            raise DocumentNotFoundError(f"no document with id {doc_id}")
        return self._to_stored(rows[0])

    def cached_entry(self, doc_id: int, lsn: int) -> StoredDocument:
        """:meth:`entry_at`, answered from the store's catalog map once
        any reader has read it.  A DOC row is written once and this
        store's doc ids only count up, so an entry is the same at every
        LSN that shows it (DESIGN.md §16).  A delete takes its entry out;
        a reader pinned before it may put it back, and shipped deletes
        (a follower) never take one out, so the map is dropped whenever
        it outgrows twice the stored documents."""
        entry = self._entries.get(doc_id)
        if entry is None:
            if len(self._entries) > 2 * len(self._doc_table) + 64:
                self._entries.clear()
            entry = self._entries[doc_id] = self.entry_at(doc_id, lsn)
        return entry

    def lookup_by_name(self, file_name: str) -> StoredDocument | None:
        """The stored document named ``file_name`` (the oldest, if several:
        index postings are in ROWID order, as a scan would meet them)."""
        rows = self._doc_table.lookup("FILE_NAME", file_name)
        return self._to_stored(rows[0]) if rows else None

    def __len__(self) -> int:
        return len(self._doc_table)

    @property
    def node_count(self) -> int:
        return len(self._xml_table)

    @property
    def table_count(self) -> int:
        """Tables in the database — stays at 2 forever (the FIG5 claim)."""
        return len(self.database.catalog)

    # -- retrieval -----------------------------------------------------------

    def document(self, doc_id: int, snapshot: Snapshot | None = None) -> Document:
        """Reconstruct the full DOM of a stored document."""
        accessor = self.new_accessor(snapshot)
        entry = self.entry_at(doc_id, accessor.lsn)
        return compose_document(doc_id, accessor, name=entry.file_name)

    def write_document(self, doc_id: int, writer: XmlWriter, snapshot: Snapshot | None = None) -> None:
        """Write what :meth:`document` rebuilds to ``writer``, from the rows."""
        accessor = self.new_accessor(snapshot)
        self.entry_at(doc_id, accessor.lsn)
        write_rows(accessor.document(doc_id), writer)

    def new_accessor(self, snapshot: Snapshot | None = None) -> NodeAccessor:
        """A fresh accessor: a view as of ``snapshot``, else as of now."""
        return NodeAccessor(self.database, self._roots, snapshot)

    def contexts(self, doc_id: int) -> Iterator[XmlRow]:
        """CONTEXT element rows of one document, in document order."""
        accessor = self.new_accessor()
        self.entry_at(doc_id, accessor.lsn)  # raises if unknown
        return filter(NodeAccessor.is_context, accessor.document(doc_id))

    # -- table access for the query layer -------------------------------------

    @property
    def xml_table(self) -> Table:
        return self._xml_table

    @property
    def doc_table(self) -> Table:
        return self._doc_table

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _to_stored(row: DocRow) -> StoredDocument:
        return StoredDocument(
            doc_id=row.DOC_ID,
            file_name=row.FILE_NAME,
            file_date=row.FILE_DATE,
            file_size=row.FILE_SIZE,
            format=row.FORMAT or "unknown",
            metadata=decode_metadata(row.METADATA),
        )
