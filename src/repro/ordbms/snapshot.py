"""Database snapshots: serialise an entire database to text and back.

NETMARK's database "is nothing more than an intelligent storage
component"; intelligent storage survives restarts.  A snapshot captures
everything — schemas, declared indexes, and every heap slot *including
tombstoned ones* — so that physical ROWIDs come back identical, which
matters because ROWIDs are stored inside rows (``PARENTROWID``, ``ROOTROWID``)
and ROWID order is document order.  Indexes are rebuilt from the
restored heaps rather than serialised; they are derived state.

Format: a line-oriented text format (version-stamped), one section per
table::

    %NETMARK-SNAPSHOT 4
    TABLE <name>
    SCHEMA <columns> <primary key> <B+trees> <text indexes>
    ROW <slot> <the row's image>
    TOMB <slot>
    ...

A row's image is the one the write-ahead log carries
(:meth:`~repro.ordbms.schema.TableSchema.pack`): its columns' text
forms, tab-separated, each written by its column's type — no value tag,
the ``SCHEMA`` line above says what each column is — with ``~`` for
NULL and strings escaped once (:mod:`repro.ordbms.valuecodec`).  A ROWID,
the slot's address and a ``ROWID`` column's value alike, is its decimal
slot number.  The ``SCHEMA`` line's fields are tab-separated, ``-``
for none.  A dump in an older dialect — version 1's tagged values,
version 2's ``F<file>.B<block>.S<slot>`` addresses, version 3's unique
and foreign-key fields — is refused by its magic line.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any

from repro.errors import DatabaseError
from repro.ordbms.database import Database
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import Column, TableSchema
from repro.ordbms.table import Table
from repro.ordbms.types import ALL_TYPES
from repro.ordbms.valuecodec import SEPARATOR

MAGIC = "%NETMARK-SNAPSHOT 4"

_TYPE_NAMES = {dtype.name: dtype for dtype in ALL_TYPES}


def _encode_schema(table: Table) -> str:
    schema = table.schema
    header = ",".join(
        f"{column.name}:{column.dtype.name}{'' if column.nullable else '!'}"
        for column in schema.columns
    )
    pk = schema.primary_key or "-"
    indexes = "|".join(
        column for column in table.index_columns if column != schema.primary_key
    ) or "-"
    text_indexes = "|".join(
        column.name
        for column in schema.columns
        if table.text_index_on(column.name) is not None
    ) or "-"
    return "\t".join([header, pk, indexes, text_indexes])


def _decode_schema(name: str, line: str) -> tuple[TableSchema, list[str], list[str]]:
    fields = line.split("\t")
    if len(fields) != 4:
        raise DatabaseError(f"table {name}: SCHEMA has {len(fields)} fields, not 4")
    header, pk, indexes, text_indexes = fields
    columns: list[Column] = []
    for part in header.split(","):
        column_name, _, type_part = part.partition(":")
        nullable = not type_part.endswith("!")
        type_name = type_part.rstrip("!")
        dtype = _TYPE_NAMES.get(type_name)
        if dtype is None:
            raise DatabaseError(f"unknown snapshot column type {type_name!r}")
        columns.append(Column(column_name, dtype, nullable=nullable))
    schema = TableSchema(name, tuple(columns), primary_key=None if pk == "-" else pk)
    extra_indexes = [] if indexes == "-" else indexes.split("|")
    text_index_columns = [] if text_indexes == "-" else text_indexes.split("|")
    return schema, extra_indexes, text_index_columns


def dump_database(database: Database) -> str:
    """Serialise ``database`` into snapshot text."""
    lines = [MAGIC]
    for table in database.catalog:
        lines.append(f"TABLE {table.schema.name}")
        lines.append("SCHEMA " + _encode_schema(table))
        heap, pack = table._heap, table.schema.pack  # noqa: SLF001 - physical layout
        for rowid, row in heap.scan_all():
            if row is None:
                lines.append(f"TOMB {rowid}")
            else:
                lines.append(f"ROW {rowid} " + SEPARATOR.join(pack(row)))
    return "\n".join(lines) + "\n"


def load_database(text: str, name: str = "restored") -> Database:
    """Rebuild a database from snapshot text (indexes are rebuilt)."""
    # Split strictly on '\n': splitlines() would also split on Unicode
    # line separators (U+0085, U+2028...) that may appear *inside* stored
    # string values, which only escape \n/\r/\t/backslash.
    lines = text.split("\n")
    if not lines or lines[0] != MAGIC:
        raise DatabaseError("not a NETMARK snapshot (bad magic line)")
    database = Database(name)
    table: Table | None = None
    pending_name: str | None = None
    slots: list[tuple[RowId, Any]] = []  # rows and tombstones not yet in
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        verb, _, rest = line.partition(" ")
        if verb not in {"ROW", "TOMB"} and slots:
            _load_slots(table, slots)
        if verb == "TABLE":
            pending_name = rest.strip()
            table = None
        elif verb == "SCHEMA":
            if pending_name is None:
                raise DatabaseError(f"snapshot line {line_no}: SCHEMA before TABLE")
            schema, extra_indexes, text_index_columns = _decode_schema(
                pending_name, rest
            )
            table = database.catalog.create_table(schema)  # bound below
            for column in extra_indexes:
                if table.index_on(column) is None:
                    table.create_index(column)
            for column in text_index_columns:
                table.create_text_index(column)
            pending_name = None
        elif verb in {"ROW", "TOMB"}:
            if table is None:
                raise DatabaseError(f"snapshot line {line_no}: row before schema")
            if verb == "TOMB":
                slots.append((RowId.decode(rest.strip()), None))
            else:
                address_text, _, image = rest.partition(" ")
                rowid = RowId.decode(address_text)
                slots.append((rowid, table.schema.unpack(image.split(SEPARATOR), rowid)))
        else:
            raise DatabaseError(f"snapshot line {line_no}: unknown verb {verb!r}")
    if slots:
        _load_slots(table, slots)
    # No reader predates the load, so it leaves no history and no LSN:
    # the tables join the database's MVCC state only once they are full.
    for table in database.catalog:
        table.bind_mvcc(database.mvcc)
    return database


def _load_slots(table: Table, slots: list[tuple[RowId, Any]]) -> None:
    """Put a table's dumped slots at exactly their addresses, emptying
    the list: each run of live rows as one statement, each tombstone
    straight on the heap (it keeps its address and nothing else)."""
    for (rowid, _), expected in zip(slots, table.next_rowids(len(slots))):
        if rowid != expected:
            raise DatabaseError(
                f"snapshot slot order broken: expected {expected}, got {rowid}"
            )
    heap = table._heap  # noqa: SLF001 - tombstones go straight to the heap
    for live, run in groupby(slots, key=lambda slot: slot[1] is not None):
        if live:
            table.change([(None, row) for _, row in run])
        else:
            for _ in run:
                heap.insert(None)
    slots.clear()
