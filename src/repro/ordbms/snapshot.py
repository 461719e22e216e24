"""Database snapshots: serialise an entire database to text and back.

NETMARK's database "is nothing more than an intelligent storage
component"; intelligent storage survives restarts.  A snapshot captures
everything — schemas, declared indexes, and every heap block *including
tombstoned slots* — so that physical ROWIDs come back identical, which
matters because ROWIDs are stored inside XML-table rows (``PARENTROWID``,
``SIBLINGID``).  Indexes are rebuilt from the restored heaps rather than
serialised; they are derived state.

Format: a line-oriented text format (version-stamped), one section per
table::

    %NETMARK-SNAPSHOT 1
    TABLE <name>
    SCHEMA <json-ish schema line>
    ROW <file>.<block>.<slot> <tab-separated typed values>
    TOMB <file>.<block>.<slot>
    ...

Typed value encoding: ``~`` NULL, ``i:<n>``, ``f:<x>``, ``s:<escaped>``,
``t:<iso>``, ``r:<rowid>``.  Strings escape backslash, tab and newline.
The value codec itself lives in :mod:`repro.ordbms.valuecodec`, shared
with the write-ahead log so checkpoint and log records always agree.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any

from repro.errors import DatabaseError
from repro.ordbms import types as _types
from repro.ordbms.database import Database
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import Column, ForeignKey, TableSchema
from repro.ordbms.table import Table
from repro.ordbms.valuecodec import decode_value, encode_value

MAGIC = "%NETMARK-SNAPSHOT 1"

_TYPE_NAMES = {
    "INTEGER": _types.INTEGER,
    "FLOAT": _types.FLOAT,
    "VARCHAR": _types.VARCHAR,
    "CLOB": _types.CLOB,
    "TIMESTAMP": _types.TIMESTAMP,
    "ROWID": _types.ROWID,
}


def _encode_schema(table: Table) -> str:
    schema = table.schema
    parts: list[str] = []
    for column in schema.columns:
        flags = []
        if not column.nullable:
            flags.append("!")
        parts.append(f"{column.name}:{column.dtype.name}{''.join(flags)}")
    header = ",".join(parts)
    pk = schema.primary_key or "-"
    unique = "|".join(schema.unique) or "-"
    fks = "|".join(
        f"{fk.column}>{fk.ref_table}.{fk.ref_column}"
        for fk in schema.foreign_keys
    ) or "-"
    indexes = "|".join(
        column
        for column in table.index_columns
        if column != schema.primary_key and column not in schema.unique
    ) or "-"
    text_indexes = "|".join(
        column.name
        for column in schema.columns
        if table.text_index_on(column.name) is not None
    ) or "-"
    return "\t".join([header, pk, unique, fks, indexes, text_indexes])


def _decode_schema(name: str, line: str) -> tuple[TableSchema, list[str], list[str]]:
    fields = line.split("\t")
    if len(fields) != 6:
        raise DatabaseError(f"table {name}: SCHEMA has {len(fields)} fields, not 6")
    header, pk, unique, fks, indexes, text_indexes = fields
    columns: list[Column] = []
    for part in header.split(","):
        column_name, _, type_part = part.partition(":")
        nullable = not type_part.endswith("!")
        type_name = type_part.rstrip("!")
        dtype = _TYPE_NAMES.get(type_name)
        if dtype is None:
            raise DatabaseError(f"unknown snapshot column type {type_name!r}")
        columns.append(Column(column_name, dtype, nullable=nullable))
    foreign_keys = []
    if fks != "-":
        for fk_part in fks.split("|"):
            column, _, reference = fk_part.partition(">")
            ref_table, _, ref_column = reference.partition(".")
            foreign_keys.append(ForeignKey(column, ref_table, ref_column))
    schema = TableSchema(
        name,
        tuple(columns),
        primary_key=None if pk == "-" else pk,
        unique=() if unique == "-" else tuple(unique.split("|")),
        foreign_keys=tuple(foreign_keys),
    )
    extra_indexes = [] if indexes == "-" else indexes.split("|")
    text_index_columns = [] if text_indexes == "-" else text_indexes.split("|")
    return schema, extra_indexes, text_index_columns


def dump_database(database: Database) -> str:
    """Serialise ``database`` into snapshot text."""
    lines = [MAGIC]
    for table in database.catalog:
        lines.append(f"TABLE {table.schema.name}")
        lines.append("SCHEMA " + _encode_schema(table))
        heap = table._heap  # noqa: SLF001 - deliberate: physical layout
        for rowid, row in heap.scan_all():
            if row is None:
                lines.append(f"TOMB {rowid}")
            else:
                encoded = "\t".join(encode_value(value) for value in row[:-1])
                lines.append(f"ROW {rowid} {encoded}")
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
    slots: list[tuple[RowId, tuple[Any, ...] | None]] = []  # not yet in
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
                address_text, _, payload = rest.partition(" ")
                slots.append((RowId.decode(address_text), tuple(
                    decode_value(part) for part in payload.split("\t")
                ) if payload else ()))
        else:
            raise DatabaseError(f"snapshot line {line_no}: unknown verb {verb!r}")
    if slots:
        _load_slots(table, slots)
    # No reader predates the load, so it leaves no history and no LSN:
    # the tables join the database's MVCC state only once they are full.
    for table in database.catalog:
        table.bind_mvcc(database.mvcc)
    return database


def _load_slots(
    table: Table, slots: list[tuple[RowId, tuple[Any, ...] | None]]
) -> None:
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
            table.change([
                (None, table.schema.row_of_image(image, rowid)) for rowid, image in run
            ])
        else:
            for _ in run:
                heap.delete(heap.insert(None))
    slots.clear()
