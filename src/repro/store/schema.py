"""The NETMARK generated schema (paper Fig 5).

Two tables store *every* document of *any* type — the schema-less claim:

``DOC``  — one row per stored document:
    ``DOC_ID`` (PK), ``FILE_NAME``, ``FILE_DATE``, ``FILE_SIZE``,
    plus ``FORMAT`` and ``METADATA`` (converter facts, serialised
    ``key=value;`` text) which the paper's figure omits but its
    applications clearly use.

``XML`` — one row per decomposed node:
    ``NODEID`` (PK), ``DOC_ID`` (FK to DOC),
    ``PARENTROWID`` — *physical ROWID* of the parent node row,
    ``PARENTNODEID`` — logical id of the parent (survives export),
    ``SIBLINGID`` — physical ROWID of the **next** sibling node row,
    ``NODETYPE`` — the five-way NETMARK type (1..5),
    ``NODENAME`` — element tag (NULL for text nodes),
    ``NODEDATA`` — character data (NULL for element nodes),
    ``ORDINAL`` — position among siblings (keeps reconstruction
    deterministic; implicit in Oracle's physical order, explicit here),
    ``ATTRS`` — serialised element attributes.

Indexes created with the schema (:data:`INDEXES`), beside each primary
key's: B+trees on ``DOC.FILE_NAME`` (the write path's "is this name
already stored" probe), ``XML.DOC_ID`` (a document's rows) and
``XML.NODENAME`` (the nodename search), plus the text index on
``XML.NODEDATA`` (the Oracle Text stand-in the query path hits first).
Nothing probes by parent: which section a row belongs to is what one
pass over its document in ROWID order says, so ``PARENTNODEID`` is
stored, and carried by an export, but not indexed.
"""

from __future__ import annotations

from repro.ordbms import (
    CLOB,
    INTEGER,
    ROWID,
    TIMESTAMP,
    VARCHAR,
    Column,
    Database,
    ForeignKey,
    Table,
    TableSchema,
)

DOC_TABLE = "DOC"
XML_TABLE = "XML"


def doc_schema() -> TableSchema:
    """Schema for the DOC table."""
    return TableSchema(
        name=DOC_TABLE,
        columns=(
            Column("DOC_ID", INTEGER, nullable=False),
            Column("FILE_NAME", VARCHAR, nullable=False),
            Column("FILE_DATE", TIMESTAMP),
            Column("FILE_SIZE", INTEGER),
            Column("FORMAT", VARCHAR),
            Column("METADATA", CLOB),
        ),
        primary_key="DOC_ID",
    )


def xml_schema() -> TableSchema:
    """Schema for the XML node table."""
    return TableSchema(
        name=XML_TABLE,
        columns=(
            Column("NODEID", INTEGER, nullable=False),
            Column("DOC_ID", INTEGER, nullable=False),
            Column("PARENTROWID", ROWID),
            Column("PARENTNODEID", INTEGER),
            Column("SIBLINGID", ROWID),
            Column("NODETYPE", INTEGER, nullable=False),
            Column("NODENAME", VARCHAR),
            Column("NODEDATA", CLOB),
            Column("ORDINAL", INTEGER, nullable=False, default=0),
            Column("ATTRS", CLOB),
        ),
        primary_key="NODEID",
        foreign_keys=(ForeignKey("DOC_ID", DOC_TABLE, "DOC_ID"),),
    )


#: The classes of the two tables' rows (``TableSchema.row_type``, one per
#: schema however often it is built): what every read of a store hands
#: out — ``row.NODETYPE``, ``row.rowid`` — named here for annotations.
DocRow = doc_schema().row_type
XmlRow = xml_schema().row_type


#: The B+trees each table carries beside its primary key's.
INDEXES = {DOC_TABLE: ("FILE_NAME",), XML_TABLE: ("DOC_ID", "NODENAME")}


def create_netmark_schema(database: Database) -> tuple[Table, Table]:
    """Create DOC and XML with their indexes; returns ``(doc, xml)``.

    This is the *only* DDL NETMARK ever issues — storing a new document
    type never adds to it (the property FIG5's ablation measures).
    """
    doc_table = database.create_table(doc_schema())
    xml_table = database.create_table(xml_schema())
    align_indexes(database)
    xml_table.create_text_index("NODEDATA")
    return doc_table, xml_table


def align_indexes(database: Database) -> None:
    """Give DOC and XML exactly the B+trees :data:`INDEXES` declares: a
    checkpoint or dump written by an older schema declares the ones it
    had, and the loader builds what it is told."""
    for name, columns in INDEXES.items():
        table = database.table(name)
        wanted = (table.schema.primary_key, *columns)
        for column in table.index_columns:
            if column not in wanted:
                table.drop_index(column)
        for column in wanted:
            if table.index_on(column) is None:
                table.create_index(column)


def encode_metadata(metadata: dict[str, object]) -> str:
    """Serialise converter metadata into the METADATA column text."""
    return ";".join(
        f"{key}={value}" for key, value in sorted(metadata.items())
    )


def decode_metadata(text: str | None) -> dict[str, str]:
    """Parse the METADATA column text back into a dict (values as text)."""
    if not text:
        return {}
    result: dict[str, str] = {}
    for pair in text.split(";"):
        if "=" in pair:
            key, _, value = pair.partition("=")
            result[key] = value
    return result


def encode_attributes(attributes: dict[str, str]) -> str | None:
    """Serialise element attributes for the ATTRS column."""
    if not attributes:
        return None
    # Tab/newline separators cannot collide with attribute text that the
    # tokenizer produced (it normalises them away inside values? no — so
    # escape them).
    parts = []
    for key, value in attributes.items():
        escaped = (
            value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        )
        parts.append(f"{key}\t{escaped}")
    return "\n".join(parts)


def decode_attributes(text: str | None) -> dict[str, str]:
    """Parse the ATTRS column back into an attribute dict."""
    if not text:
        return {}
    result: dict[str, str] = {}
    for line in text.split("\n"):
        if "\t" not in line:
            continue
        key, _, escaped = line.partition("\t")
        value = []
        index = 0
        while index < len(escaped):
            char = escaped[index]
            if char == "\\" and index + 1 < len(escaped):
                nxt = escaped[index + 1]
                value.append({"\\": "\\", "t": "\t", "n": "\n"}.get(nxt, nxt))
                index += 2
            else:
                value.append(char)
                index += 1
        result[key] = "".join(value)
    return result
