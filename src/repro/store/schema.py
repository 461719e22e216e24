"""The NETMARK generated schema (paper Fig 5).

Two tables store *every* document of *any* type — the schema-less claim:

``DOC``  — one row per stored document:
    ``DOC_ID`` (PK), ``FILE_NAME``, ``FILE_DATE``, ``FILE_SIZE``,
    plus ``FORMAT`` and ``METADATA`` (converter facts, serialised
    ``key=value;`` text) which the paper's figure omits but its
    applications clearly use, and ``ROOTROWID`` — the *physical ROWID*
    of the document's root node row.

``XML`` — one row per decomposed node, with no key of its own: a node
*is* its ROWID, and its document is the run it sits in.
    ``PARENTROWID`` — *physical ROWID* of the parent node row,
    ``NODETYPE`` — the five-way NETMARK type (1..5),
    ``NODENAME`` — element tag (NULL for text nodes),
    ``NODEDATA`` — character data (NULL for element nodes),
    ``ATTRS`` — serialised element attributes.

The two tables are joined by address, not by key.  A document's rows
are one ROWID run in document order, so the document is found from its
DOC row by one hop to ``ROOTROWID`` and one forward read, which ends at
the next row without a parent; within the run a node's subtree is the
rows that follow it, and its next sibling is the next ROWID past that
subtree, if that row's ``PARENTROWID`` is the node's own.  The up-hop is
``PARENTROWID``.  Position among siblings is ROWID order, and a row's
document the DOC row naming its run's root, so no column stores either.

Indexes created with the schema (:data:`INDEXES`), beside ``DOC_ID``'s
primary key: B+trees on ``DOC.FILE_NAME`` (the write path's "is this name
already stored" probe) and ``XML.NODENAME`` (the nodename search), plus
the text index on ``XML.NODEDATA`` (the Oracle Text stand-in the query
path hits first).  Nothing probes XML by document or by parent: which
section a row belongs to is what one pass over its document in ROWID
order says.  A store has exactly these B+trees; a dump or checkpoint
declaring others is refused, not aligned.
"""

from __future__ import annotations

from repro.errors import StoreError
from repro.ordbms import (
    CLOB,
    INTEGER,
    ROWID,
    TIMESTAMP,
    VARCHAR,
    Column,
    Database,
    Table,
    TableSchema,
)
from repro.ordbms.valuecodec import unescape

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
            Column("ROOTROWID", ROWID, nullable=False),
        ),
        primary_key="DOC_ID",
    )


def xml_schema() -> TableSchema:
    """Schema for the XML node table."""
    return TableSchema(
        name=XML_TABLE,
        columns=(
            Column("PARENTROWID", ROWID),
            Column("NODETYPE", INTEGER, nullable=False),
            Column("NODENAME", VARCHAR),
            Column("NODEDATA", CLOB),
            Column("ATTRS", CLOB),
        ),
    )


#: The classes of the two tables' rows (``TableSchema.row_type``, one per
#: schema however often it is built): what every read of a store hands
#: out — ``row.NODETYPE``, ``row.rowid`` — named here for annotations.
DocRow = doc_schema().row_type
XmlRow = xml_schema().row_type


#: The B+trees each table carries beside its primary key's.
INDEXES = {DOC_TABLE: ("FILE_NAME",), XML_TABLE: ("NODENAME",)}


def create_netmark_schema(database: Database) -> tuple[Table, Table]:
    """Create DOC and XML with their indexes; returns ``(doc, xml)``.

    This is the *only* DDL NETMARK ever issues — storing a new document
    type never adds to it (the property FIG5's ablation measures).
    """
    doc_table = database.create_table(doc_schema())
    xml_table = database.create_table(xml_schema())
    for table in (doc_table, xml_table):
        for column in INDEXES[table.schema.name]:
            table.create_index(column)
    xml_table.create_text_index("NODEDATA")
    return doc_table, xml_table


def require_netmark_schema(database: Database) -> None:
    """Refuse a database whose DOC or XML is not NETMARK's — its columns
    or its B+trees: a dump or a checkpoint declares its own tables, and
    the loader builds what it is told."""
    for wanted in (doc_schema(), xml_schema()):
        table = database.table(wanted.name)
        if _shape(table.schema) != _shape(wanted):
            raise StoreError(
                f"table {wanted.name} does not have the NETMARK columns: "
                f"{_shape(table.schema)} is not {_shape(wanted)}"
            )
        indexes = {wanted.primary_key, *INDEXES[wanted.name]} - {None}
        if set(table.index_columns) != indexes:
            raise StoreError(
                f"table {wanted.name} does not have the NETMARK B+trees: "
                f"{sorted(table.index_columns)} is not {sorted(indexes)}"
            )
    if database.table(XML_TABLE).text_index_on("NODEDATA") is None:
        raise StoreError("table XML has no text index on NODEDATA")


def _shape(schema: TableSchema) -> tuple:
    columns = tuple((c.name, c.dtype.name, c.nullable) for c in schema.columns)
    return columns, schema.primary_key


#: The METADATA column's escapes (:func:`encode_metadata`), both ways.
_META_ESCAPES = {"\\": "\\", "s": ";", "e": "="}
_META_ESCAPE = str.maketrans({"\\": "\\\\", ";": "\\s", "=": "\\e"})


def encode_metadata(metadata: dict[str, object]) -> str:
    """Serialise converter metadata into the METADATA column text:
    ``key=value`` pairs joined on ``;``, where a key or value escapes
    ``\\``, ``;`` and ``=`` (text without them is written as it is)."""
    return ";".join(
        f"{str(key).translate(_META_ESCAPE)}={str(value).translate(_META_ESCAPE)}"
        for key, value in sorted(metadata.items())
    )


def decode_metadata(text: str | None) -> dict[str, str]:
    """Parse the METADATA column text back into a dict (values as text)."""
    result: dict[str, str] = {}
    for pair in (text or "").split(";"):
        if "=" in pair:
            key, _, value = pair.partition("=")
            result[unescape(key, _META_ESCAPES)] = unescape(value, _META_ESCAPES)
    return result


def encode_attributes(attributes: dict[str, str]) -> str | None:
    """Serialise element attributes for the ATTRS column."""
    if not attributes:
        return None
    # Tab and newline separate the pairs and may occur inside a value,
    # so a value escapes them (and the backslash).
    parts = []
    for key, value in attributes.items():
        escaped = (
            value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        )
        parts.append(f"{key}\t{escaped}")
    return "\n".join(parts)


#: The ATTRS column's escapes (:func:`encode_attributes`).
_ATTR_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n"}


def decode_attributes(text: str | None) -> dict[str, str]:
    """Parse the ATTRS column back into an attribute dict."""
    if not text:
        return {}
    result: dict[str, str] = {}
    for line in text.split("\n"):
        if "\t" in line:
            key, _, escaped = line.partition("\t")
            result[key] = unescape(escaped, _ATTR_ESCAPES)
    return result
