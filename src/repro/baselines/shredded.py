"""Schema-dependent XML storage baseline (relational shredding).

The comparison point for NETMARK's schema-less scheme: "Approaches such as
[Shanmugasundaram et al.] define different relations for different XML
element types" — the structure of the database depends on the structure of
the documents stored.

:class:`ShreddedXmlStore` implements that approach over the same ORDBMS
substrate: for every *distinct element tag* it creates a dedicated table
``ELEM_<TAG>`` (plus a shared ``SHRED_TEXT`` table for character data).
Storing a document whose tag set introduces new element types issues new
DDL — the cost the FIG5 experiment measures, since NETMARK's table count
stays at two no matter what arrives.

Functionally the store is equivalent where it matters for comparison:
documents round-trip, and a heading search (`find_sections`) exists so the
benchmarks can run the same workload against both stores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import DocumentNotFoundError
from repro.ordbms import (
    CLOB,
    INTEGER,
    VARCHAR,
    Column,
    Database,
    TableSchema,
)
from repro.sgml.dom import Document, Element, Node, Text

_TAG_SAFE_RE = re.compile(r"[^A-Z0-9]")


def table_name_for(tag: str) -> str:
    """Relation name for one element type."""
    return "ELEM_" + _TAG_SAFE_RE.sub("_", tag.upper())


TEXT_TABLE = "SHRED_TEXT"
DOC_TABLE = "SHRED_DOC"


@dataclass
class ShredResult:
    doc_id: int
    node_count: int
    new_tables: int  # DDL issued by this load


class ShreddedXmlStore:
    """Table-per-element-type XML storage (the schema-centric baseline)."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database()
        self._next_doc_id = 1
        self._next_node_id = 1
        self.database.create_table(
            TableSchema(
                DOC_TABLE,
                (
                    Column("DOC_ID", INTEGER, nullable=False),
                    Column("FILE_NAME", VARCHAR, nullable=False),
                    Column("ROOT_TAG", VARCHAR, nullable=False),
                    Column("ROOT_ID", INTEGER, nullable=False),
                ),
                primary_key="DOC_ID",
            )
        )
        self.database.create_table(
            TableSchema(
                TEXT_TABLE,
                (
                    Column("NODE_ID", INTEGER, nullable=False),
                    Column("DOC_ID", INTEGER, nullable=False),
                    Column("PARENT_ID", INTEGER),
                    Column("ORDINAL", INTEGER, nullable=False),
                    Column("DATA", CLOB),
                ),
                primary_key="NODE_ID",
            )
        ).create_index("PARENT_ID")

    # -- storage ---------------------------------------------------------------

    def store_document(self, document: Document) -> ShredResult:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        ddl_before = self.database.catalog.ddl_statements
        root_id, count = self._insert_element(document.root, doc_id, None, 0)
        self.database.insert(
            DOC_TABLE,
            {
                "DOC_ID": doc_id,
                "FILE_NAME": document.name or f"document-{doc_id}",
                "ROOT_TAG": document.root.tag,
                "ROOT_ID": root_id,
            },
        )
        ddl_after = self.database.catalog.ddl_statements
        return ShredResult(doc_id, count, ddl_after - ddl_before)

    def _ensure_element_table(self, tag: str) -> str:
        name = table_name_for(tag)
        if not self.database.catalog.has_table(name):
            table = self.database.create_table(
                TableSchema(
                    name,
                    (
                        Column("NODE_ID", INTEGER, nullable=False),
                        Column("DOC_ID", INTEGER, nullable=False),
                        Column("PARENT_TAG", VARCHAR),
                        Column("PARENT_ID", INTEGER),
                        Column("ORDINAL", INTEGER, nullable=False),
                        Column("ATTRS", CLOB),
                    ),
                    primary_key="NODE_ID",
                )
            )
            table.create_index("PARENT_ID")
        return name

    def _insert_element(
        self, element: Element, doc_id: int, parent_id: int | None, ordinal: int
    ) -> tuple[int, int]:
        from repro.store.schema import encode_attributes

        node_id = self._next_node_id
        self._next_node_id += 1
        table = self._ensure_element_table(element.tag)
        parent_tag = element.parent.tag if element.parent is not None else None
        self.database.insert(
            table,
            {
                "NODE_ID": node_id,
                "DOC_ID": doc_id,
                "PARENT_TAG": parent_tag,
                "PARENT_ID": parent_id,
                "ORDINAL": ordinal,
                "ATTRS": encode_attributes(element.attributes),
            },
        )
        count = 1
        for child_ordinal, child in enumerate(element.children):
            if isinstance(child, Text):
                text_id = self._next_node_id
                self._next_node_id += 1
                self.database.insert(
                    TEXT_TABLE,
                    {
                        "NODE_ID": text_id,
                        "DOC_ID": doc_id,
                        "PARENT_ID": node_id,
                        "ORDINAL": child_ordinal,
                        "DATA": child.data,
                    },
                )
                count += 1
            else:
                assert isinstance(child, Element)
                _, child_count = self._insert_element(
                    child, doc_id, node_id, child_ordinal
                )
                count += child_count
        return node_id, count

    # -- inspection -----------------------------------------------------------------

    @property
    def table_count(self) -> int:
        """Total relations — grows with document-type diversity."""
        return len(self.database.catalog)

    @property
    def element_table_count(self) -> int:
        return sum(
            1
            for name in self.database.catalog.table_names()
            if name.startswith("ELEM_")
        )

    # -- retrieval -------------------------------------------------------------------

    def reconstruct(self, doc_id: int) -> Document:
        doc_rows = self.database.table(DOC_TABLE).lookup("DOC_ID", doc_id)
        if not doc_rows:
            raise DocumentNotFoundError(f"no shredded document {doc_id}")
        doc_row = doc_rows[0]
        root = self._rebuild_element(
            doc_row.ROOT_TAG, doc_row.ROOT_ID, doc_id
        )
        return Document(root, name=doc_row.FILE_NAME)

    def _rebuild_element(self, tag: str, node_id: int, doc_id: int) -> Element:
        from repro.store.schema import decode_attributes

        table = self.database.table(table_name_for(tag))
        rows = [row for row in table.lookup("NODE_ID", node_id)]
        attrs = decode_attributes(rows[0].ATTRS) if rows else {}
        element = Element(tag, attrs)
        children: list[tuple[int, Node]] = []
        # Element children may live in *any* element table: scan them all.
        for child_table_name in self.database.catalog.table_names():
            if not child_table_name.startswith("ELEM_"):
                continue
            child_table = self.database.table(child_table_name)
            for row in child_table.lookup("PARENT_ID", node_id):
                if row.DOC_ID != doc_id:
                    continue
                child_tag = child_table_name[len("ELEM_"):].lower()
                children.append(
                    (
                        row.ORDINAL,
                        self._rebuild_element(child_tag, row.NODE_ID, doc_id),
                    )
                )
        for row in self.database.table(TEXT_TABLE).lookup("PARENT_ID", node_id):
            if row.DOC_ID == doc_id:
                children.append((row.ORDINAL, Text(row.DATA or "")))
        for _, child in sorted(children, key=lambda pair: pair[0]):
            element.append(child)
        return element

    def find_sections(self, heading: str) -> list[tuple[int, str]]:
        """(doc_id, section text) for sections titled ``heading``.

        The query must name the context *element type's table* — the
        schema-dependence NETMARK avoids.  Here sections follow the
        canonical converter shape (section/context/content).
        """
        heading = heading.lower()
        results: list[tuple[int, str]] = []
        if not self.database.catalog.has_table(table_name_for("context")):
            return results
        context_table = self.database.table(table_name_for("context"))
        text_table = self.database.table(TEXT_TABLE)
        for context_row in context_table.scan():
            texts = text_table.lookup("PARENT_ID", context_row.NODE_ID)
            title = " ".join(
                (row.DATA or "").strip() for row in sorted(
                    texts, key=lambda row: row.ORDINAL
                )
            ).strip()
            if title.lower() != heading:
                continue
            # Content: sibling <content> elements under the same parent.
            doc_id = context_row.DOC_ID
            parent_id = context_row.PARENT_ID
            content_parts: list[str] = []
            if self.database.catalog.has_table(table_name_for("content")):
                content_table = self.database.table(table_name_for("content"))
                for content_row in content_table.lookup("PARENT_ID", parent_id):
                    if content_row.DOC_ID != doc_id:
                        continue
                    for text_row in text_table.lookup(
                        "PARENT_ID", content_row.NODE_ID
                    ):
                        data = (text_row.DATA or "").strip()
                        if data:
                            content_parts.append(data)
            results.append((doc_id, " ".join(content_parts)))
        return results
