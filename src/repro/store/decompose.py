"""Document decomposition: DOM tree -> XML-table node rows.

"The NETMARK 'SGML parser' decomposes the XML (or even HTML) documents
into its constituent nodes and dynamically inserts them into two primary
database tables — namely, XML and DOC."

The decomposer flattens the DOM in document order and builds one finished
row per node; a node has no id of its own, it is its ROWID.  The whole
tree is in memory before the first insert and the heap is append-only,
so the addresses the rows will land at are known up front
(:meth:`repro.ordbms.table.Table.next_rowids`): every row is written
once, already carrying its parent's ROWID (``PARENTROWID``), and is
never touched again.
The DOC row, which names the root's ROWID (``ROOTROWID``), and the node
rows go in as one statement
(:meth:`repro.ordbms.Database.change`), one WAL record, which refuses a
row whose address is not the next one its heap hands out — and then
nothing moves in either table.  The result is the traversal structure
the paper exploits: an O(1) hop up, and document order as ROWID order,
so the walk down and across is a forward read.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

from repro.ordbms import Database, RowId
from repro.sgml.config import NodeTypeConfig
from repro.sgml.dom import Document, Element, Node
from repro.store.schema import (
    DOC_TABLE,
    XML_TABLE,
    encode_attributes,
    encode_metadata,
)


@dataclass
class DecomposeResult:
    """What one document load produced."""

    doc_id: int
    root_rowid: RowId
    node_count: int


class Decomposer:
    """Stateful document-id allocator + document loader for one database."""

    def __init__(self, database: Database, config: NodeTypeConfig) -> None:
        self._database = database
        self._config = config
        self._next_doc_id = 1

    def resume(self, next_doc_id: int) -> None:
        """Resume id allocation past a restored snapshot's highest id."""
        self._next_doc_id = next_doc_id

    def load(self, document: Document, file_date: _dt.datetime | None = None) -> DecomposeResult:
        """Insert ``document`` into DOC + XML as one statement."""
        database = self._database
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        size = document.metadata.get("char_size")
        flat = _flatten(document.root)
        doc, xml = database.table(DOC_TABLE), database.table(XML_TABLE)
        rowids = xml.next_rowids(len(flat))
        doc_row = doc.schema.row(
            {
                "DOC_ID": doc_id,
                "FILE_NAME": document.name or f"document-{doc_id}",
                "FILE_DATE": file_date,
                "FILE_SIZE": size if isinstance(size, int) else None,
                "FORMAT": str(document.metadata.get("format", "unknown")),
                "METADATA": encode_metadata(document.metadata),
                "ROOTROWID": rowids[0],
            },
            doc.next_rowids(1)[0],
        )
        row, classify, pairs = xml.schema.row_of_image, self._config.classify, []
        for position, (node, parent) in enumerate(flat):
            is_element = isinstance(node, Element)
            pairs.append((None, row((  # XML_TABLE's columns, in order
                None if parent is None else rowids[parent],
                int(classify(node)),
                node.tag if is_element else None,
                None if is_element else node.data,
                encode_attributes(node.attributes) if is_element else None,
            ), rowids[position])))
        database.change([(DOC_TABLE, [(None, doc_row)]), (XML_TABLE, pairs)])
        return DecomposeResult(doc_id=doc_id, root_rowid=rowids[0], node_count=len(flat))


def _flatten(root: Node) -> list[tuple[Node, int | None]]:
    """``root``'s subtree in document order, as ``(node, parent)``
    entries; the parent is a position or None."""
    flat: list[tuple[Node, int | None]] = []
    stack: list[tuple[Node, int | None]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        position = len(flat)
        flat.append((node, parent))
        if isinstance(node, Element):
            stack.extend((child, position) for child in reversed(node.children))
    return flat
