"""Document decomposition: DOM tree -> XML-table node rows.

"The NETMARK 'SGML parser' decomposes the XML (or even HTML) documents
into its constituent nodes and dynamically inserts them into two primary
database tables — namely, XML and DOC."

The decomposer flattens the DOM in document order and emits one finished
row per node.  The whole tree is in memory before the first insert and
the heap is append-only, so the addresses the rows will land at are
known up front (:meth:`repro.ordbms.table.Table.next_rowids`): every row
is written once, already carrying its parent's ROWID (``PARENTROWID``)
**and** its next sibling's (``SIBLINGID``), and is never touched again.
The heap still mints each address; an insert that lands anywhere but
its reserved address fails the load, which rolls the document back.
The result is the traversal structure the paper exploits: O(1) hops up
and across.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any

from repro.errors import RowIdError
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
    """Stateful node-id allocator + document loader for one database."""

    def __init__(self, database: Database, config: NodeTypeConfig) -> None:
        self._database = database
        self._config = config
        self._next_doc_id = 1
        self._next_node_id = 1

    def resume(self, next_doc_id: int, next_node_id: int) -> None:
        """Resume id allocation past a restored snapshot's highest ids."""
        self._next_doc_id = next_doc_id
        self._next_node_id = next_node_id

    def load(self, document: Document, file_date: _dt.datetime | None = None) -> DecomposeResult:
        """Insert ``document`` into DOC + XML inside one transaction."""
        database = self._database
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        size = document.metadata.get("char_size")
        flat = _flatten(document.root)
        with database.begin():
            database.insert(
                DOC_TABLE,
                {
                    "DOC_ID": doc_id,
                    "FILE_NAME": document.name or f"document-{doc_id}",
                    "FILE_DATE": file_date,
                    "FILE_SIZE": size if isinstance(size, int) else None,
                    "FORMAT": str(document.metadata.get("format", "unknown")),
                    "METADATA": encode_metadata(document.metadata),
                },
            )
            rowids = database.table(XML_TABLE).next_rowids(len(flat))
            first_id = self._next_node_id
            self._next_node_id += len(flat)
            for position, (node, parent, ordinal, sibling) in enumerate(flat):
                is_element = isinstance(node, Element)
                landed = database.insert(
                    XML_TABLE,
                    {
                        "NODEID": first_id + position,
                        "DOC_ID": doc_id,
                        "PARENTROWID": None if parent is None else rowids[parent],
                        "PARENTNODEID": None if parent is None else first_id + parent,
                        "SIBLINGID": None if sibling is None else rowids[sibling],
                        "NODETYPE": int(self._config.classify(node)),
                        "NODENAME": node.tag if is_element else None,
                        "NODEDATA": None if is_element else node.data,
                        "ORDINAL": ordinal,
                        "ATTRS": encode_attributes(node.attributes) if is_element else None,
                    },
                )
                if landed != rowids[position]:
                    raise RowIdError(
                        f"node {first_id + position} landed at {landed}, not "
                        f"at its reserved address {rowids[position]}"
                    )
        return DecomposeResult(doc_id=doc_id, root_rowid=rowids[0], node_count=len(flat))


def _flatten(root: Node) -> list[list[Any]]:
    """``root``'s subtree in document order, as ``[node, parent, ordinal,
    next sibling]`` entries; parent and sibling are positions or None."""
    flat: list[list[Any]] = []
    last_child: dict[int | None, int] = {}
    stack: list[tuple[Node, int | None, int]] = [(root, None, 0)]
    while stack:
        node, parent, ordinal = stack.pop()
        position = len(flat)
        if ordinal:
            flat[last_child[parent]][3] = position
        last_child[parent] = position
        flat.append([node, parent, ordinal, None])
        if isinstance(node, Element):
            stack.extend(
                (child, position, index)
                for index, child in reversed(list(enumerate(node.children)))
            )
    return flat
