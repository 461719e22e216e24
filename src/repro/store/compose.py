"""Document reconstruction: XML-table rows -> DOM tree.

The inverse of :mod:`repro.store.decompose`.  Reconstruction is used by
document retrieval (HTTP GET of a stored document) and by result
composition, which lifts individual *sections* back into DOM fragments
before XSLT formatting.

All row access funnels through a :class:`~repro.store.accessor.NodeAccessor`:
a node, a section or a whole document is one forward read of the rows
stored after its first (:meth:`NodeAccessor.subtree`), hung together by
parent link, as of the accessor's commit LSN.

The decompose→compose round trip preserves structure, attributes, text
and node order exactly; the property-based tests drive random trees
through it.
"""

from __future__ import annotations

from repro.errors import StoreError
from repro.ordbms import RowId
from repro.sgml.dom import Document, Element, Text
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import NodeAccessor
from repro.store.schema import XmlRow, decode_attributes


def _build(rows: list[XmlRow], beside: Element) -> Element:
    """Hang the DOM node of each row under its parent's; returns ``beside``.

    The rows are a forward-read run, head first: document order, so a
    row's parent is built before the row arrives and children append in
    order.  A row whose parent is not in the run — the head, and the
    siblings a section run admits after it — goes under ``beside``.
    """
    built: dict[RowId, Element] = {}
    for row in rows:
        if row.NODETYPE == int(NodeType.TEXT):
            node: Element | Text = Text(row.NODEDATA or "")
        else:
            node = built[row.rowid] = Element(
                row.NODENAME or "node", decode_attributes(row.ATTRS)
            )
            node.synthetic = row.NODETYPE == int(NodeType.SIMULATION)
        built.get(row.PARENTROWID, beside).append(node)
    return beside


def compose_node(row: XmlRow, accessor: NodeAccessor) -> Element | Text:
    """Rebuild the DOM subtree rooted at ``row``."""
    [node] = _build([row] + accessor.subtree(row), Element("parent")).children
    return node.detach()


def compose_document(
    doc_id: int, accessor: NodeAccessor, name: str = ""
) -> Document:
    """Rebuild the full DOM of document ``doc_id``.

    A document's rows are one ROWID run in document order: its lowest
    address is its root and the rest is exactly the root's subtree —
    ``XML.DOC_ID``'s postings say how many rows that must be.
    """
    rowids = accessor.lookup_rowids("DOC_ID", doc_id)
    rows = accessor.nodes(rowids[:1])
    if rows:
        rows += accessor.subtree(rows[0])
    if len(rows) != len(rowids) or not rows or rows[0].PARENTROWID is not None:
        raise StoreError(
            f"document {doc_id}'s {len(rowids)} rows are not one root node "
            f"followed by its subtree"
        )
    # A bare text root cannot occur via decompose; it would stay wrapped.
    wrapper = _build(rows, Element("document", synthetic=True))
    [root] = wrapper.children
    return Document(
        wrapper if isinstance(root, Text) else root.detach(), name=name
    )


def compose_section(context_row: XmlRow, accessor: NodeAccessor) -> Element:
    """Rebuild one section as ``<section><context>…</context>…</section>``.

    The section element is synthetic — it represents the *query result*
    shape, not necessarily a stored element.  Content is every sibling
    subtree up to the next context, reconstructed in full.
    """
    return _build(
        [context_row] + accessor.subtree(context_row, siblings=True),
        Element("section", synthetic=True),
    )
