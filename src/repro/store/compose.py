"""Document reconstruction: XML-table rows -> DOM tree, or -> XML text.

The inverse of :mod:`repro.store.decompose`.  :func:`write_rows` writes a
run of rows as :class:`~repro.sgml.serializer.XmlWriter` events (HTTP's
stored documents and fresh section matches); the ``compose_*`` functions
build DOM for the facade and for XSLT composition.

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
from repro.sgml.serializer import XmlWriter
from repro.store.accessor import NodeAccessor
from repro.store.schema import XmlRow, decode_attributes


_TEXT = int(NodeType.TEXT)


def _build(rows: list[XmlRow], beside: Element) -> Element:
    """Hang the DOM node of each row under its parent's; returns ``beside``.

    The rows are a forward-read run, head first: document order, so a
    row's parent is built before the row arrives and children append in
    order.  A row whose parent is not in the run — the head, and the
    siblings a section run admits after it — goes under ``beside``.
    """
    built: dict[RowId, Element] = {}
    for row in rows:
        if row.NODETYPE == _TEXT:
            node: Element | Text = Text(row.NODEDATA or "")
        else:
            node = built[row.rowid] = Element(
                row.NODENAME or "node", decode_attributes(row.ATTRS)
            )
            node.synthetic = row.NODETYPE == int(NodeType.SIMULATION)
        built.get(row.PARENTROWID, beside).append(node)
    return beside


def write_rows(rows: list[XmlRow], writer: XmlWriter, skip: str = "") -> None:
    """Write a forward-read run, head first, as events: the bytes of
    :func:`_build`'s tree, with no node built.  A top element (its parent
    is not in the run) tagged ``skip`` is left out with its subtree."""
    started: list[RowId] = []  # the elements written and not yet ended
    skipped: set[RowId] = set()
    for row in rows:
        if row.PARENTROWID in skipped:
            skipped.add(row.rowid)
            continue
        while started and started[-1] != row.PARENTROWID:
            started.pop()
            writer.end()
        if row.NODETYPE == _TEXT:
            writer.text(row.NODEDATA or "")
        elif (tag := (row.NODENAME or "node").lower()) == skip and not started:
            skipped.add(row.rowid)
        else:
            writer.start(tag, decode_attributes(row.ATTRS))
            started.append(row.rowid)
    for _ in started:
        writer.end()


def compose_node(row: XmlRow, accessor: NodeAccessor) -> Element | Text:
    """Rebuild the DOM subtree rooted at ``row``."""
    [node] = _build([row] + accessor.subtree(row), Element("parent")).children
    return node.detach()


def document_rows(doc_id: int, accessor: NodeAccessor) -> list[XmlRow]:
    """Document ``doc_id``'s rows: one ROWID run in document order, its
    lowest address its root element and the rest exactly the root's
    subtree — ``XML.DOC_ID``'s postings say how many rows that must be.
    A whole read: the accessor publishes what it read."""
    rowids = accessor.lookup_rowids("DOC_ID", doc_id)
    rows = accessor.nodes(rowids[:1])
    if rows:
        rows += accessor.subtree(rows[0])
    accessor.publish()
    if (
        len(rows) != len(rowids) or not rows or rows[0].PARENTROWID is not None
        or accessor.is_text(rows[0])
    ):
        raise StoreError(
            f"document {doc_id}'s {len(rowids)} rows are not one root element "
            f"followed by its subtree"
        )
    return rows


def compose_document(doc_id: int, accessor: NodeAccessor, name: str = "") -> Document:
    """Rebuild the full DOM of document ``doc_id``."""
    [root] = _build(document_rows(doc_id, accessor), Element("document")).children
    return Document(root.detach(), name=name)


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
