"""Document reconstruction: XML-table rows -> XML events.

The inverse of :mod:`repro.store.decompose`.  :func:`write_rows` writes a
run of rows as events: into an :class:`~repro.sgml.serializer.XmlWriter`
(HTTP's stored documents, fresh section matches) or a
:class:`~repro.sgml.dom.TreeWriter` (:func:`tree_of`, the ``compose_*``
DOM for the facade, where a SIMULATION row's element is ``synthetic``).

All row access funnels through a :class:`~repro.store.accessor.NodeAccessor`:
a node, a section or a whole document is one forward read of the rows
stored after its first (:meth:`NodeAccessor.run`), in document order,
as of the accessor's commit LSN.

The decompose→compose round trip preserves structure, attributes, text
and node order exactly; the property-based tests drive random trees
through it.
"""

from __future__ import annotations

from repro.ordbms import RowId
from repro.sgml.dom import Document, Element, Node, Text, TreeWriter
from repro.sgml.nodetypes import NodeType
from repro.sgml.serializer import XmlWriter
from repro.store.accessor import NodeAccessor
from repro.store.schema import XmlRow, decode_attributes


_TEXT, _SIMULATION = int(NodeType.TEXT), int(NodeType.SIMULATION)


def write_rows(rows: list[XmlRow], writer: XmlWriter | TreeWriter, skip: str = "") -> None:
    """Write a forward-read run, head first, as events.  A row whose parent
    is not in the run — the head, and the siblings a section run admits
    after it — is a top node; a top element tagged ``skip`` is left out
    with its subtree."""
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
            writer.start(tag, decode_attributes(row.ATTRS), row.NODETYPE == _SIMULATION)
            started.append(row.rowid)
    for _ in started:
        writer.end()


def tree_of(rows: list[XmlRow], wrapper: str = "") -> Node:
    """A forward-read run's first top node as DOM — the whole run, under a
    synthetic ``wrapper`` element if one is named."""
    sink = TreeWriter()
    if wrapper:
        sink.start(wrapper, None, True)
    write_rows(rows, sink)
    return sink.roots[0]


def compose_node(row: XmlRow, accessor: NodeAccessor) -> Element | Text:
    """Rebuild the DOM subtree rooted at ``row``."""
    return tree_of(accessor.run(row))


def compose_document(doc_id: int, accessor: NodeAccessor, name: str = "") -> Document:
    """Rebuild the full DOM of document ``doc_id``."""
    return Document(tree_of(accessor.document(doc_id)), name=name)


def compose_section(context_row: XmlRow, accessor: NodeAccessor) -> Element:
    """Rebuild one section as ``<section><context>…</context>…</section>``.

    The section element is synthetic — it represents the *query result*
    shape, not necessarily a stored element.  Content is every sibling
    subtree up to the next context, reconstructed in full.
    """
    return tree_of(accessor.run(context_row, siblings=True), "section")
