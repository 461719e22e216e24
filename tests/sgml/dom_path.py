"""The DOM path the streamed render replaced, kept as the reference.

A fresh section match used to become bytes in three steps: its rows were
hung together as DOM nodes (``_build``, from ``repro.store.compose``),
its ``<result>`` was assembled around them (``SectionMatch.element``),
and the ``<results>`` tree was walked by the one-pass serializer
(``_pretty`` / ``_compact``, from ``repro.sgml.serializer``), with the
``<trace>`` footer built as DOM (``repro.server.http``).  Each is
moved here as it was (the ``tests/sgml/oracle.py`` precedent); the
streamed render — :meth:`repro.query.results.ResultSet.write` feeding
:class:`repro.sgml.serializer.XmlWriter` — is held to it byte for byte.
"""

from __future__ import annotations

from typing import Callable

from repro.obs import Span
from repro.ordbms import RowId
from repro.query.plan import SectionResolver
from repro.query.results import ResultSet, SectionMatch
from repro.sgml.dom import Document, Element, Node, Text
from repro.sgml.nodetypes import NodeType
from repro.store.schema import XmlRow, decode_attributes

from tests.sgml.oracle import escape_attribute, escape_text


def build(rows: list[XmlRow], beside: Element) -> Element:
    """Hang the DOM node of each row under its parent's; returns ``beside``."""
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


def result_element(match: SectionMatch) -> Element:
    """A match's ``<result>``: a fresh section match's rebuilt from its
    rows by :func:`build`; a document-level one's from its strings; any
    other match's is the element it already owns."""
    loader = match._loader
    fresh = match._element is None and isinstance(loader, SectionResolver)
    if match._section is not None and not fresh:
        return match.element
    result = Element("result", {"doc": match.file_name, "source": match.source})
    result.make_child("context").append_text(match.context)
    if match._section is None:
        result.make_child("content").append_text(match.content)
        return result
    rows = loader._run()  # the section's rows, read or kept by the loader
    section = build(rows, Element("section", synthetic=True))
    for child in list(section.children):
        if not (isinstance(child, Element) and child.tag == "context"):
            result.append(child)
    return result


def results_document(
    results: ResultSet, stamps: dict[str, str], trailer: list[Element]
) -> Document:
    """``ResultSet.to_xml`` with each match's :func:`result_element`, the
    HTTP envelope's stamps set on the root and its trailer appended."""
    root = Element("results", {"query": results.query_string})
    if results.partial or results.deadline_expired:
        root.attributes["partial"] = "true"
        envelope = root.make_child("partial")
        if results.deadline_expired:
            envelope.make_child("deadline-expired").append_text(
                "deadline expired; results are a truncated prefix"
            )
        for name in sorted(results.source_errors):
            unreachable = envelope.make_child("unreachable", source=name)
            unreachable.append_text(results.source_errors[name])
    root.children.extend([result_element(match) for match in results.matches])
    root.attributes.update(stamps)
    root.children.extend(trailer)
    return Document(root)


def trace_element(span: Span) -> Element:
    """One span tree as the ``<trace>`` element HTTP appended."""
    element = Element("trace")
    element.append(_span_element(span))
    return element


def _span_element(span: Span) -> Element:
    attributes = {
        "name": span.name,
        "start": str(span.start_tick),
        "ticks": str(span.ticks),
    }
    for key in sorted(span.attrs):
        attributes[key] = str(span.attrs[key])
    element = Element("span", attributes)
    for child in span.children:
        element.append(_span_element(child))
    return element


def serialize(node: Node | Document, indent: int | None = None) -> str:
    if isinstance(node, Document):
        node = node.root
    parts: list[str] = []
    if indent is None:
        _compact(node, parts.append)
    else:
        _pretty(node, parts.append, "", " " * indent)
    return "".join(parts)


def _open_tag(node: Element) -> str:
    if not node.attributes:
        return "<" + node.tag
    return f"<{node.tag}" + "".join(
        [f' {name}="{escape_attribute(value)}"' for name, value in node.attributes.items()]
    )


def _compact(node: Node, emit: Callable[[str], None]) -> None:
    if isinstance(node, Text):
        emit(escape_text(node.data))
    elif not node.children:
        emit(_open_tag(node) + "/>")
    else:
        emit(_open_tag(node) + ">")
        for child in node.children:
            _compact(child, emit)
        emit(f"</{node.tag}>")


def _pretty(node: Node, emit: Callable[[str], None], pad: str, step: str) -> None:
    if isinstance(node, Text):
        stripped = node.data.strip()
        if stripped:
            emit(f"{pad}{escape_text(stripped)}\n")
        return
    head, children = pad + _open_tag(node), node.children
    text = [child.data for child in children if isinstance(child, Text)]
    if not children:
        emit(head + "/>\n")
    elif len(text) == len(children):
        emit(f"{head}>{escape_text(''.join(text).strip())}</{node.tag}>\n")
    else:
        emit(head + ">\n")
        inner = pad + step
        for child in children:
            _pretty(child, emit, inner, step)
        emit(f"{pad}</{node.tag}>\n")
