"""The serializer :mod:`repro.sgml.serializer` replaced, kept as the reference.

``_serialize_node`` is the recursive walk the one-pass serializer took
over from, moved here verbatim with the two escapes it called (the ``tests/xslt/oracle.py`` precedent: a
reference implementation tests compare against).  It re-derives the pad
per node and re-walks text-only elements; the output is the contract.
"""

from __future__ import annotations

from repro.sgml.dom import Document, Element, Node, Text


def escape_text(data: str) -> str:
    return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(data: str) -> str:
    return escape_text(data).replace('"', "&quot;")


def serialize(node: Node | Document, indent: int | None = None) -> str:
    if isinstance(node, Document):
        node = node.root
    parts: list[str] = []
    _serialize_node(node, parts, indent, 0)
    return "".join(parts)


def _serialize_node(
    node: Node, parts: list[str], indent: int | None, depth: int
) -> None:
    pad = "" if indent is None else " " * (indent * depth)
    newline = "" if indent is None else "\n"
    if isinstance(node, Text):
        if indent is not None:
            stripped = node.data.strip()
            if not stripped:
                return
            parts.append(f"{pad}{escape_text(stripped)}{newline}")
        else:
            parts.append(escape_text(node.data))
        return
    assert isinstance(node, Element)
    attributes = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in node.attributes.items()
    )
    if not node.children:
        parts.append(f"{pad}<{node.tag}{attributes}/>{newline}")
        return
    # Compact form for elements holding a single text child keeps
    # pretty-printed context/content output readable.
    only_text = all(isinstance(child, Text) for child in node.children)
    if indent is not None and only_text:
        text = escape_text(node.text_content().strip())
        parts.append(f"{pad}<{node.tag}{attributes}>{text}</{node.tag}>{newline}")
        return
    parts.append(f"{pad}<{node.tag}{attributes}>{newline}")
    for child in node.children:
        _serialize_node(child, parts, indent, depth + 1)
    parts.append(f"{pad}</{node.tag}>{newline}")
