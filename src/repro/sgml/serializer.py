"""DOM-to-XML serialization.

The store reconstructs documents and query results by serialising DOM
subtrees back to XML text; the XSLT processor serialises result trees the
same way.  Output is always well-formed XML (even when the input was
sloppy HTML), so anything NETMARK emits can be fed back through the strict
parser — a round-trip property the test suite checks.
"""

from __future__ import annotations

from typing import Callable

from repro.sgml.dom import Document, Element, Node, Text


def escape_text(data: str) -> str:
    """Escape character data for XML output."""
    if "&" in data or "<" in data or ">" in data:  # most text has none
        return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return data


def escape_attribute(data: str) -> str:
    """Escape an attribute value for double-quoted XML output."""
    return escape_text(data).replace('"', "&quot;")


def serialize(node: Node | Document, indent: int | None = None) -> str:
    """Serialise a node or document to XML text.

    ``indent=None`` produces compact output that preserves text exactly;
    an integer produces pretty-printed output with that many spaces per
    level (whitespace-only text nodes are dropped, so pretty mode is for
    human display, not round-tripping).  Either mode visits a node once.
    """
    if isinstance(node, Document):
        node = node.root
    parts: list[str] = []
    if indent is None:
        _compact(node, parts.append)
    else:
        _pretty(node, parts.append, "", " " * indent)
    return "".join(parts)


def _open_tag(node: Element) -> str:
    """``<tag name="value"…`` — up to, not including, the closing bracket."""
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
    """``pad`` is this node's indentation, ``step`` one more level of it."""
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
        # Text only: one line keeps pretty-printed context/content readable.
        emit(f"{head}>{escape_text(''.join(text).strip())}</{node.tag}>\n")
    else:
        emit(head + ">\n")
        inner = pad + step
        for child in children:
            _pretty(child, emit, inner, step)
        emit(f"{pad}</{node.tag}>\n")
