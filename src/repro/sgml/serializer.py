"""XML output: one writer fed by ``start`` / ``text`` / ``end`` events.

:class:`XmlWriter` is the twin of :class:`~repro.sgml.dom.TreeWriter`,
which builds a DOM from the same events.  :meth:`XmlWriter.node` walks a
DOM subtree (:func:`serialize`, cached answers),
:func:`repro.store.compose.write_rows` writes stored rows,
:meth:`repro.query.results.SectionMatch.write` a match's ``<result>`` and
:func:`repro.xslt.processor.transform` a stylesheet run's events.  Output
is always well-formed XML (even when the input was sloppy HTML), so
anything NETMARK emits can be fed back through the strict parser — a
round-trip property the test suite checks.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.sgml.dom import Document, Node, TreeWriter


def escape_text(data: str) -> str:
    """Escape character data for XML output."""
    if "&" in data or "<" in data or ">" in data:  # most text has none
        return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return data


def escape_attribute(data: str) -> str:
    """Escape an attribute value for double-quoted XML output."""
    return escape_text(data).replace('"', "&quot;")


class XmlWriter:
    """Events to XML text.  ``indent=None`` is compact and preserves text
    exactly; an integer pretty-prints with that many spaces per level and
    drops whitespace-only text (for display, not round-tripping).  An
    element's open tag — pretty, its text too — waits for its first child
    element or its end: an empty element closes as ``<tag/>``, a
    text-only one goes on one line.  ``start``'s ``synthetic`` is for the tree sink."""

    def __init__(self, indent: int | None = None) -> None:
        self.parts: list[str] = []
        self._step = None if indent is None else " " * indent
        self._open: list[str] = []  # tags of the started, unended elements
        self._head: str | None = None  # the newest one's unwritten open tag
        self._texts: list[str] = []  # its text so far (pretty)

    def start(self, tag: str, attributes: Mapping[str, str] | None = None, synthetic=False) -> None:
        if self._head is not None:
            self._flush()
        self._head = "<" + tag + "".join(
            [f' {name}="{escape_attribute(value)}"' for name, value in attributes.items()]
        ) if attributes else "<" + tag
        self._open.append(tag)

    def text(self, data: str) -> None:
        if self._step is None:
            if self._head is not None:
                self._flush()
            self.parts.append(escape_text(data))
        elif self._head is not None:
            self._texts.append(data)
        elif stripped := data.strip():
            self.parts.append(f"{self._step * len(self._open)}{escape_text(stripped)}\n")

    def end(self) -> None:
        tag, head, step = self._open.pop(), self._head, self._step
        if step is None:
            self.parts.append(f"</{tag}>" if head is None else head + "/>")
        elif head is None:
            self.parts.append(f"{step * len(self._open)}</{tag}>\n")
        elif self._texts:
            text, self._texts = escape_text("".join(self._texts).strip()), []
            self.parts.append(f"{step * len(self._open)}{head}>{text}</{tag}>\n")
        else:
            self.parts.append(f"{step * len(self._open)}{head}/>\n")
        self._head = None

    def _flush(self) -> None:
        """Write the waiting open tag: its element has a child after all."""
        head, step, self._head = self._head, self._step, None
        if step is None:
            self.parts.append(head + ">")
            return
        pad = step * (len(self._open) - 1)
        self.parts.append(f"{pad}{head}>\n")
        for data in self._texts:
            if stripped := data.strip():
                self.parts.append(f"{pad}{step}{escape_text(stripped)}\n")
        self._texts.clear()

    node = TreeWriter.node

    def getvalue(self) -> str:
        return "".join(self.parts)


def serialize(node: Node | Document, indent: int | None = None) -> str:
    """Serialise a node or document to XML text (:class:`XmlWriter`)."""
    writer = XmlWriter(indent)
    writer.node(node.root if isinstance(node, Document) else node)
    return writer.getvalue()
