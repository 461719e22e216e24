"""Converter framework: turn any document format into context/content XML.

The paper: "We have developed parsers for a wide variety of document
formats (such as Word, PDF, HTML, Powerpoint and others) that
automatically structure and 'upmark' a document into XML based on the
formatting information in the document."

Every converter produces the same canonical shape (the paper's Fig between
2 and 3 sketches it)::

    <document>
      <section>
        <context>Abstract</context>
        <content> This paper describes an ... </content>
      </section>
      <section>
        <context>Data Storage and Management</context>
        <content> NETMARK is designed to ... </content>
      </section>
    </document>

``<section>`` wrappers are *synthetic* (the parser invented them), so they
classify as SIMULATION nodes; ``<context>`` headings classify as CONTEXT;
body text is TEXT.  Inline emphasis inside content is preserved as ``<b>``
elements (INTENSE).

Converters register themselves with the module-level :class:`ConverterRegistry`
keyed by file extension; :func:`convert` sniffs and dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ConverterError, UnsupportedFormatError
from repro.sgml.dom import Document, Element


@dataclass
class Section:
    """One upmarked section: a heading plus its body blocks.

    ``level`` is the heading depth (1 = top).  ``blocks`` holds paragraph
    strings; a block may embed emphasis using ``**text**`` spans, which the
    builder turns into INTENSE ``<b>`` elements.  ``title`` may be empty for
    leading untitled material — the builder then synthesises a context from
    the document name, mirroring how NETMARK never leaves content
    unreachable by context search.
    """

    title: str
    blocks: list[str] = field(default_factory=list)
    level: int = 1

    def add(self, block: str) -> None:
        block = block.strip()
        if block:
            self.blocks.append(block)


def _append_content_with_emphasis(content: Element, block: str) -> None:
    """Append ``block`` to ``content``, turning ``**span**`` into <b>."""
    remaining = block
    while True:
        start = remaining.find("**")
        if start == -1:
            break
        end = remaining.find("**", start + 2)
        if end == -1:
            break
        if start:
            content.append_text(remaining[:start])
        bold = content.make_child("b")
        bold.append_text(remaining[start + 2:end])
        remaining = remaining[end + 2:]
    if remaining:
        content.append_text(remaining)


def build_document(
    name: str,
    sections: Sequence[Section],
    metadata: dict[str, Any] | None = None,
) -> Document:
    """Assemble canonical context/content XML from upmarked sections."""
    root = Element("document")
    meta = dict(metadata or {})
    meta.setdefault("format", "unknown")
    for section in sections:
        if not section.blocks and not section.title:
            continue
        wrapper = root.make_child("section")
        wrapper.synthetic = True
        if section.level != 1:
            wrapper.attributes["level"] = str(section.level)
        context = wrapper.make_child("context")
        title = section.title.strip()
        if not title:
            # Untitled leading material: synthesise a context so the
            # content stays reachable by context search.
            title = Path(name).stem or "Untitled"
            context.synthetic = True
        context.append_text(title)
        for block in section.blocks:
            content = wrapper.make_child("content")
            _append_content_with_emphasis(content, block)
    if not root.children:
        wrapper = root.make_child("section")
        wrapper.synthetic = True
        context = wrapper.make_child("context")
        context.synthetic = True
        context.append_text(Path(name).stem or "Untitled")
    return Document(root, name=name, metadata=meta)


class Converter:
    """Base class for format converters.

    Subclasses set :attr:`format_name`, :attr:`extensions` and implement
    :meth:`upmark`, returning a list of :class:`Section`.  ``sniff`` may be
    overridden for content-based detection (used when the extension lies).
    """

    format_name: str = "unknown"
    extensions: tuple[str, ...] = ()
    #: Sniffing order: higher priorities are consulted first, so magic-
    #: header formats outrank heuristic ones and the plain-text fallback
    #: (priority 0) goes last.
    sniff_priority: int = 50

    def upmark(self, text: str, name: str) -> list[Section]:
        raise NotImplementedError

    def metadata(self, text: str, name: str) -> dict[str, Any]:
        """Facts recorded in the DOC table alongside the node rows."""
        return {
            "format": self.format_name,
            "char_size": len(text),
            "line_count": text.count("\n") + 1 if text else 0,
        }

    def sniff(self, text: str) -> bool:
        """Content-based detection; default never matches."""
        return False

    def convert(self, text: str, name: str) -> Document:
        """Upmark ``text`` and assemble the canonical document."""
        sections = self.upmark(text, name)
        return build_document(name, sections, self.metadata(text, name))


class ConverterRegistry:
    """Extension- and content-based dispatch over registered converters."""

    def __init__(self) -> None:
        self._by_extension: dict[str, Converter] = {}
        self._converters: list[Converter] = []

    def register(self, converter: Converter) -> Converter:
        for extension in converter.extensions:
            extension = extension.lower().lstrip(".")
            if extension in self._by_extension:
                raise ConverterError(
                    f"extension .{extension} already registered to "
                    f"{self._by_extension[extension].format_name}"
                )
            self._by_extension[extension] = converter
        self._converters.append(converter)
        return converter

    def unregister(self, converter: Converter) -> None:
        """Remove ``converter`` (no-op if absent) — test fixtures only."""
        for extension in converter.extensions:
            extension = extension.lower().lstrip(".")
            if self._by_extension.get(extension) is converter:
                del self._by_extension[extension]
        if converter in self._converters:
            self._converters.remove(converter)

    def for_name(self, name: str) -> Converter | None:
        extension = Path(name).suffix.lower().lstrip(".")
        return self._by_extension.get(extension)

    def resolve(self, name: str, text: str) -> Converter:
        """Pick a converter by extension, then by content sniffing."""
        converter = self.for_name(name)
        if converter is not None:
            return converter
        ranked = sorted(
            self._converters,
            key=lambda candidate: -candidate.sniff_priority,
        )
        for candidate in ranked:
            if candidate.sniff(text):
                return candidate
        raise UnsupportedFormatError(
            f"no converter for {name!r} (extension unknown, content "
            "not recognised)"
        )

    def formats(self) -> tuple[str, ...]:
        return tuple(converter.format_name for converter in self._converters)


#: The default registry; populated by the format modules at import time.
# repro: guarded-by(import-time) format modules register themselves on import; read-only afterwards
registry = ConverterRegistry()


def convert(text: str, name: str) -> Document:
    """Convert ``text`` (file content) named ``name`` via the registry."""
    return registry.resolve(name, text).convert(text, name)
