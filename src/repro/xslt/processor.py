"""The XSLT-lite processor (the Xalan stand-in of paper Fig 7).

:func:`transform` runs a compiled stylesheet over a source document —
what to do was decided by :func:`~repro.xslt.stylesheet.compile_stylesheet`;
running it parses nothing.  Semantics follow XSLT 1.0 on the subset:

* processing starts by applying templates to the document root;
* built-in rules: document/element → apply templates to children,
  text → copy the text;
* within a template, literal elements are copied (with attribute value
  templates evaluated), ``xsl:*`` instructions execute, and everything
  else recurses.

The run builds no result tree: its ops record events, the root is picked
from the top level, and the events are replayed once, into a request's
:class:`~repro.sgml.serializer.XmlWriter` or, for a caller that wants a
document, into a :class:`~repro.sgml.dom.TreeWriter`.
"""

from __future__ import annotations

from repro.sgml.dom import Document, TreeWriter
from repro.sgml.serializer import XmlWriter
from repro.xslt.stylesheet import Events, Stylesheet, compile_stylesheet

_OUTPUT = ("output", {})  # the synthetic root around any other output


def transform(
    stylesheet: Stylesheet | str, source: Document,
    writer: XmlWriter | None = None, stamps: dict[str, str] | None = None,
) -> Document | None:
    """Apply ``stylesheet`` to ``source``: into ``writer`` — the root's
    attributes followed by ``stamps``, the root left open for the
    writer's footer — or, with none, into the document returned."""
    if isinstance(stylesheet, str):
        stylesheet = compile_stylesheet(stylesheet)
    events: Events = []
    stylesheet.apply(source, 1, 1, source.root, events, 0)
    (tag, attributes), inside = _root(events)
    synthetic = inside is events  # the <output> around the whole run
    sink = TreeWriter() if writer is None else writer
    sink.start(tag, attributes | stamps if stamps else attributes, synthetic)
    for event in inside:
        if event is None:
            sink.end()
        elif event.__class__ is str:
            sink.text(event)
        else:
            sink.start(*event)
    if writer is not None:
        return None
    return Document(sink.roots[0], name="transformed.xml")


def _root(events: Events) -> tuple[tuple[str, dict[str, str]], Events]:
    """The root's start event and the events inside it: the one top-level
    element if only whitespace text stands beside it, else ``<output>``."""
    depth, tops, end = 0, [], 0
    for at, event in enumerate(events):
        if event is None:
            depth, end = depth - 1, at
        elif event.__class__ is not str:
            if not depth:
                tops.append(at)
            depth += 1
        elif not depth and event.strip():
            return _OUTPUT, events
    if len(tops) != 1:
        return _OUTPUT, events
    return events[tops[0]], events[tops[0] + 1 : end]
