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
"""

from __future__ import annotations

from repro.sgml.dom import Document, Element, Text
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import serialize
from repro.xslt.stylesheet import Stylesheet, compile_stylesheet


def transform(stylesheet: Stylesheet | str, source: Document) -> Document:
    """Apply ``stylesheet`` to ``source``; returns the result document."""
    if isinstance(stylesheet, str):
        stylesheet = compile_stylesheet(stylesheet)
    root = Element("output", synthetic=True)
    stylesheet.apply(source, 1, 1, source.root, root, 0)
    elements = [node for node in root.children if isinstance(node, Element)]
    if len(elements) == 1 and all(
        not isinstance(node, Text) or not node.data.strip()
        for node in root.children
    ):
        # One element and nothing else worth keeping: it is the document.
        root = elements[0]
        root.parent = None
    return Document(root, name="transformed.xml")


def transform_text(stylesheet_xml: str, source_xml: str) -> str:
    """Convenience: parse, transform, serialise — all in one call."""
    return serialize(transform(stylesheet_xml, parse_xml(source_xml)))
