"""Tolerant SGML/HTML tree parser and strict XML parser.

This is the paper's "SGML parser" — the component that "decomposes the XML
(or even HTML) documents into its constituent nodes".  Two entry points:

* :func:`parse_html` — tolerant: case-insensitive tags, HTML void
  elements, auto-closing of ``<p>``/``<li>``/table tags, unclosed elements
  closed at end of input, mismatched end tags recovered by popping to the
  nearest open match (or dropped if none is open).
* :func:`parse_xml` — strict: raises :class:`~repro.errors.SgmlSyntaxError`
  on mismatched or unclosed tags, and requires a single root element.

Both return a :class:`~repro.sgml.dom.Document`.
"""

from __future__ import annotations

from repro.errors import SgmlSyntaxError
from repro.sgml.dom import Document, Element, Text
from repro.sgml.tokenizer import (
    CommentToken,
    DeclarationToken,
    EndTag,
    StartTag,
    TextToken,
    Tokenizer,
)

#: HTML elements that never have content.
VOID_ELEMENTS = frozenset(
    {"br", "hr", "img", "input", "meta", "link", "area", "base", "col",
     "embed", "source", "track", "wbr"}
)

#: When a start tag in the key set is seen while an element in the value
#: set is open, the open element is implicitly closed first (HTML optional
#: end tags).
_AUTO_CLOSE: dict[str, frozenset[str]] = {
    "p": frozenset({"p"}),
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "option": frozenset({"option"}),
    "h1": frozenset({"p"}),
    "h2": frozenset({"p"}),
    "h3": frozenset({"p"}),
    "h4": frozenset({"p"}),
    "h5": frozenset({"p"}),
    "h6": frozenset({"p"}),
}


def parse_html(markup: str, name: str = "") -> Document:
    """Parse possibly-sloppy HTML/SGML into a Document; never raises."""
    return _parse(markup, name=name, strict=False)


def parse_xml(markup: str, name: str = "") -> Document:
    """Parse well-formed XML; raises SgmlSyntaxError on structure errors."""
    return _parse(markup, name=name, strict=True)


def _parse(markup: str, name: str, strict: bool) -> Document:
    # A virtual root collects everything; we unwrap it at the end.
    virtual_root = Element("#root")
    stack: list[Element] = [virtual_root]
    saw_root_element = False

    for token in Tokenizer(markup, strict=strict).tokens():
        top = stack[-1]
        if isinstance(token, TextToken):
            if token.data:
                if strict and top is virtual_root and token.data.strip():
                    raise SgmlSyntaxError(
                        "character data outside the root element", token.line
                    )
                if token.data.strip() or top is not virtual_root:
                    top.append(Text(token.data))
        elif isinstance(token, StartTag):
            if strict and top is virtual_root and saw_root_element:
                raise SgmlSyntaxError(
                    f"multiple root elements (<{token.name}>)", token.line
                )
            if not strict:
                _auto_close(stack, token.name)
                top = stack[-1]
            element = Element(token.name, token.attributes)
            top.append(element)
            if top is virtual_root:
                saw_root_element = True
            is_void = not strict and token.name in VOID_ELEMENTS
            if not token.self_closing and not is_void:
                stack.append(element)
        elif isinstance(token, EndTag):
            _close(stack, token, strict)
        elif isinstance(token, (CommentToken, DeclarationToken)):
            continue

    if len(stack) > 1:
        if strict:
            raise SgmlSyntaxError(
                f"unclosed element <{stack[-1].tag}> at end of input"
            )
        # Tolerant mode: everything still open is closed at EOF.
        del stack[1:]

    children = virtual_root.child_elements()
    if strict and len(children) != 1:
        raise SgmlSyntaxError(
            f"expected exactly one root element, found {len(children)}"
        )
    # Only text that is not whitespace was kept beside a top element.
    if len(children) == len(virtual_root.children) == 1:
        root = children[0]
        root.detach()
    else:
        # Fragment input: wrap in a synthetic root so callers always get
        # a single tree.
        virtual_root.tag = "fragment"
        virtual_root.synthetic = True
        root = virtual_root
    return Document(root, name=name)


def _auto_close(stack: list[Element], incoming: str) -> None:
    closes = _AUTO_CLOSE.get(incoming)
    if closes is None:
        return
    # Only close the innermost matching element; HTML recovery is local.
    if len(stack) > 1 and stack[-1].tag in closes:
        stack.pop()


def _close(stack: list[Element], token: EndTag, strict: bool) -> None:
    if strict:
        if len(stack) < 2 or stack[-1].tag != token.name:
            open_tag = stack[-1].tag if len(stack) > 1 else None
            raise SgmlSyntaxError(
                f"mismatched end tag </{token.name}>"
                + (f" (open element is <{open_tag}>)" if open_tag else ""),
                token.line,
            )
        stack.pop()
        return
    # Tolerant: pop to the nearest matching open element; ignore if none.
    for depth in range(len(stack) - 1, 0, -1):
        if stack[depth].tag == token.name:
            del stack[depth:]
            return
