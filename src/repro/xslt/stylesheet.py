"""The XSLT stylesheet compiler.

A stylesheet is parsed from XML (namespace prefix ``xsl:`` is treated
literally — the subset does not implement namespace resolution) and
*lowered* into a :class:`Stylesheet` whose template bodies are tuples of
closures.  What depends only on the sheet is decided here, once: every
``select``, ``test``, sort key and attribute value template is compiled,
instruction names resolved, ``xsl:sort``/``xsl:attribute`` children set
apart, indentation-only text dropped, templates ranked and indexed by
the name they match.  So whatever a sheet can get wrong statically is
refused here, before it is installed, and a transform pays only for
what depends on its source document.

Supported instruction vocabulary (what Fig 7 composition needs):

``xsl:template match=…``, ``xsl:value-of select=…``,
``xsl:apply-templates [select=…]``, ``xsl:for-each select=…``,
``xsl:if test=…``, ``xsl:choose``/``xsl:when``/``xsl:otherwise``,
``xsl:text``, ``xsl:element name=…``, ``xsl:attribute name=…``,
``xsl:copy-of select=…``, ``xsl:sort select=… [order=…]``,
and literal result elements with ``{expr}`` attribute value templates.

Match patterns are a subset: ``/``, ``name``, ``a/b`` (suffix paths),
``*`` and ``text()``.  Priorities follow XSLT's defaults: longer/explicit
patterns beat ``*`` beats built-ins.

A compiled sheet holds no per-run state — the source root travels in the
:class:`~repro.xslt.xpath.XPathContext`, the nesting depth as an
argument — so one :class:`Stylesheet` serves every worker thread at once.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.errors import SgmlSyntaxError, XsltError
from repro.sgml.dom import Document, Element, Node, Text
from repro.sgml.parser import parse_xml
from repro.xslt.xpath import (
    Evaluator,
    PathExpr,
    XPathContext,
    children_of,
    compile_xpath,
    parent_of,
    parse_xpath,
    require_node_set,
    to_string,
)

XSL_PREFIX = "xsl:"

#: How many ops and templates may be open at once.  The lowering refuses
#: a sheet nested deeper, :meth:`Stylesheet.apply` a template applied
#: deeper (so a run stays under twice the bound).  Each level costs an
#: interpreter frame or two: this is what answers a template that
#: re-applies itself with an :class:`XsltError`, not a ``RecursionError``.
MAX_DEPTH = 200

_NAME_RE = re.compile(r"[A-Za-z_][-A-Za-z0-9_.:]*")  # the SGML tokenizer's rule
_AVT_RE = re.compile(r"\{([^}]*)\}")

#: A lowered instruction ``op(context, parent, depth)``: appends its output
#: under ``parent``; ``depth`` counts the ops and templates open above it.
Op = Callable[[XPathContext, Element, int], None]
_Body = tuple[Op, ...]


@dataclass(frozen=True)
class MatchPattern:
    """A template match pattern."""

    source: str
    segments: tuple[str, ...]  # path segments, last one is the target
    is_root: bool = False

    @property
    def target(self) -> str:
        """The test on the node itself: a name, ``*``, ``text()`` or ``/``."""
        return "/" if self.is_root else self.segments[-1]

    @property
    def priority(self) -> tuple[int, int]:
        """(specificity, length): used to pick among matching templates."""
        specificity = {"/": 3, "text()": 1, "*": 0}.get(self.target, 2)
        return (specificity, max(1, len(self.segments)))

    def matches(self, node: Node | Document, root: Element | None = None) -> bool:
        return self._test_matches(self.target, node) and self.ancestors_match(node, root)

    def ancestors_match(self, node: Node | Document, root: Element | None = None) -> bool:
        """Whether the segments before the last match successive ancestors."""
        for segment in self.segments[-2::-1]:
            node = parent_of(node, root)
            if node is None or not self._test_matches(segment, node):
                return False
        return True

    @staticmethod
    def _test_matches(test: str, node: Node | Document) -> bool:
        if test in {"text()", "/"}:
            return isinstance(node, Text if test == "text()" else Document)
        return isinstance(node, Element) and (test == "*" or node.tag == test)


def parse_pattern(source: str) -> MatchPattern:
    source = source.strip()  # ``/``, or a path of plain child steps
    path = parse_xpath(source if source == "/" else source.lstrip("/"))
    if not isinstance(path, PathExpr) or any(
        step.axis != "child" or step.predicates for step in path.steps
    ):
        raise XsltError(f"unsupported match pattern {source!r}")
    segments = tuple(step.test for step in path.steps)
    return MatchPattern(source, segments, is_root=not segments)


@dataclass(frozen=True)
class Template:
    """One ``xsl:template`` rule, its body lowered to ops."""

    pattern: MatchPattern
    body: _Body
    order: int  # document order; later templates win ties (XSLT recovery)


@dataclass(frozen=True)
class Stylesheet:
    """A compiled stylesheet: immutable, shared across threads."""

    #: The templates that can match a node, best ``(priority, order)``
    #: first, keyed by their pattern's target: an element name (the ``*``
    #: templates already merged in), ``"*"``, ``"text()"`` or ``"/"``.
    ranked: Mapping[str, tuple[Template, ...]]

    def best_template(
        self, node: Node | Document, root: Element | None = None
    ) -> Template | None:
        """Highest-priority template matching ``node`` (None = built-ins)."""
        ranked = self.ranked
        if isinstance(node, Element):
            candidates = ranked.get(node.tag) or ranked["*"]
        else:
            candidates = ranked["text()" if isinstance(node, Text) else "/"]
        for template in candidates:
            if template.pattern.ancestors_match(node, root):
                return template
        return None

    def apply(
        self, node: Node | Document, position: int, size: int,
        root: Element, parent: Element, depth: int,
    ) -> None:
        """Run the best template for ``node`` — or the built-in rule
        (text is copied, anything else recurses into its children) —
        appending the output under ``parent``."""
        if depth > MAX_DEPTH:  # most likely a template that applies itself
            raise XsltError(f"templates nest deeper than {MAX_DEPTH} levels")
        template = self.best_template(node, root)
        if template is not None:
            _run(template.body, node, position, size, root, parent, depth + 1)
        elif isinstance(node, Text):
            parent.append(Text(node.data))
        else:
            children = children_of(node)
            size = len(children)
            for position, child in enumerate(children, start=1):
                self.apply(child, position, size, root, parent, depth + 1)


def _run(
    body: _Body, node: Any, position: int, size: int,
    root: Element | None, parent: Element, depth: int,
) -> None:
    """Run a template's or a ``for-each``'s body with ``node`` as context."""
    context = XPathContext(node, position, size, root)
    for op in body:
        op(context, parent, depth + 1)


def compile_stylesheet(markup: str | Document) -> Stylesheet:
    """Parse, validate and lower stylesheet XML into a :class:`Stylesheet`.

    Text is compiled once and memoized (a parsed :class:`Document` is
    lowered afresh on every call).  Raises :class:`XsltError` for *any*
    bad sheet — malformed XML included — so callers (the HTTP stylesheet
    installer) see one error vocabulary; a failure is not memoized.
    """
    if isinstance(markup, Document):
        return _lower_stylesheet(markup.root)
    return _compile_text(markup)


@functools.lru_cache(maxsize=16)  # a node serves a handful of sheets
def _compile_text(markup: str) -> Stylesheet:
    """The memo.  A compiled sheet is a pure function of its text, so the
    text is the key: a PUT of new text is a new key, nothing is ever
    invalidated, and the (thread-safe) bound is what reclaims."""
    try:
        root = parse_xml(markup).root
    except SgmlSyntaxError as error:
        raise XsltError(f"stylesheet is not well-formed XML: {error}") from error
    return _lower_stylesheet(root)


def _lower_stylesheet(root: Element) -> Stylesheet:
    if root.tag not in {f"{XSL_PREFIX}stylesheet", f"{XSL_PREFIX}transform"}:
        raise XsltError(f"stylesheet root must be <xsl:stylesheet>, got <{root.tag}>")
    # Ops call back into the sheet they belong to, so the sheet exists
    # first and its index is filled in once every body is lowered.
    index: dict[str, tuple[Template, ...]] = {}
    stylesheet = Stylesheet(MappingProxyType(index))
    lowering = _Lowering(stylesheet.apply)
    templates: list[Template] = []
    for child in root.children:
        if isinstance(child, Text):
            if child.data.strip():
                raise XsltError("text at stylesheet top level")
        elif child.tag == f"{XSL_PREFIX}template":
            pattern = parse_pattern(_required(child, "match"))
            body = lowering.body(child.children, 1)
            templates.append(Template(pattern, body, len(templates)))
        elif child.tag != f"{XSL_PREFIX}output":  # accepted and ignored
            raise XsltError(f"unsupported top-level element <{child.tag}>")
    templates.sort(key=lambda t: (t.pattern.priority, t.order), reverse=True)
    for key in {"*", "text()", "/"}.union(t.pattern.target for t in templates):
        # A ``*`` template is a candidate for every element name too.
        accepted = {key} if key in {"text()", "/"} else {key, "*"}
        index[key] = tuple(t for t in templates if t.pattern.target in accepted)
    return stylesheet


def _expression(source: str) -> Evaluator:
    return compile_xpath(parse_xpath(source))


def _node_set(source: str) -> Evaluator:
    return compile_xpath(require_node_set(parse_xpath(source), source))


def _required(node: Element, attribute: str) -> str:
    value = node.get(attribute)
    if not value:
        raise XsltError(f"<{node.tag}> requires a {attribute} attribute")
    return value


def _is_instruction(node: Node, name: str) -> bool:
    return isinstance(node, Element) and node.tag == XSL_PREFIX + name


def compile_avt(template_text: str) -> str | Evaluator:
    """Compile an attribute value template: literal text + {expr} parts.

    A template without ``{expr}`` folds to its own text; any other
    becomes a closure from the context to the rendered string.
    """
    pieces = _AVT_RE.split(template_text)  # literal, expr, literal, … literal
    if any("{" in literal for literal in pieces[::2]):
        raise XsltError(f"unterminated {{ in attribute template {template_text!r}")
    if len(pieces) == 1:
        return template_text
    parts = [_expression(piece) if at % 2 else piece for at, piece in enumerate(pieces)]
    return lambda context: "".join(
        [part if isinstance(part, str) else to_string(part(context)) for part in parts]
    )


def _compile_name(node: Element) -> str | Evaluator:
    """The ``name`` AVT of ``xsl:element``/``xsl:attribute``, checked:
    a constant at compile time, a computed one each time it is rendered."""
    tag, name = node.tag, compile_avt(_required(node, "name"))  # not ``node``: ops outlive the DOM
    if isinstance(name, str):
        return _checked_name(tag, name)
    return lambda context: _checked_name(tag, name(context))


def _checked_name(tag: str, name: str) -> str:
    if not _NAME_RE.fullmatch(name):
        raise XsltError(f"<{tag}> name {name!r} is not a name")
    return name


class _Lowering:
    """Lowers template bodies to ops; one per stylesheet.  Each
    ``_lower_<instruction>(element, depth)`` returns that instruction's op."""

    #: Instructions that can stand in a body; the rest of the vocabulary
    #: (``sort``, ``attribute``, ``when``…) is part of another's syntax.
    _INSTRUCTIONS = (
        "value-of", "text", "copy-of", "if", "choose", "for-each",
        "apply-templates", "element",
    )

    def __init__(self, apply: Callable[..., None]) -> None:
        self._apply = apply

    def body(self, nodes: list[Node], depth: int) -> _Body:
        if depth > MAX_DEPTH:
            raise XsltError(f"stylesheet nests deeper than {MAX_DEPTH} levels")
        ops: list[Op] = []
        for node in nodes:
            if isinstance(node, Text):
                if node.data.strip():  # else: the sheet's own indentation
                    ops.append(_emit_text(node.data))
            elif not node.tag.startswith(XSL_PREFIX):
                ops.append(
                    self._constructed(node.tag, node.attributes, node.children, depth)
                )
            else:  # instruction names are resolved here, once per sheet node
                name = node.tag[len(XSL_PREFIX):]
                if name not in self._INSTRUCTIONS:
                    raise XsltError(f"unsupported instruction <{node.tag}> here")
                lower = getattr(self, "_lower_" + name.replace("-", "_"))
                ops.append(lower(node, depth))
        return tuple(ops)

    def _lower_value_of(self, node: Element, depth: int) -> Op:
        value = _expression(_required(node, "select"))

        def value_of(context: XPathContext, parent: Element, depth: int) -> None:
            text = to_string(value(context))
            if text:
                parent.append(Text(text))

        return value_of

    def _lower_text(self, node: Element, depth: int) -> Op:
        if not all(isinstance(child, Text) for child in node.children):
            raise XsltError("<xsl:text> may contain only text")
        return _emit_text(node.text_content())

    def _lower_copy_of(self, node: Element, depth: int) -> Op:
        select = _node_set(_required(node, "select"))

        def copy_of(context: XPathContext, parent: Element, depth: int) -> None:
            for item in select(context):
                if isinstance(item, Document):
                    item = item.root
                parent.append(Text(item) if isinstance(item, str) else item.clone())

        return copy_of

    def _lower_if(self, node: Element, depth: int) -> Op:
        test = _expression(_required(node, "test"))
        return _choose(((test, self.body(node.children, depth + 1)),), ())

    def _lower_choose(self, node: Element, depth: int) -> Op:
        branches: list[tuple[Evaluator, _Body]] = []
        otherwise: _Body = ()
        for child in node.child_elements():
            if child.tag == f"{XSL_PREFIX}when":
                test = _expression(_required(child, "test"))
                branches.append((test, self.body(child.children, depth + 1)))
            elif child.tag == f"{XSL_PREFIX}otherwise":
                otherwise = self.body(child.children, depth + 1)
            else:
                raise XsltError(f"unexpected <{child.tag}> inside <xsl:choose>")
        return _choose(tuple(branches), otherwise)

    def _lower_for_each(self, node: Element, depth: int) -> Op:
        select = _sorted_selection(node, _node_set(_required(node, "select")))
        body = self.body(
            [child for child in node.children if not _is_instruction(child, "sort")],
            depth + 1,
        )
        return _for_each_selected(select, functools.partial(_run, body))

    def _lower_apply_templates(self, node: Element, depth: int) -> Op:
        source = node.get("select")
        select: Evaluator = (
            _node_set(source) if source else lambda context: children_of(context.node)
        )
        return _for_each_selected(_sorted_selection(node, select), self._apply)

    def _lower_element(self, node: Element, depth: int) -> Op:
        return self._constructed(_compile_name(node), {}, node.children, depth)

    def _constructed(
        self, name: str | Evaluator, literal_attributes: dict[str, str],
        children: list[Node], depth: int,
    ) -> Op:
        """A literal result element or ``xsl:element``: attribute value
        templates compiled, ``xsl:attribute`` children set apart."""
        literal = [(key, compile_avt(value)) for key, value in literal_attributes.items()]
        attribute_children: list[tuple[str | Evaluator, _Body]] = []
        content_nodes: list[Node] = []
        for child in children:
            if _is_instruction(child, "attribute"):
                attribute_children.append(
                    (_compile_name(child), self.body(child.children, depth + 1))
                )
            else:
                content_nodes.append(child)
        content = self.body(content_nodes, depth + 1)

        def construct(context: XPathContext, parent: Element, depth: int) -> None:
            element = Element(name if isinstance(name, str) else name(context))
            attributes = element.attributes
            for key, value in literal:
                attributes[key] = value if isinstance(value, str) else value(context)
            for key, body in attribute_children:
                holder = Element("attribute")
                for op in body:
                    op(context, holder, depth + 1)
                attributes[key if isinstance(key, str) else key(context)] = (
                    holder.text_content()
                )
            parent.append(element)
            for op in content:
                op(context, element, depth + 1)

        return construct


def _emit_text(data: str) -> Op:
    def emit_text(context: XPathContext, parent: Element, depth: int) -> None:
        parent.append(Text(data))

    return emit_text


def _choose(branches: tuple[tuple[Evaluator, _Body], ...], otherwise: _Body) -> Op:
    """Run the body of the first branch whose test holds, or ``otherwise``."""

    def choose(context: XPathContext, parent: Element, depth: int) -> None:
        for test, body in branches:
            if test(context):
                break
        else:
            body = otherwise
        for op in body:
            op(context, parent, depth + 1)

    return choose


def _for_each_selected(select: Evaluator, visit: Callable[..., None]) -> Op:
    """``for-each`` and ``apply-templates``: ``visit`` each selected node
    with its position; an attribute value is copied as text."""

    def for_each(context: XPathContext, parent: Element, depth: int) -> None:
        items = select(context)
        size = len(items)
        root = context.root
        for position, item in enumerate(items, start=1):
            if isinstance(item, str):
                parent.append(Text(item))
            else:
                visit(item, position, size, root, parent, depth + 1)

    return for_each


def _sorted_selection(node: Element, select: Evaluator) -> Evaluator:
    """``select`` reordered by ``node``'s first ``xsl:sort`` child, if any."""
    spec = next(
        (child for child in node.children if _is_instruction(child, "sort")), None
    )
    if spec is None:
        return select
    key = _expression(spec.get("select", "."))
    descending = spec.get("order", "ascending") == "descending"
    numeric = spec.get("data-type", "text") == "number"

    def select_sorted(context: XPathContext) -> list[Any]:
        items = select(context)
        size = len(items)
        keys: list[Any] = [
            item
            if isinstance(item, str)
            else to_string(key(XPathContext(item, position, size, context.root)))
            for position, item in enumerate(items, start=1)
        ]
        if numeric:
            keys = [_number(text) for text in keys]
        order = sorted(range(size), key=keys.__getitem__, reverse=descending)
        return [items[index] for index in order]

    return select_sorted


def _number(text: str) -> float:
    """A numeric sort key; what is not a number sorts last."""
    try:
        return float(text)
    except ValueError:
        return float("inf")
