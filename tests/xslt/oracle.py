"""The tree-walking XSLT interpreter, kept as the compiled path's oracle.

Until the compose-path rewrite this *was* ``repro.xslt``: ``_Processor``
walked the stylesheet DOM at every source node and ``evaluate`` walked
the XPath AST through an ``isinstance`` ladder, re-parsing every
``select``/``test``/AVT it met.  It is slow and obviously right, which is
what a reference should be.  It shares only the *syntax* with the
shipped code — ``parse_xml``, ``parse_xpath`` and its AST,
``parse_pattern`` — and the value conversions; dispatch, instruction
semantics, step evaluation, predicates, functions and comparisons are
its own.

:func:`transform` takes the stylesheet as text and raises whatever the
old interpreter raised, when it raised it (at run time, when the
instruction is reached).
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import XPathError, XsltError
from repro.sgml.dom import Document, Element, Node, Text
from repro.sgml.parser import parse_xml
from repro.xslt.stylesheet import MatchPattern, parse_pattern
from repro.xslt.xpath import (
    BoolExpr,
    CompareExpr,
    FunctionExpr,
    LiteralExpr,
    NumberExpr,
    PathExpr,
    Step,
    XPathContext,
    XPathExpr,
    _DocumentAnchor,
    node_string_value,
    parse_xpath,
    to_boolean,
    to_string,
)

XSL_PREFIX = "xsl:"


# ---------------------------------------------------------------------------
# XPath: the interpretive evaluator
# ---------------------------------------------------------------------------


def evaluate(expr: XPathExpr, context: XPathContext) -> Any:
    """Evaluate to a node-set (list), string, float or bool."""
    if isinstance(expr, LiteralExpr):
        return expr.value
    if isinstance(expr, NumberExpr):
        return expr.value
    if isinstance(expr, PathExpr):
        return _eval_path(expr, context)
    if isinstance(expr, CompareExpr):
        return _eval_compare(expr, context)
    if isinstance(expr, BoolExpr):
        left = to_boolean(evaluate(expr.left, context))
        if expr.op == "and":
            return left and to_boolean(evaluate(expr.right, context))
        return left or to_boolean(evaluate(expr.right, context))
    if isinstance(expr, FunctionExpr):
        return _eval_function(expr, context)
    raise XPathError(f"cannot evaluate {expr!r}")


def select(expression: str | XPathExpr, context: XPathContext) -> list[Any]:
    expr = parse_xpath(expression) if isinstance(expression, str) else expression
    result = evaluate(expr, context)
    if isinstance(result, list):
        return result
    raise XPathError(f"expression {expression!r} is not a node-set")


def _eval_compare(expr: CompareExpr, context: XPathContext) -> bool:
    left = evaluate(expr.left, context)
    right = evaluate(expr.right, context)
    equal = _sets_equal(left, right)
    return equal if expr.op == "=" else not equal


def _sets_equal(left: Any, right: Any) -> bool:
    # Node-set comparisons are existential (XPath 1.0 §3.4).
    if isinstance(left, list) and isinstance(right, list):
        right_values = {node_string_value(item) for item in right}
        return any(node_string_value(item) in right_values for item in left)
    if isinstance(left, list):
        return any(_atom_equal(node_string_value(item), right) for item in left)
    if isinstance(right, list):
        return any(_atom_equal(node_string_value(item), left) for item in right)
    return _atom_equal(left, right)


def _atom_equal(left: Any, right: Any) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        try:
            return float(left) == float(right)
        except (TypeError, ValueError):
            return False
    return to_string(left) == to_string(right)


def _eval_function(expr: FunctionExpr, context: XPathContext) -> Any:
    name = expr.name
    args = expr.args
    if name == "count":
        _require_args(expr, 1)
        return float(len(select(args[0], context)))
    if name == "concat":
        if len(args) < 2:
            raise XPathError("concat() needs at least two arguments")
        return "".join(to_string(evaluate(arg, context)) for arg in args)
    if name == "name":
        _require_args(expr, 0)
        node = context.node
        return node.tag if isinstance(node, Element) else ""
    if name == "position":
        _require_args(expr, 0)
        return float(context.position)
    if name == "last":
        _require_args(expr, 0)
        return float(context.size)
    if name == "string":
        if not args:
            return node_string_value(context.node)
        _require_args(expr, 1)
        return to_string(evaluate(args[0], context))
    if name == "normalize-space":
        if args:
            value = to_string(evaluate(args[0], context))
        else:
            value = node_string_value(context.node)
        return re.sub(r"\s+", " ", value).strip()
    if name == "contains":
        _require_args(expr, 2)
        haystack = to_string(evaluate(args[0], context))
        needle = to_string(evaluate(args[1], context))
        return needle in haystack
    if name == "not":
        _require_args(expr, 1)
        return not to_boolean(evaluate(args[0], context))
    if name == "true":
        return True
    if name == "false":
        return False
    raise XPathError(f"unsupported function {name}()")


def _require_args(expr: FunctionExpr, count: int) -> None:
    if len(expr.args) != count:
        raise XPathError(
            f"{expr.name}() takes {count} argument(s), got {len(expr.args)}"
        )


def _eval_path(expr: PathExpr, context: XPathContext) -> list[Any]:
    if expr.absolute:
        root = context.root
        if root is None:
            node: Node | None = context.node
            while isinstance(node, Element) and node.parent is not None:
                node = node.parent
            root = node if isinstance(node, Element) else None
        if root is None:
            return []
        # The absolute start is the *document* (parent of root), so the
        # first step's child axis sees the root element itself.
        current: list[Any] = [_DocumentAnchor(root)]
    else:
        current = [context.node]
    for step in expr.steps:
        current = _apply_step(step, current, context)
    return current


def _children_of(item: Any) -> list[Node]:
    if isinstance(item, (_DocumentAnchor, Document)):
        return [item.root]
    if isinstance(item, Element):
        return list(item.children)
    return []


def _descendants_of(item: Any) -> list[Node]:
    result: list[Node] = []
    for child in _children_of(item):
        result.append(child)
        if isinstance(child, Element):
            result.extend(list(child.walk())[1:])
    return result


def _apply_step(step: Step, items: list[Any], context: XPathContext) -> list[Any]:
    candidates: list[Any] = []
    for item in items:
        if step.axis == "self":
            candidates.append(item)
        elif step.axis == "parent":
            if isinstance(item, (Element, Text)) and item.parent is not None:
                candidates.append(item.parent)
        elif step.axis == "attribute":
            if isinstance(item, Element) and step.test in item.attributes:
                candidates.append(item.attributes[step.test])
        elif step.axis == "child":
            candidates.extend(
                child for child in _children_of(item) if _matches(step.test, child)
            )
        elif step.axis == "descendant":
            candidates.extend(
                node for node in _descendants_of(item) if _matches(step.test, node)
            )
    # De-duplicate nodes while preserving order (strings pass through).
    seen: set[int] = set()
    unique: list[Any] = []
    for candidate in candidates:
        if isinstance(candidate, str):
            unique.append(candidate)
            continue
        if id(candidate) not in seen:
            seen.add(id(candidate))
            unique.append(candidate)
    return _filter_predicates(step.predicates, unique, context)


def _matches(test: str, node: Node) -> bool:
    if test == "text()":
        return isinstance(node, Text)
    if not isinstance(node, Element):
        return False
    return test == "*" or node.tag == test


def _filter_predicates(
    predicates: tuple[XPathExpr, ...], items: list[Any], context: XPathContext
) -> list[Any]:
    for predicate in predicates:
        size = len(items)
        kept: list[Any] = []
        for position, item in enumerate(items, start=1):
            if isinstance(predicate, NumberExpr):
                if position == int(predicate.value):
                    kept.append(item)
                continue
            if isinstance(item, str):
                # Attribute values only support positional predicates.
                raise XPathError("predicates on attributes must be positional")
            value = evaluate(
                predicate, context.with_node(item, position, size)
            )
            if isinstance(value, float):
                if position == int(value):
                    kept.append(item)
            elif to_boolean(value):
                kept.append(item)
        items = kept
    return items


# ---------------------------------------------------------------------------
# XSLT: the tree-walking processor
# ---------------------------------------------------------------------------


def _templates_of(stylesheet_xml: str) -> list[tuple[MatchPattern, tuple[Node, ...], int]]:
    """``(pattern, raw body, document order)`` per ``xsl:template``."""
    root = parse_xml(stylesheet_xml).root
    templates = []
    for child in root.children:
        if isinstance(child, Element) and child.tag == f"{XSL_PREFIX}template":
            templates.append(
                (parse_pattern(child.get("match")), tuple(child.children), len(templates))
            )
    return templates


def transform(stylesheet_xml: str, source: Document) -> Document:
    """Apply the stylesheet text to ``source`` the slow, obvious way."""
    processor = _Processor(_templates_of(stylesheet_xml), source)
    fragments = processor.apply_templates_to(source, position=1, size=1)
    elements = [node for node in fragments if isinstance(node, Element)]
    if len(elements) == 1 and all(
        not isinstance(node, Text) or not node.data.strip() for node in fragments
    ):
        root = elements[0]
    else:
        root = Element("output", synthetic=True)
        for node in fragments:
            root.append(node)
    return Document(root, name="transformed.xml")


class _Processor:
    def __init__(self, templates, source: Document) -> None:
        self._templates = templates
        self._source = source

    # -- template application ----------------------------------------------

    def _best_template(self, node: Node | Document):
        """Scan every template; highest ``(priority, order)`` match wins."""
        best = None
        for template in self._templates:
            pattern, _, order = template
            if not pattern.matches(node):
                continue
            if best is None or (pattern.priority, order) > (best[0].priority, best[2]):
                best = template
        return best

    def apply_templates_to(
        self, node: Node | Document, position: int, size: int
    ) -> list[Node]:
        template = self._best_template(node)
        if template is not None:
            context = XPathContext(node, position, size, root=self._source.root)
            return self._run_body(template[1], context)
        # Built-in rules.
        if isinstance(node, Document):
            return self.apply_templates_to(node.root, 1, 1)
        if isinstance(node, Text):
            return [Text(node.data)]
        assert isinstance(node, Element)
        output: list[Node] = []
        children = node.children
        for position_, child in enumerate(children, start=1):
            output.extend(self.apply_templates_to(child, position_, len(children)))
        return output

    # -- instruction execution -----------------------------------------------

    def _run_body(self, body, context: XPathContext) -> list[Node]:
        output: list[Node] = []
        for node in body:
            output.extend(self._run_node(node, context))
        return output

    def _run_node(self, node: Node, context: XPathContext) -> list[Node]:
        if isinstance(node, Text):
            # Strip indentation-only whitespace from the stylesheet itself.
            if node.data.strip():
                return [Text(node.data)]
            return []
        assert isinstance(node, Element)
        if node.tag.startswith(XSL_PREFIX):
            return self._run_instruction(node, context)
        # Literal result element.
        element = Element(node.tag)
        for name, value in node.attributes.items():
            element.attributes[name] = self._eval_avt(value, context)
        self._fill_element(element, node.children, context)
        return [element]

    def _fill_element(
        self, element: Element, body: list[Node], context: XPathContext
    ) -> None:
        """Populate a constructed element, honouring <xsl:attribute>."""
        for child in body:
            if (
                isinstance(child, Element)
                and child.tag == f"{XSL_PREFIX}attribute"
            ):
                name = self._eval_avt(child.attributes["name"], context)
                value_nodes = self._run_body(child.children, context)
                element.attributes[name] = "".join(
                    node_string_value(value_node) for value_node in value_nodes
                )
                continue
            for child_output in self._run_node(child, context):
                element.append(child_output)

    def _run_instruction(self, node: Element, context: XPathContext) -> list[Node]:
        name = node.tag[len(XSL_PREFIX):]
        if name == "value-of":
            value = evaluate(parse_xpath(node.attributes["select"]), context)
            text = to_string(value)
            return [Text(text)] if text else []
        if name == "text":
            return [Text(node.text_content())]
        if name == "apply-templates":
            return self._apply_templates_instruction(node, context)
        if name == "for-each":
            return self._for_each(node, context)
        if name == "if":
            test = evaluate(parse_xpath(node.attributes["test"]), context)
            if to_boolean(test):
                return self._run_body(node.children, context)
            return []
        if name == "choose":
            return self._choose(node, context)
        if name == "copy-of":
            items = select(node.attributes["select"], context)
            return [
                item.clone() if isinstance(item, (Element, Text)) else Text(str(item))
                for item in items
            ]
        if name == "element":
            element = Element(self._eval_avt(node.attributes["name"], context))
            self._fill_element(element, node.children, context)
            return [element]
        if name == "attribute":
            raise XsltError(
                "<xsl:attribute> must appear inside a constructed element"
            )
        if name == "sort":
            return []  # handled by the enclosing for-each/apply-templates
        raise XsltError(f"unsupported instruction <xsl:{name}>")

    def _apply_templates_instruction(
        self, node: Element, context: XPathContext
    ) -> list[Node]:
        select_attr = node.get("select")
        if select_attr:
            items = select(select_attr, context)
        else:
            current = context.node
            if isinstance(current, Document):
                items = [current.root]
            elif isinstance(current, Element):
                items = list(current.children)
            else:
                items = []
        items = self._sorted(node, items, context)
        output: list[Node] = []
        for position, item in enumerate(items, start=1):
            if isinstance(item, str):
                output.append(Text(item))
                continue
            output.extend(self.apply_templates_to(item, position, len(items)))
        return output

    def _for_each(self, node: Element, context: XPathContext) -> list[Node]:
        items = select(node.attributes["select"], context)
        items = self._sorted(node, items, context)
        body = [
            child
            for child in node.children
            if not (isinstance(child, Element) and child.tag == f"{XSL_PREFIX}sort")
        ]
        output: list[Node] = []
        for position, item in enumerate(items, start=1):
            if isinstance(item, str):
                output.append(Text(item))
                continue
            inner = context.with_node(item, position, len(items))
            output.extend(self._run_body(body, inner))
        return output

    def _sorted(
        self, node: Element, items: list[Any], context: XPathContext
    ) -> list[Any]:
        sort_spec = next(
            (
                child
                for child in node.children
                if isinstance(child, Element) and child.tag == f"{XSL_PREFIX}sort"
            ),
            None,
        )
        if sort_spec is None:
            return items
        key_expr = parse_xpath(sort_spec.get("select", "."))
        descending = sort_spec.get("order", "ascending") == "descending"
        numeric = sort_spec.get("data-type", "text") == "number"
        size = len(items)

        def sort_key(indexed: tuple[int, Any]) -> Any:
            position, item = indexed
            if isinstance(item, str):
                raw = item
            else:
                raw = to_string(
                    evaluate(key_expr, context.with_node(item, position + 1, size))
                )
            if numeric:
                try:
                    return float(raw)
                except ValueError:
                    return float("inf")
            return raw

        ranked = sorted(enumerate(items), key=sort_key, reverse=descending)
        return [item for _, item in ranked]

    def _choose(self, node: Element, context: XPathContext) -> list[Node]:
        otherwise: Element | None = None
        for child in node.child_elements():
            if child.tag == f"{XSL_PREFIX}when":
                test = child.get("test")
                if not test:
                    raise XsltError("<xsl:when> requires a test attribute")
                if to_boolean(evaluate(parse_xpath(test), context)):
                    return self._run_body(child.children, context)
            elif child.tag == f"{XSL_PREFIX}otherwise":
                otherwise = child
            else:
                raise XsltError(f"unexpected <{child.tag}> inside <xsl:choose>")
        if otherwise is not None:
            return self._run_body(otherwise.children, context)
        return []

    def _eval_avt(self, template_text: str, context: XPathContext) -> str:
        rendered: list[str] = []
        remaining = template_text
        while remaining:
            start = remaining.find("{")
            if start == -1:
                rendered.append(remaining)
                break
            end = remaining.find("}", start)
            if end == -1:
                raise XsltError(
                    f"unterminated {{ in attribute template {template_text!r}"
                )
            rendered.append(remaining[:start])
            expr = parse_xpath(remaining[start + 1:end])
            rendered.append(to_string(evaluate(expr, context)))
            remaining = remaining[end + 1:]
        return "".join(rendered)
