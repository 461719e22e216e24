"""XPath 1.0 subset for the XSLT-lite processor.

Supports the fragment result-composition stylesheets actually use:

* location paths: ``a/b``, ``/results/result``, ``//section``, ``.``,
  ``..``, ``*``, ``@attr``, ``text()``;
* predicates: ``[3]`` (1-based position), ``[last()]``, ``[child]``
  (existence), ``[@attr]``, ``[@attr='v']``, ``[child='v']``;
* expressions (for ``select``/``test``): location paths, string literals,
  numbers, ``=``/``!=`` comparisons, ``and``/``or``/``not(..)``,
  ``count(path)``, ``concat(a, b, ...)``, ``name()``, ``position()``,
  ``last()``, ``string(path)``, ``normalize-space(path?)``,
  ``contains(a, b)``.

Evaluation follows XPath semantics on node-sets: a path evaluates to a
list of nodes (or attribute strings); comparisons against node-sets are
existentially quantified; the string value of a node-set is the string
value of its first node.  Two lowerings serve the two kinds of context:
:func:`compile_xpath` for a node-set, a test or a number, and
:func:`compile_string` where only a string is kept, which reads ``name``
and ``@name`` without building the node-set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import XPathError
from repro.sgml.dom import Document, Element, Node, Text

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(
        //|/|\.\.|\.|@|\*|\[|\]|\(|\)|,|!=|=|
        '(?:[^'])*'|"(?:[^"])*"|
        \d+(?:\.\d+)?|
        [A-Za-z_][-A-Za-z0-9_.]*
    )
    """,
    re.VERBOSE,
)


def _tokenize(expression: str) -> list[str]:
    # Whatever is left once every token is taken out is not a token.
    leftover = _TOKEN_RE.sub("", expression).strip()
    if leftover:
        raise XPathError(f"cannot tokenize {expression!r} at {leftover[:10]!r}")
    return _TOKEN_RE.findall(expression)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One location step."""

    axis: str  # child | descendant | self | parent | attribute
    test: str  # element name, '*', or 'text()'
    predicates: tuple["XPathExpr", ...] = ()


@dataclass(frozen=True)
class PathExpr:
    absolute: bool
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class LiteralExpr:
    value: str


@dataclass(frozen=True)
class NumberExpr:
    value: float


@dataclass(frozen=True)
class CompareExpr:
    left: "XPathExpr"
    op: str  # '=' or '!='
    right: "XPathExpr"


@dataclass(frozen=True)
class BoolExpr:
    op: str  # 'and' | 'or'
    left: "XPathExpr"
    right: "XPathExpr"


@dataclass(frozen=True)
class FunctionExpr:
    name: str
    args: tuple["XPathExpr", ...]


XPathExpr = (
    PathExpr | LiteralExpr | NumberExpr | CompareExpr | BoolExpr | FunctionExpr
)

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][-A-Za-z0-9_.]*")

#: How deep an expression may nest (parentheses, predicates, arguments,
#: and/or chains).  Parser, lowering and compiled closures all recurse per
#: level, so this is what answers a hostile ``((((…`` with an
#: :class:`XPathError`, not a ``RecursionError`` somewhere down the stack.
MAX_NESTING = 64


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, expression: str) -> None:
        self._expression = expression
        self._tokens = _tokenize(expression)
        self._pos = 0
        self._depth = 0

    def parse(self) -> XPathExpr:
        expr = self._parse_or()
        if self._pos != len(self._tokens):
            raise XPathError(
                f"trailing tokens in {self._expression!r}: {self._tokens[self._pos:]}"
            )
        return expr

    # -- grammar ------------------------------------------------------------

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise XPathError(f"unexpected end of expression {self._expression!r}")
        self._pos += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise XPathError(f"expected {token!r}, got {got!r} in {self._expression!r}")

    def _parse_or(self) -> XPathExpr:
        return self._parse_chain("or", self._parse_and)

    def _parse_and(self) -> XPathExpr:
        return self._parse_chain("and", self._parse_compare)

    def _parse_chain(self, operator: str, operand: Any) -> XPathExpr:
        """``a op b op c`` as a left-deep tree; each link is one level."""
        entered = self._depth
        self._descend()
        left = operand()
        while self._peek() == operator:
            self._next()
            self._descend()
            left = BoolExpr(operator, left, operand())
        self._depth = entered
        return left

    def _descend(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise XPathError(
                f"{self._expression[:40]!r}… nests deeper than {MAX_NESTING} levels"
            )

    def _parse_compare(self) -> XPathExpr:
        left = self._parse_primary()
        if self._peek() in {"=", "!="}:
            return CompareExpr(left, self._next(), self._parse_primary())
        return left

    def _parse_primary(self) -> XPathExpr:
        token = self._peek()
        if token is None:
            raise XPathError(f"empty expression {self._expression!r}")
        if token.startswith(("'", '"')):
            return LiteralExpr(self._next()[1:-1])
        if _NUMBER_RE.fullmatch(token):
            return NumberExpr(float(self._next()))
        if token == "(":
            self._next()
            inner = self._parse_or()
            self._expect(")")
            return inner
        if token in _FUNCTIONS and self._tokens[self._pos + 1:self._pos + 2] == ["("]:
            return self._parse_function()
        return self._parse_path()

    def _parse_function(self) -> XPathExpr:
        name = self._next()
        self._expect("(")
        args: list[XPathExpr] = []
        while self._peek() != ")":
            if args:
                self._expect(",")
            args.append(self._parse_or())
        self._next()
        return FunctionExpr(name, tuple(args))

    def _parse_path(self) -> PathExpr:
        absolute = self._peek() in {"/", "//"}
        steps: list[Step] = []
        if self._peek() == "/":
            self._next()
            if self._peek() is None:
                return PathExpr(True, ())  # the document itself
            steps.append(self._parse_step("child"))
        elif not absolute:  # a leading ``//`` is read by the loop
            steps.append(self._parse_step("child"))
        while self._peek() in {"/", "//"}:
            steps.append(
                self._parse_step("descendant" if self._next() == "//" else "child")
            )
        return PathExpr(absolute, tuple(steps))

    def _parse_step(self, axis: str) -> Step:
        token = self._next()
        if token == ".":
            return Step("self", "*")
        if token == "..":
            return Step("parent", "*")
        if token == "@":
            name = self._next()
            if name != "*" and not _NAME_RE.fullmatch(name):
                raise XPathError(f"no name after '@' in {self._expression!r}: {name!r}")
            return Step("attribute", name.lower(), self._parse_predicates())
        if token == "*":
            return Step(axis, "*", self._parse_predicates())
        if _NAME_RE.fullmatch(token):
            if self._peek() == "(":
                # Only text() is a node-test function.
                self._next()
                self._expect(")")
                if token != "text":
                    raise XPathError(f"unsupported node test {token}()")
                return Step(axis, "text()", self._parse_predicates())
            return Step(axis, token.lower(), self._parse_predicates())
        raise XPathError(f"unexpected token {token!r} in {self._expression!r}")

    def _parse_predicates(self) -> tuple[XPathExpr, ...]:
        predicates: list[XPathExpr] = []
        while self._peek() == "[":
            self._next()
            predicates.append(self._parse_or())
            self._expect("]")
        return tuple(predicates)


def parse_xpath(expression: str) -> XPathExpr:
    """Parse an XPath expression into its (immutable, shareable) AST."""
    return _Parser(expression).parse()


# ---------------------------------------------------------------------------
# Evaluation: an AST is lowered once to a closure over the context
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class XPathContext:
    """Evaluation context: the node, its position/size in the current list.

    ``node`` may be a :class:`~repro.sgml.dom.Document` (the context at a
    ``match="/"`` template), whose only child is the root element.
    """

    node: Node | Document
    position: int = 1
    size: int = 1
    root: Element | None = None  # document root for absolute paths


#: A lowered expression: context in, node-set / string / float / bool out.
Evaluator = Callable[[XPathContext], Any]
_StepFunction = Callable[[list[Any], XPathContext], list[Any]]


def node_string_value(item: Any) -> str:
    """XPath string-value of a node-set item (node or attribute string)."""
    return item if isinstance(item, str) else item.text_content()


def compile_xpath(expr: XPathExpr) -> Evaluator:
    """Lower an AST to a closure — the one evaluator.

    What the expression alone decides (axis, node test, whether a step
    can repeat a node, which function, its arity, whether an argument is
    a node-set) is decided here, once; the closure does only what depends
    on the context, and holds no state: one lowering serves every thread.
    """
    if isinstance(expr, (LiteralExpr, NumberExpr)):
        value = expr.value
        return lambda context: value
    if isinstance(expr, PathExpr):
        return _compile_path(expr)
    if isinstance(expr, CompareExpr):
        left, right = compile_xpath(expr.left), compile_xpath(expr.right)
        if expr.op == "=":
            return lambda context: _sets_equal(left(context), right(context))
        return lambda context: not _sets_equal(left(context), right(context))
    if isinstance(expr, BoolExpr):
        left, right = compile_xpath(expr.left), compile_xpath(expr.right)
        if expr.op == "and":
            return lambda context: bool(left(context)) and bool(right(context))
        return lambda context: bool(left(context)) or bool(right(context))
    if isinstance(expr, FunctionExpr):
        return _compile_function(expr)
    raise XPathError(f"cannot evaluate {expr!r}")


def compile_string(expr: XPathExpr) -> Callable[[XPathContext], str]:
    """Lower an AST for a string context — ``value-of``, an attribute
    value template, a sort key, a string function's argument — where a
    node-set counts only for its first node's string value.  A one-step
    relative ``name`` or ``@name`` stops at that node and builds no list;
    anything else is :func:`compile_xpath`'s value, converted: the one
    place a node-set becomes a string."""
    step = expr.steps[0] if isinstance(expr, PathExpr) and len(expr.steps) == 1 else None
    if step and not expr.absolute and not step.predicates and step.test not in {"*", "text()"}:
        test = step.test
        if step.axis == "attribute":
            return lambda context: _attribute_value(context.node, test)
        if step.axis == "child":
            return lambda context: _first_child_value(context.node, test)
    evaluate = compile_xpath(expr)
    return lambda context: to_string(evaluate(context))


def _attribute_value(item: Any, name: str) -> str:
    return item.attributes.get(name, "") if isinstance(item, Element) else ""


def _first_child_value(item: Any, tag: str) -> str:
    for node in children_of(item):
        if isinstance(node, Element) and node.tag == tag:
            return node.text_content()
    return ""


def require_node_set(expr: XPathExpr, source: Any) -> XPathExpr:
    """``expr``, if it evaluates to a node-set — in this subset exactly
    the location paths, so the check needs no context."""
    if isinstance(expr, PathExpr):
        return expr
    raise XPathError(f"expression {source!r} is not a node-set")


def to_string(value: Any) -> str:
    if isinstance(value, list):
        return node_string_value(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else str(value)
    return str(value)


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


#: The supported functions: fewest and most arguments, and the function
#: itself — of the context when it takes none, else of its arguments'
#: values.  A function of :data:`_STRING_ARGUMENTS` takes each argument's
#: string value (``string`` and ``normalize-space`` the context node's
#: when given none).
_FUNCTIONS: dict[str, tuple[int, float, Callable[..., Any]]] = {
    "name": (0, 0, lambda context: getattr(context.node, "tag", "")),
    "position": (0, 0, lambda context: float(context.position)),
    "last": (0, 0, lambda context: float(context.size)),
    "true": (0, 0, lambda context: True),
    "false": (0, 0, lambda context: False),
    "count": (1, 1, lambda nodes: float(len(nodes))),
    "not": (1, 1, lambda value: not value),
    "string": (0, 1, str),
    # ``str.split`` and ``\s`` agree on what whitespace is: this is
    # ``re.sub(r"\s+", " ", value).strip()`` without the regex.
    "normalize-space": (0, 1, lambda value: " ".join(value.split())),
    "contains": (2, 2, lambda hay, needle: needle in hay),
    "concat": (2, math.inf, lambda *parts: "".join(parts)),
}
_STRING_ARGUMENTS = {"string", "normalize-space", "contains", "concat"}


def _compile_function(expr: FunctionExpr) -> Evaluator:
    if expr.name not in _FUNCTIONS:
        raise XPathError(f"unsupported function {expr.name}()")
    fewest, most, function = _FUNCTIONS[expr.name]
    if not fewest <= len(expr.args) <= most:
        raise XPathError(f"{expr.name}() does not take {len(expr.args)} argument(s)")
    if expr.name == "count":
        require_node_set(expr.args[0], "the argument of count()")
    if not most:
        return function
    lower = compile_string if expr.name in _STRING_ARGUMENTS else compile_xpath
    args = [lower(arg) for arg in expr.args] or [lambda context: node_string_value(context.node)]
    if len(args) == 1:
        first = args[0]
        return lambda context: function(first(context))
    return lambda context: function(*[arg(context) for arg in args])


class _DocumentAnchor(Document):
    """The document node an absolute path starts from, when the context
    only knows the root element: its one child is that element."""


def parent_of(node: Node, root: Element | None) -> Element | None:
    """``node``'s parent in the source tree under ``root``.  A results
    tree lists its matches' ``<result>`` elements without adopting them
    (``ResultSet.to_xml``), so a parent-less node that is not the root is
    a child of the root.  Every upward step of the evaluator asks here."""
    parent = node.parent
    return root if parent is None and node is not root else parent


def children_of(item: Any) -> list[Node]:
    """The child nodes of an element or a document; nothing else has any."""
    if isinstance(item, Element):
        return item.children
    return [item.root] if isinstance(item, Document) else []


def _descendants_of(item: Any) -> list[Node]:
    return [node for child in children_of(item) for node in child.walk()]


def _unique(nodes: list[Any]) -> list[Any]:
    """``nodes`` without repeats, first occurrence kept (document order)."""
    seen: set[int] = set()
    return [node for node in nodes if id(node) not in seen and not seen.add(id(node))]


def _compile_path(expr: PathExpr) -> Evaluator:
    steps = tuple(_compile_step(step) for step in expr.steps)
    absolute = expr.absolute

    def evaluate_path(context: XPathContext) -> list[Any]:
        if absolute:
            root = context.root
            if root is None:
                node: Any = context.node
                while isinstance(node, Element) and (up := parent_of(node, None)) is not None:
                    node = up
                if not isinstance(node, Element):
                    return []
                root = node
            # Start at the *document*, so the first step's child axis
            # sees the root element itself.
            items: list[Any] = [_DocumentAnchor(root)]
        else:
            items = [context.node]
        for step in steps:
            items = step(items, context)
        return items

    return evaluate_path


def _compile_step(step: Step) -> _StepFunction:
    """One location step as ``(items, context) -> items``.  Children and
    attributes of distinct nodes are distinct: only ``parent`` and
    ``descendant`` pay for the duplicate pass, and only over several —
    possibly nested — inputs."""
    axis, test = step.axis, step.test
    if axis == "self":
        return lambda items, context: items
    if axis == "attribute":
        if not all(isinstance(expr, NumberExpr) for expr in step.predicates):
            raise XPathError("predicates on attributes must be positional")
        every = test == "*"

        def expand(item: Any, context: XPathContext) -> list[Any]:
            if not isinstance(item, Element):
                return []
            if every:  # ``@*``: every value, in source order
                return list(item.attributes.values())
            return [item.attributes[test]] if test in item.attributes else []
    elif axis == "parent":
        def expand(item: Any, context: XPathContext) -> list[Any]:
            if not isinstance(item, (Element, Text)):
                return []
            parent = parent_of(item, context.root)
            return [] if parent is None else [parent]
    else:
        below = children_of if axis == "child" else _descendants_of
        kind = Text if test == "text()" else Element
        tag = None if test in {"*", "text()"} else test

        def expand(item: Any, context: XPathContext) -> list[Any]:
            return [
                node
                for node in below(item)
                if isinstance(node, kind) and (tag is None or node.tag == tag)
            ]

    may_repeat = axis in {"parent", "descendant"}
    predicates = tuple(_compile_predicate(expr) for expr in step.predicates)

    def take_step(items: list[Any], context: XPathContext) -> list[Any]:
        if len(items) == 1:
            found = expand(items[0], context)
        else:
            found = [node for item in items for node in expand(item, context)]
            if may_repeat:
                found = _unique(found)
        for predicate in predicates:
            found = predicate(found, context)
        return found

    return take_step


def _compile_predicate(expr: XPathExpr) -> _StepFunction:
    if isinstance(expr, NumberExpr):  # ``[n]`` is ``[position() = n]``: ``[1.5]`` is empty
        index = int(expr.value) if expr.value.is_integer() else 0
        return lambda items, context: items[index - 1:index]
    test = compile_xpath(expr)

    def keep(items: list[Any], context: XPathContext) -> list[Any]:
        size = len(items)
        root = context.root
        kept: list[Any] = []
        for position, item in enumerate(items, start=1):
            value = test(XPathContext(item, position, size, root))
            if isinstance(value, float):  # a number is a position test
                value = position == value
            if value:
                kept.append(item)
        return kept

    return keep
