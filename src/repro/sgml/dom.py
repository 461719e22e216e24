"""A small DOM for parsed SGML/XML documents.

The paper's SGML parser "models the document itself (similar to the DOM)",
so this tree is the in-memory form every document passes through between a
converter and the XML store.  It is intentionally lighter than W3C DOM:
two node kinds (:class:`Element`, :class:`Text`) plus a :class:`Document`
root wrapper, parent links, ordered children, and string attributes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator


class Node:
    """Base class for DOM nodes."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Element | None = None

    # Subtree iteration in document order.
    def walk(self) -> Iterator["Node"]:
        yield self

    def text_content(self) -> str:
        """All descendant text, concatenated in document order."""
        return ""

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when already root)."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self

    def clone(self) -> "Node":
        """Deep-copy this node (the copy has no parent)."""
        raise NotImplementedError


class Text(Node):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"

    def text_content(self) -> str:
        return self.data

    def clone(self) -> "Text":
        return Text(self.data)


class Element(Node):
    """A markup element with a tag name, attributes and children."""

    __slots__ = ("tag", "attributes", "children", "synthetic")

    def __init__(
        self,
        tag: str,
        attributes: dict[str, str] | None = None,
        synthetic: bool = False,
    ) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[Node] = []
        #: True when the parser/converter invented this node (it was not in
        #: the source document); such elements get NODETYPE SIMULATION.
        self.synthetic = synthetic

    def __repr__(self) -> str:
        return f"Element(<{self.tag}> children={len(self.children)})"

    # -- construction -------------------------------------------------------

    def append(self, node: Node) -> Node:
        node.detach()
        node.parent = self
        self.children.append(node)
        return node

    def append_text(self, data: str) -> Text:
        text = Text(data)
        self.append(text)
        return text

    def make_child(self, tag: str, **attributes: str) -> "Element":
        child = Element(tag, attributes)
        self.append(child)
        return child

    # -- queries -------------------------------------------------------------

    def walk(self) -> Iterator[Node]:
        yield self
        for child in self.children:
            yield from child.walk()

    def elements(self) -> Iterator["Element"]:
        """Descendant-or-self elements in document order."""
        for node in self.walk():
            if isinstance(node, Element):
                yield node

    def find(self, tag: str) -> "Element | None":
        """First descendant element with ``tag`` (case-insensitive)."""
        tag = tag.lower()
        for element in self.elements():
            if element is not self and element.tag == tag:
                return element
        return None

    def find_all(self, tag: str) -> list["Element"]:
        tag = tag.lower()
        return [
            element
            for element in self.elements()
            if element is not self and element.tag == tag
        ]

    def child_elements(self) -> list["Element"]:
        return [child for child in self.children if isinstance(child, Element)]

    def text_content(self) -> str:
        return "".join(child.text_content() for child in self.children)

    def get(self, attribute: str, default: Any = None) -> Any:
        return self.attributes.get(attribute, default)

    def clone(self) -> "Element":
        copy = Element(self.tag, dict(self.attributes), synthetic=self.synthetic)
        for child in self.children:
            copy.append(child.clone())
        return copy


class Document:
    """The root of a parsed document tree.

    ``root`` is the single top element; ``name`` is the source file name
    (stored in ``DOC.FILE_NAME``); ``metadata`` carries converter-specific
    facts (author, format, sizes) that land in the ``DOC`` table.
    """

    def __init__(
        self,
        root: Element,
        name: str = "",
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.root = root
        self.name = name
        self.metadata: dict[str, Any] = dict(metadata or {})

    def __repr__(self) -> str:
        return f"Document({self.name!r}, root=<{self.root.tag}>)"

    def walk(self) -> Iterator[Node]:
        return self.root.walk()

    def find(self, tag: str) -> Element | None:
        if self.root.tag == tag.lower():
            return self.root
        return self.root.find(tag)

    def find_all(self, tag: str) -> list[Element]:
        result = self.root.find_all(tag)
        if self.root.tag == tag.lower():
            result.insert(0, self.root)
        return result

    def text_content(self) -> str:
        return self.root.text_content()

    def count(self, predicate: Callable[[Node], bool] | None = None) -> int:
        """Number of nodes in the tree (optionally filtered)."""
        if predicate is None:
            return sum(1 for _ in self.walk())
        return sum(1 for node in self.walk() if predicate(node))
