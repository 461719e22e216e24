"""XDB semantics, written once and naively: documents -> sections -> text.

The executable specification (ROADMAP item 1, first slice).  No rows, no
ROWIDs, no index, no plan: a document is the DOM its converter built, a
section is a CONTEXT element with its title (the text below it) and its
scope (the siblings after it up to the next CONTEXT), and a query is
answered by looking at every text node of every document.  Every
configuration of the real system — index or scan, cached or bare, live
or pinned — must give :meth:`XdbModel.answer`'s answer.

What the model fixes, in the paper's words where it has them:

* a *context* search finds the headings one of whose text nodes holds a
  phrase: the text's nearest CONTEXT ancestor;
* a *content* search finds text nodes holding a term (all its tokens;
  stop words hold nothing) or the phrase, and answers with what governs
  each — the nearest CONTEXT enclosing it or preceding it on the way up —
  provided the section's text, title included, satisfies the whole
  specification (a term is satisfied by its tokens in a row); a hit
  nothing governs answers for its document, once;
* emphasised hits (INTENSE below the heading) add 0.5 to a section's
  score; ``limit`` keeps the best by score, ties and the answer itself
  in document order;
* a *nodename* search finds the elements with that tag whose text (all
  of it, whitespace runs made one space) satisfies the content spec, if
  any; its context is the element's own title when it is a CONTEXT,
  else the title of what governs it, else the file name.
"""

from __future__ import annotations

import re

from repro.converters import convert
from repro.ordbms.textindex import tokenize
from repro.query.language import parse_query
from repro.sgml.config import DEFAULT_CONFIG
from repro.sgml.dom import Element, Node, Text
from repro.sgml.nodetypes import NodeType


def is_a(node: Node, kind: NodeType) -> bool:
    return DEFAULT_CONFIG.classify(node) == kind


def words(text: str) -> list[str]:
    return tokenize(text, keep_stopwords=True)


def holds(needle: str, text: str) -> bool:
    """Do the words of ``needle`` occur consecutively in ``text``?"""
    wanted, found = words(needle), words(text)
    return bool(wanted) and any(
        found[at:at + len(wanted)] == wanted for at in range(len(found))
    )


def texts(node: Node) -> list[Text]:
    return [below for below in node.walk() if isinstance(below, Text)]


def joined(nodes: list[Text]) -> str:
    return " ".join(node.data.strip() for node in nodes if node.data.strip())


def scope(context: Element) -> list[Node]:
    """The siblings after ``context`` up to the next CONTEXT."""
    after = context.parent.children if context.parent is not None else [context]
    after = after[after.index(context) + 1:]
    stop = [at for at, node in enumerate(after) if is_a(node, NodeType.CONTEXT)]
    return after[:stop[0]] if stop else after


def heading_of(text: Text) -> Element | None:
    """The nearest CONTEXT ancestor (None: not heading text)."""
    node = text.parent
    while node is not None and not is_a(node, NodeType.CONTEXT):
        node = node.parent
    return node


def governing(node: Node) -> Element | None:
    """The nearest CONTEXT enclosing ``node`` or preceding it, upward."""
    while node.parent is not None:
        if is_a(node.parent, NodeType.CONTEXT):
            return node.parent
        before = node.parent.children[:node.parent.children.index(node)]
        before = [one for one in before if is_a(one, NodeType.CONTEXT)]
        if before:
            return before[-1]
        node = node.parent
    return None


def emphasised(text: Text) -> bool:
    node = text.parent
    while node is not None and not is_a(node, NodeType.CONTEXT):
        if is_a(node, NodeType.INTENSE):
            return True
        node = node.parent
    return False


class XdbModel:
    """Named documents in arrival order; a replace arrives anew."""

    def __init__(self, documents: dict[str, Element] | None = None) -> None:
        self.documents = dict(documents or {})

    def copy(self) -> "XdbModel":
        return XdbModel(self.documents)

    def store(self, name: str, text: str) -> None:
        self.documents.pop(name, None)
        self.documents[name] = convert(text, name).root

    def delete(self, name: str) -> None:
        del self.documents[name]

    def answer(self, query: str) -> list[tuple[str, str, str, float]]:
        """``(file name, context, content, score)`` per match, in order."""
        parsed = parse_query(query)
        found: list[tuple[int, tuple[str, str, str, float]]] = []
        for name, root in self.documents.items():
            if parsed.doc and parsed.doc.lower() not in name.lower():
                continue
            found += self._document(name, root, parsed)
        # Sections of every document first, then the document-level hits.
        found = [entry for _, entry in sorted(found, key=lambda pair: pair[0])]
        best = sorted(range(len(found)), key=lambda at: -found[at][3])
        return [found[at] for at in sorted(best[:parsed.limit])]

    def _document(self, name, root, parsed):
        """``(0 section | 1 document-level, entry)`` pairs of one document."""
        if parsed.nodename is not None:
            return self._elements(name, root, parsed)
        sections =[node for node in root.walk() if is_a(node, NodeType.CONTEXT)]
        wanted = set(map(id, sections))
        if parsed.context is not None:
            wanted = {
                id(heading_of(text)) for text in texts(root)
                if any(holds(phrase, text.data) for phrase in parsed.context.phrases)
            }
        hits = texts(root) if parsed.content is not None else []
        spec = parsed.content
        if spec is not None and spec.mode == "phrase":
            hits = [text for text in hits if holds(spec.text, text.data)]
        elif spec is not None:
            hits = [
                text for text in hits if any(
                    tokenize(term) and set(tokenize(term)) <= set(words(text.data))
                    for term in spec.terms
                )
            ]
        if spec is not None and parsed.context is None:
            wanted = {id(governing(text)) for text in hits}
        entries = []
        for section in sections:
            title = joined(texts(section))
            content = joined([t for node in scope(section) for t in texts(node)])
            if id(section) in wanted and self._satisfied(title + " " + content, spec):
                boost = sum(
                    0.5 for text in hits
                    if parsed.context is None and governing(text) is section
                    and emphasised(text)
                )
                entries.append((0, (name, title, content, 1.0 + boost)))
        if parsed.context is None and id(None) in wanted:
            first = next(text for text in hits if governing(text) is None)
            snippet = re.sub(r"\s+", " ", first.data.strip())
            entries.append((1, (name, name, snippet, 1.0)))
        return entries

    def _elements(self, name, root, parsed):
        """The elements named ``Nodename``, in document order, whose
        normalised text satisfies the content spec."""
        entries = []
        for node in root.walk():
            if not isinstance(node, Element) or node.tag != parsed.nodename:
                continue
            content = re.sub(r"\s+", " ", node.text_content()).strip()
            if self._satisfied(content, parsed.content):
                heading = node if is_a(node, NodeType.CONTEXT) else governing(node)
                title = name if heading is None else joined(texts(heading))
                entries.append((0, (name, title, content, 1.0)))
        return entries

    @staticmethod
    def _satisfied(text: str, spec) -> bool:
        if spec is None:
            return True
        if spec.mode == "phrase":
            return holds(spec.text, text)
        quantifier = any if spec.mode == "any" else all
        return quantifier(holds(term, text) for term in spec.terms)
