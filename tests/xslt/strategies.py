"""Hypothesis strategies over the XSLT-lite vocabulary.

Two families.  The *valid* strategies (:func:`stylesheets`,
:func:`source_documents`) build statically correct sheets that use every
supported instruction, XPath form and pattern kind, for the differential
against the oracle.  The *hostile* ones (:func:`xpath_soup`,
:func:`sheet_soup`) throw text and mis-assembled structure at the parse
boundaries, for the fuzz tests.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.query.results import ResultSet, SectionMatch
from repro.sgml.dom import Document, Element, Text
from repro.sgml.serializer import serialize

TAGS = ["results", "result", "context", "content", "section", "note"]
ATTRIBUTES = ["doc", "n", "lang", "query"]
VALUES = ["a", "b", "1", "2", "10", "x y", "B", ""]

tags = st.sampled_from(TAGS + ["result", "result", "section"])  # some more likely
#: Step tests weighted so that most paths select something.
_step_tests = st.sampled_from(["*", "*", "*", "result", "result"] + TAGS)
attributes = st.sampled_from(ATTRIBUTES)
values = st.sampled_from(VALUES)
small = st.integers(min_value=0, max_value=4)


# -- source documents ----------------------------------------------------------


@st.composite
def _elements(draw, children):
    element = Element(draw(tags))
    for name in draw(st.lists(attributes, max_size=2, unique=True)):
        element.attributes[name] = draw(values)
    for child in draw(st.lists(children, max_size=4)):
        element.append(child)
    return element


_texts = st.sampled_from(["alpha", " beta  gamma ", "7", "12", "\n  ", "B", "a"]).map(Text)
_nodes = st.recursive(_texts, _elements, max_leaves=12)


@st.composite
def _results(draw):
    """A ``<result>`` the way ``ResultSet.to_xml`` shapes one, plus noise."""
    result = Element("result", {"doc": draw(values), "n": draw(values)})
    result.make_child("context").append(draw(_texts))
    result.make_child("content").append(draw(_texts))
    for child in draw(st.lists(_nodes, max_size=2)):
        result.append(child)
    return result


@st.composite
def source_documents(draw) -> Document:
    """A ``<results>`` tree (mostly) of results, sections and text."""
    root = Element(draw(st.sampled_from(["results", "results", "results", "section"])))
    for name in draw(st.lists(attributes, max_size=2, unique=True)):
        root.attributes[name] = draw(values)
    for child in draw(st.lists(st.one_of(_results(), _results(), _nodes), min_size=1, max_size=5)):
        root.append(child)
    return Document(root, name="source.xml")


@st.composite
def _section_matches(draw) -> SectionMatch:
    """A match as the engine or a federated source hands one over: a
    section with nested markup, or a section-less document-level hit."""
    named = {
        "file_name": draw(st.sampled_from(["a.ndoc", "b.npdf", "x y"])),
        "source": draw(st.sampled_from(["local", "llis"])),
        "context": draw(values),
        "content": draw(values),
    }
    if draw(st.booleans()):
        return SectionMatch(1, section=None, **named)
    section = Element("section", synthetic=True)
    section.make_child("context").append(draw(_texts))
    for child in draw(st.lists(st.one_of(_elements(_nodes), _nodes), max_size=3)):
        section.append(child)
    return SectionMatch(1, section=section, **named)


@st.composite
def result_sets(draw) -> ResultSet:
    """What ``to_xml`` renders as a listing tree: generated matches from
    two sources, sometimes under a ``<partial>`` envelope."""
    results = ResultSet(draw(st.sampled_from(["Context=Budget", "q", ""])))
    results.extend(draw(st.lists(_section_matches(), max_size=5)))
    if draw(st.sampled_from([False, False, True])):
        results.partial = True
        results.source_errors = {"llis": "timed out"}
    return results


# -- XPath, as text --------------------------------------------------------------


def _literal(value: str) -> str:
    return f"'{value}'"


_predicates = st.one_of(
    small.map(lambda n: f"[{n}]"),
    st.just("[last()]"),
    small.map(lambda n: f"[position()={n}]"),
    st.just("[position()!=last()]"),
    attributes.map(lambda a: f"[@{a}]"),
    st.tuples(attributes, values).map(lambda av: f"[@{av[0]}={_literal(av[1])}]"),
    tags.map(lambda t: f"[{t}]"),
    tags.map(lambda t: f"[not({t})]"),
    st.tuples(tags, values).map(lambda tv: f"[{tv[0]}={_literal(tv[1])}]"),
    st.just("[text()]"),
    st.just("[position()=last()]"),
    st.just("[*]"),
)

_element_steps = st.tuples(
    _step_tests,
    st.one_of(st.just([]), st.just([]), st.lists(_predicates, max_size=2)),
).map(lambda step: step[0] + "".join(step[1]))


@st.composite
def element_paths(draw) -> str:
    """A path selecting elements (at least one real step: never bare ``/``)."""
    prefix = draw(st.sampled_from(["", "", "", "/", "//", "../", "./"]))
    steps = draw(st.lists(_element_steps, min_size=1, max_size=2))
    path = prefix + steps[0]
    for step in steps[1:]:
        path += draw(st.sampled_from(["/", "/", "//"])) + step
    return path + draw(st.sampled_from(["", "", "", "/..", "/."]))


attribute_paths = st.one_of(
    attributes.map(lambda a: f"@{a}"),
    st.tuples(element_paths(), attributes).map(lambda pa: f"{pa[0]}/@{pa[1]}"),
    st.tuples(element_paths(), attributes, small).map(
        lambda pan: f"{pan[0]}/@{pan[1]}[{pan[2]}]"
    ),
)
text_paths = st.one_of(
    st.just("text()"), element_paths().map(lambda p: f"{p}/text()")
)
#: Paths that select something in most contexts of most generated trees;
#: random paths alone mostly select nothing, and prove nothing.
LIKELY_PATHS = [
    "*", "*", "*/*", "//result", "//*", "results/result", "result", ".//*", "@doc", "@n",
    "text()", "*/text()", "context", "content", "*/context", "section", "//section", "..",
    ".", "*[1]", "*[last()]", "*[position()!=1]", "result[@n='1']", "//*[@doc]", "*/@doc",
    "//result[context]", "*[not(section)]", "/results/result", "/*/*[2]", "@*",
    "*[last()]/*", "//*[position()=last()]", "*[2][last()]", "*[@doc][1]", "//*//*", "*/..",
    "//*/..", "//text()/..", "//@doc", "*/@n[1]", "//result[position()!=last()]/context",
    "result[content='B']", "//*[text()]", "*[*][last()]", "/*", "//context/text()",
]
#: Anything that evaluates to a node-set.
node_sets = st.one_of(
    st.sampled_from(LIKELY_PATHS), st.sampled_from(LIKELY_PATHS),
    element_paths(), attribute_paths, text_paths,
)

_atoms = st.one_of(
    node_sets,
    values.map(_literal),
    small.map(str),
    st.sampled_from(["name()", "position()", "last()", "true()", "false()",
                     "string()", "normalize-space()", "2.5"]),
    node_sets.map(lambda p: f"count({p})"),
    node_sets.map(lambda p: f"string({p})"),
    node_sets.map(lambda p: f"normalize-space({p})"),
)


def _compound(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        # The grammar has one comparison per level: operands in parentheses.
        pair.map(lambda ab: f"({ab[0]}) = ({ab[1]})"),
        pair.map(lambda ab: f"({ab[0]}) != ({ab[1]})"),
        pair.map(lambda ab: f"({ab[0]}) and ({ab[1]}) and true()"),
        pair.map(lambda ab: f"({ab[0]}) or ({ab[1]}) or false()"),
        inner.map(lambda a: f"not({a})"),
        pair.map(lambda ab: f"concat({ab[0]}, '-', {ab[1]})"),
        pair.map(lambda ab: f"contains({ab[0]}, {ab[1]})"),
    )


_comparisons = st.tuples(_atoms, st.sampled_from(["=", "!="]), _atoms).map(" ".join)
#: What output most often depends on, and tests that go both ways.
LIKELY_EXPRESSIONS = [
    "position()", "last()", "name()", ".", "@doc", "@n", "count(*)", "context",
    "normalize-space(content)", "normalize-space(.)", "count(results/result)", "string(@n)",
    "concat(position(), '/', last())", "position() = 1", "position() != last()", "@n = '1'",
    "not(section)", "count(*) = 2", "* and @doc", "contains(., 'a')", "name() = 'result'",
    "text()", "@n != @doc", "position() = last() or @n = '2'", "context = 'alpha'",
    "count(//*) = 7", "*/@n = */@doc", "@n = 1", "1 = @n", "'1' != @n", "not(*) and text()",
    "count(*[last()]) != 0", "concat(name(), '-', count(../*), '-', .)", "string()",
    "normalize-space()", "contains(@doc, ' ')", "true() = *", "2.5", "'x' = 'x'", "last() = 2",
    "string(*/@n)", "string(2.0)", "//result = //section", "count(..) = 0", "false() or @lang",
    "context = content", "content != context",
]
#: Any expression of the subset (for ``select`` of value-of, ``test``, AVTs).
expressions = st.one_of(
    st.sampled_from(LIKELY_EXPRESSIONS), st.sampled_from(LIKELY_EXPRESSIONS),
    st.recursive(st.one_of(_atoms, _comparisons), _compound, max_leaves=3),
)


# -- stylesheets, as text -----------------------------------------------------------

_OUT_TAGS = ["out", "item", "b", "x-y"]


def _attr(name: str, value: str) -> str:
    assert '"' not in value and "<" not in value and "&" not in value
    return f' {name}="{value}"'


_avts = st.lists(
    st.one_of(st.sampled_from(["", "k", "a b", "-"]), expressions.map(lambda e: "{%s}" % e)),
    max_size=3,
).map("".join)

#: Computed element/attribute names that are names whatever the context.
_names = st.sampled_from(["made", "e-{name()}", "e{position()}", "n{count(*)}.x", "K"])

_sorts = st.builds(
    lambda key, order, kind: "<xsl:sort" + key + order + kind + "/>",
    st.one_of(st.just(""), expressions.map(lambda e: _attr("select", e))),
    st.sampled_from(["", _attr("order", "descending"), _attr("order", "ascending")]),
    st.sampled_from(["", _attr("data-type", "number"), _attr("data-type", "text")]),
)
_optional_sort = st.one_of(st.just(""), st.just(""), _sorts)
_padding = st.sampled_from(["", "", "\n    "])


def _bodies(children):
    """One more level of instructions around ``children`` (body text)."""
    body = st.lists(children, max_size=2).map("".join)
    attribute_children = st.lists(
        st.tuples(_names, body).map(
            lambda nb: f"<xsl:attribute{_attr('name', nb[0])}>{nb[1]}</xsl:attribute>"
        ),
        max_size=2,
    ).map("".join)
    literal = st.builds(
        lambda tag, avts, attrs, inner: (
            f"<{tag}" + "".join(_attr(f"a{i}", avt) for i, avt in enumerate(avts))
            + f">{attrs}{inner}</{tag}>"
        ),
        st.sampled_from(_OUT_TAGS), st.lists(_avts, max_size=2), attribute_children, body,
    )
    constructed = st.builds(
        lambda name, attrs, inner: (
            f"<xsl:element{_attr('name', name)}>{attrs}{inner}</xsl:element>"
        ),
        _names, attribute_children, body,
    )
    for_each = st.builds(
        lambda select, sort, inner: (
            f"<xsl:for-each{_attr('select', select)}>{sort}{inner}</xsl:for-each>"
        ),
        node_sets, _optional_sort, body,
    )
    conditional = st.builds(
        lambda test, inner: f"<xsl:if{_attr('test', test)}>{inner}</xsl:if>",
        expressions, body,
    )
    choose = st.builds(
        lambda whens, otherwise: (
            "<xsl:choose>"
            + "".join(
                f"<xsl:when{_attr('test', test)}>{inner}</xsl:when>" for test, inner in whens
            )
            + otherwise
            + "</xsl:choose>"
        ),
        st.lists(st.tuples(expressions, body), max_size=2),
        st.one_of(st.just(""), body.map(lambda b: f"<xsl:otherwise>{b}</xsl:otherwise>")),
    )
    return st.one_of(literal, literal, constructed, for_each, conditional, choose)


_leaves = st.one_of(
    expressions.map(lambda e: f"<xsl:value-of{_attr('select', e)}/>"),
    st.builds(
        lambda select, sort: (
            f"<xsl:apply-templates{select}>{sort}</xsl:apply-templates>"
        ),
        st.one_of(st.just(""), node_sets.map(lambda p: _attr("select", p))),
        _optional_sort,
    ),
    st.just("<xsl:apply-templates/>"),
    # ``.`` is left out: at match="/" it is the Document, whose copy the
    # old interpreter rendered as a Python repr.
    element_paths().map(lambda p: f"<xsl:copy-of{_attr('select', p)}/>"),
    attribute_paths.map(lambda p: f"<xsl:copy-of{_attr('select', p)}/>"),
    st.sampled_from(["<xsl:text>  kept  </xsl:text>", "<xsl:text/>", "plain", " t "]),
    _padding,
)
_instructions = st.recursive(_leaves, _bodies, max_leaves=4)

_patterns = st.one_of(
    st.just("/"), st.just("/"), st.just("*"), st.just("*"), st.just("text()"), tags, tags,
    st.tuples(tags, tags).map("/".join),
    st.tuples(st.just("*"), tags).map("/".join),
    tags.map(lambda t: f"{t}/text()"),
    tags.map(lambda t: f"/{t}"),
)


@st.composite
def stylesheets(draw) -> str:
    """A statically valid stylesheet over the whole instruction vocabulary."""
    body = st.lists(_instructions, min_size=1, max_size=2).map("".join)
    # Two rules that are sure to run and to walk on into the tree, then
    # whatever else: later rules win ties, so the sure ones are shadowed
    # only some of the time.
    into_tree = st.sampled_from(["*", "*/*", "//result", "//*", "results/result", "*/text()"])
    walk_on = draw(
        st.one_of(
            st.builds(
                lambda select, sort: (
                    f"<xsl:apply-templates{_attr('select', select)}>{sort}</xsl:apply-templates>"
                ),
                into_tree, _optional_sort,
            ),
            st.builds(
                lambda select, sort, inner: (
                    f"<xsl:for-each{_attr('select', select)}>{sort}{inner}</xsl:for-each>"
                ),
                into_tree, _optional_sort, body,
            ),
        )
    )
    recurse = draw(st.sampled_from(["<xsl:apply-templates/>", "<xsl:apply-templates/>", ""]))
    templates = [
        ("/", f"<out>{draw(body)}{walk_on}</out>"),
        (draw(st.sampled_from(["*", "result"])), draw(body) + recurse),
    ]
    templates += draw(st.lists(st.tuples(_patterns, body), max_size=3))
    output = draw(st.sampled_from(["", '<xsl:output indent="yes"/>']))
    return (
        "<xsl:stylesheet>" + output
        + "".join(
            f"{draw(_padding)}<xsl:template{_attr('match', pattern)}>{body}</xsl:template>"
            for pattern, body in templates
        )
        + "</xsl:stylesheet>"
    )


# -- hostile input --------------------------------------------------------------------

_XPATH_TOKENS = [
    "/", "//", ".", "..", "@", "*", "[", "]", "(", ")", ",", "=", "!=", " ", "'", '"',
    "a", "result", "text", "count", "not", "concat", "name", "last", "position",
    "normalize-space", "string", "contains", "true", "and", "or", "1", "2.5", "'v'",
    "{", "}", "$", "é", "\n",
]
#: Token soup and raw text: mostly not XPath, sometimes nearly.
xpath_soup = st.one_of(
    st.lists(st.sampled_from(_XPATH_TOKENS), max_size=12).map("".join),
    st.text(max_size=30),
    expressions,
)

_XSL_NAMES = [
    "template", "value-of", "apply-templates", "for-each", "if", "choose", "when",
    "otherwise", "text", "element", "attribute", "copy-of", "sort", "stylesheet",
    "output", "frobnicate", "value_of",
]
_soup_tags = st.one_of(
    st.sampled_from(_XSL_NAMES).map("xsl:".__add__), st.sampled_from(_OUT_TAGS)
)
_soup_attributes = st.dictionaries(
    st.sampled_from(["select", "test", "name", "match", "order", "data-type", "k"]),
    st.one_of(xpath_soup, _avts, _names, _patterns),
    max_size=3,
)


_USUAL_ATTRIBUTE = {
    "xsl:value-of": "select", "xsl:for-each": "select", "xsl:copy-of": "select",
    "xsl:apply-templates": "select", "xsl:sort": "select", "xsl:if": "test",
    "xsl:when": "test", "xsl:element": "name", "xsl:attribute": "name",
    "xsl:template": "match",
}


@st.composite
def _soup_elements(draw, children):
    element = Element(draw(_soup_tags), draw(_soup_attributes))
    usual = _USUAL_ATTRIBUTE.get(element.tag)
    if usual and draw(st.integers(0, 9)):  # mostly give an instruction what it needs
        element.attributes[usual] = draw(
            {"select": st.one_of(node_sets, xpath_soup), "test": xpath_soup,
             "name": st.one_of(_names, _avts), "match": _patterns}[usual]
        )
    for child in draw(st.lists(children, max_size=3)):
        element.append(child)
    return element


_soup_nodes = st.recursive(
    st.sampled_from(["x", "  ", "{", "a}b"]).map(Text), _soup_elements, max_leaves=10
)


@st.composite
def sheet_soup(draw) -> str:
    """Instructions assembled without regard to where they may stand."""
    root = Element(draw(st.sampled_from(["xsl:stylesheet"] * 8 + ["xsl:transform", "sheet"])))
    for child in draw(st.lists(_soup_nodes, max_size=4)):
        if draw(st.integers(0, 9)):  # mostly inside a template, where a body may stand
            template = Element("xsl:template", {"match": draw(_patterns)})
            template.append(child)
            child = template
        root.append(child)
    return serialize(Document(root))
