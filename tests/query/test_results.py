"""Result model: ordering helpers, XML rendering, limits."""

import pytest

from repro.query.results import ResultSet, SectionMatch
from repro.sgml.dom import Element
from repro.sgml.serializer import serialize


def match(doc_id=1, file_name="a.md", context="H", content="body",
          section=None, source="local"):
    return SectionMatch(
        doc_id=doc_id,
        file_name=file_name,
        context=context,
        content=content,
        section=section,
        source=source,
    )


def rich_section():
    section = Element("section")
    section.make_child("context").append_text("H")
    content = section.make_child("content")
    content.append_text("rich ")
    content.make_child("b").append_text("bold")
    return section


class TestResultSet:
    def test_len_bool_iter(self):
        results = ResultSet("q")
        assert not results and len(results) == 0
        results.add(match())
        assert results and len(results) == 1
        assert list(results)[0].context == "H"

    def test_documents_distinct_in_order(self):
        results = ResultSet("q")
        results.extend([match(file_name="b"), match(file_name="a"),
                        match(file_name="b")])
        assert results.documents() == ["b", "a"]

    def test_limited(self):
        results = ResultSet("q")
        results.extend([match(context=str(i)) for i in range(5)])
        assert len(results.limited(3)) == 3
        assert len(results.limited(None)) == 5
        assert len(results.limited(10)) == 5

    def test_brief_truncates(self):
        m = match(content="x" * 100)
        line = m.brief(width=20)
        assert "..." in line and len(line) < 100


class TestToXml:
    def test_shape(self):
        results = ResultSet("Context=Budget")
        results.add(match())
        document = results.to_xml()
        assert document.root.tag == "results"
        assert document.root.get("query") == "Context=Budget"
        [result] = document.find_all("result")
        assert result.get("doc") == "a.md"
        assert result.find("context").text_content() == "H"
        assert result.find("content").text_content() == "body"

    def test_rendering_twice_lists_the_same_elements(self):
        section = rich_section()
        kept = serialize(section)
        results = ResultSet("q")
        results.add(match(section=section))
        first, second = results.to_xml(), results.to_xml()
        assert serialize(first) == serialize(second)  # rendering twice is stable
        assert "<b>bold</b>" in serialize(first)
        # context child from section is not duplicated
        assert serialize(first).count("<context>") == 1
        assert serialize(section) == kept  # the caller's section keeps its children
        assert first.root is not second.root
        [listed] = first.root.children
        assert listed is second.root.children[0] is results[0].element
        assert listed.parent is None  # listed by both roots, adopted by neither
        assert listed.find("content").parent is listed

    @pytest.mark.parametrize("copy_first", [False, True])
    def test_a_rebranded_copy_renders_a_tree_of_its_own(self, copy_first):
        original = match(section=rich_section())
        copy = original.with_source("llis")
        for twin in (copy, original) if copy_first else (original, copy):
            twin.element  # whichever is built first takes the section's children
        assert serialize(copy.element) == serialize(original.element).replace(
            'source="local"', 'source="llis"'
        )
        for twin in (original, copy):
            assert twin.element.find("b").parent.parent is twin.element

    def test_resolve_builds_the_element_and_drops_the_loader(self):
        class Loader:
            calls = 0

            def context(self):
                return "H"

            def content(self):
                return "rich bold"

            def section(self):
                self.calls += 1
                return rich_section()

        loader = Loader()
        lazy = SectionMatch(doc_id=1, file_name="a.md", loader=loader)
        assert lazy.resolve() is lazy and loader.calls == 1
        assert lazy._loader is None
        assert (lazy.context, lazy.content) == ("H", "rich bold")
        assert "<b>bold</b>" in serialize(lazy.element) and loader.calls == 1

    def test_sources_attributed(self):
        results = ResultSet("q")
        results.add(match(source="llis"))
        xml = serialize(results.to_xml())
        assert 'source="llis"' in xml
