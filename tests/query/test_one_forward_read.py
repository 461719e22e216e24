"""A section match is rendered from one forward read of its run.

A section's run is its CONTEXT row and the rows stored after it, up to
the next CONTEXT sibling: the heading's rows, then the scope's
(:func:`~repro.store.accessor.split_section`).  ``SectionWalk`` reads it
to test a candidate and hands it on to the match; a match that nothing
tested reads it the first time anything asks.  Either way the title, the
text and the ``<result>`` come from that one list.  A nodename match's
element is read the same way: once, by ``ContentFilter`` when it tests
the element, which hands the run on.
"""

import hashlib

import pytest

from repro import Netmark

from repro.ordbms.table import Table
from repro.query.engine import QueryEngine
from repro.query.language import parse_query
from repro.query.plan import PlanContext, SectionResolver
from repro.sgml.serializer import serialize
from repro.workloads import CorpusSpec, generate_corpus

#: (file name, title, text) of every ``Context=Budget`` section in the
#: sample corpus: the text is the scope's alone, the heading is the title.
BUDGET = [
    ("report1.ndoc", "Budget", "We request funds for shuttle engine work."),
    ("notes.md", "Budget", "Travel dollars and equipment dollars."),
    ("page.html", "Budget", "Ground systems budget holds."),
]


@pytest.fixture
def reads(monkeypatch):
    """The ROWID every ``Table.rows_after`` call starts after, in order."""
    calls = []
    real = Table.rows_after

    def rows_after(self, rowid, *args, **kwargs):
        calls.append(rowid)
        return real(self, rowid, *args, **kwargs)

    monkeypatch.setattr(Table, "rows_after", rows_after)
    return calls


def passes(reads, store):
    """``reads`` without the documents' passes, each a forward read from
    its root (``NodeAccessor.document``), which must be once a document."""
    roots = {row.ROOTROWID for row in store.doc_table.scan()}
    passed = [rowid for rowid in reads if rowid in roots]
    assert len(passed) == len(set(passed))
    return [rowid for rowid in reads if rowid not in roots]


def fields(match):
    return match.file_name, match.context, match.content


def render(matches):
    """Everything a match can be asked for, each way."""
    for match in matches:
        fields(match)
        _ = match.section, match.element
        match.resolve()
        serialize(match.with_source("elsewhere").element)


class TestAWalkedMatchIsNotReadAgain:
    @pytest.mark.parametrize("content", ["budget", "shuttle"])
    def test_title_text_and_result_come_from_the_walks_read(
        self, loaded_store, reads, content
    ):
        ctx, root = QueryEngine(loaded_store).compile(
            parse_query(f"Context=Budget&Content={content}")
        )
        matches = list(root.rows())
        walked = list(reads)
        assert walked == [match.rowid for match in matches]  # one read each
        render(matches)
        assert reads == walked  # no further forward read
        assert ctx.accessor.stats.batch_fetches == len(matches)
        assert [fields(match) for match in matches] == [
            row for row in BUDGET if content in row[2].lower() or content == "budget"
        ]

    def test_a_rejected_candidate_is_read_once_and_dropped(self, loaded_store, reads):
        """On the scan path no ``Intersect`` runs: every Budget section is
        walked, once, and only the one holding the term is a match (the
        lift's per-document passes are forward reads of their own, from
        each document's root)."""
        _, root = QueryEngine(loaded_store, use_index=False).compile(
            parse_query("Context=Budget&Content=shuttle")
        )
        matches = list(root.rows())
        render(matches)
        walked = passes(reads, loaded_store)
        assert len(walked) == len(set(walked)) == len(BUDGET)
        assert [fields(match) for match in matches] == BUDGET[:1]


class TestAPlainContextMatchReadsItsRunOnce:
    @pytest.mark.parametrize(
        "first", ["context", "content", "section", "element", "resolve"]
    )
    def test_whatever_asks_first(self, loaded_store, reads, first):
        matches = QueryEngine(loaded_store).execute("Context=Budget").matches
        assert reads == []  # no section-walk: nothing read yet
        for match in matches:
            value = getattr(match, first)
            if callable(value):
                value()
        assert reads == [match.rowid for match in matches]
        render(matches)
        assert reads == [match.rowid for match in matches]
        assert [fields(match) for match in matches] == BUDGET


class TestAKeptResolverNeedsNoAccessor:
    def test_kept_answers_from_its_rows(self, loaded_store, reads):
        (match, *_) = QueryEngine(loaded_store).execute("Context=Budget").matches
        section = serialize(match.section)
        reads.clear()
        ctx = PlanContext(loaded_store, loaded_store.new_accessor(), use_index=True)
        live = SectionResolver(ctx, ctx.accessor.node(match.rowid))
        kept = live.kept()
        assert kept.ctx is None and reads == [match.rowid]
        assert (kept.context(), kept.content()) == BUDGET[0][1:]
        assert serialize(kept.section()) == section
        assert reads == [match.rowid]


class TestAFilteredNodeIsNotReadAgain:
    def test_a_nodename_match_is_rendered_from_the_filters_read(self, reads):
        """``ContentFilter`` reads each candidate element's rows once and
        hands the run to its match: one forward read per distinct
        element (65; 85 when each match read its element again) beside
        one pass per document its headings are found in, and the body
        is the one a second read rendered."""
        node = Netmark()
        for generated in generate_corpus(CorpusSpec(documents=12, planted_term="zephyr")):
            assert node.ingest(generated.name, generated.text).ok
        reads.clear()
        body = node.http_get("/search?Nodename=section&Content=zephyr").body
        elements = passes(reads, node.store)
        assert len(elements) == len(set(elements)) == 65
        assert body.count("<result ") == 20
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "62015b9e4b7a89f3e9f87d515e71383ce1d732c70efe2e04b34309d3ce5d6071"
        )


class TestAMultiTermContentQueryWalksOnlyItsMatches:
    def test_one_read_per_match(self, reads):
        """``Content=budget schedule`` puts ``Intersect`` over the lift: a
        section holding one of the terms but not the other is dropped
        before any row is read, so the walk reads the five matches alone
        (seven when the walk tested every ranked candidate), and the
        body is the one that walk rendered."""
        from tests.xslt.test_oracle_differential import REPO_ROOT, _load

        plans = _load(REPO_ROOT / "benchmarks" / "e2e" / "plans.py")
        node = Netmark()
        node.ingest_many([(g.name, g.text) for g in plans.build_plan("mixed_rw", 2005, 120).corpus])
        reads.clear()
        body = node.http_get("/search?Content=budget+schedule&limit=5&Cache=0").body
        assert body.count("<result ") == len(reads) == len(set(reads)) == 5
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "e331aa040cb66e83f3635210840f8c70eb74972652348f5368bf6b4e07ee4ccd"
        )
