"""Rows read are counted once per request, and the totals did not move.

The table doors (``Table.visible_many``, ``Table.rows_after``) count
nothing; the reader that pulled the rows publishes what it read where its
reads end (``NodeAccessor.publish``): after the plan's drain, after a
streamed render, at the end of a facade call.  Two identical nodes run
each read: one as the code stands, one with the doors counting every row
they hand out and the accessor silent — the per-row baseline.  Every
``repro_*`` series must agree after each call.
"""

import pytest

from repro import obs
from repro.netmark import Netmark
from repro.ordbms.table import Table
from repro.query.engine import QueryEngine
from repro.sgml.serializer import serialize
from repro.store.accessor import NodeAccessor
from repro.workloads import HEADINGS, CorpusSpec, generate_corpus

CORPUS = [(g.name, g.text) for g in generate_corpus(CorpusSpec(documents=24, seed=3))]
HEADING = HEADINGS[0].replace(" ", "+")
TERM = "mission"

#: The request shapes of the ``search_cold`` workload.
COLD = [
    f"/search?Context={HEADING}&Cache=0",
    f"/search?Context={HEADING}&Content={TERM}&Cache=0",
    f"/search?Context={HEADING}&limit=5&Cache=0",
    f"/search?Content={TERM}&limit=20&Cache=0",
]

#: ``obs.inc`` calls one warm cold read may make: a per-section bump
#: (two a section, before) would be dozens.
INCS_PER_COLD_READ = 12


def per_row_baseline(monkeypatch):
    """Count as a door handing out rows one by one would; silence the
    accessor and ``snapshot_search``'s own bump (its rows come through
    ``visible_many`` here)."""
    visible_many, rows_after, counted = (
        Table.visible_many, Table.rows_after, Table._counted,
    )

    def bump(table):
        obs.inc("repro_ordbms_rows_read_total", table=table.schema.name, path="snapshot")

    def counting_visible_many(table, rowids, pin):
        rows = visible_many(table, rowids, pin)
        for _ in rows:
            bump(table)
        return rows

    def counting_rows_after(table, rowid, pin, take=list):
        def counted(rows):
            for row in rows:
                bump(table)
                yield row

        return rows_after(table, rowid, pin, lambda rows: take(counted(rows)))

    def uncounted_snapshot(table, rows, path):
        return iter(rows) if path == "snapshot" else counted(table, rows, path)

    monkeypatch.setattr(Table, "visible_many", counting_visible_many)
    monkeypatch.setattr(Table, "rows_after", counting_rows_after)
    monkeypatch.setattr(Table, "_counted", uncounted_snapshot)
    monkeypatch.setattr(NodeAccessor, "publish", lambda accessor: None)


@pytest.fixture
def nodes():
    previous = obs.get_registry()
    pair = []
    for _ in range(2):
        obs.push_registry()
        node = Netmark()
        assert all(record.ok for record in node.ingest_many(CORPUS))
        pair.append(node)
    yield pair
    obs.set_registry(previous)


def observed(read, node, monkeypatch=None):
    """Every series one call of ``read(node)`` leaves in a fresh registry."""
    obs.push_registry()
    if monkeypatch is None:
        answer = read(node)
    else:
        with monkeypatch.context() as patch:
            per_row_baseline(patch)
            answer = read(node)
    return answer, obs.snapshot()


def assert_parity(read, nodes, monkeypatch):
    node, baseline = nodes
    answer, series = observed(read, node)
    expected_answer, expected = observed(read, baseline, monkeypatch)
    assert answer == expected_answer
    assert any(key.startswith("repro_ordbms_rows_read_total") for key in series)
    assert series == expected


def lazily(query, field):
    """A facade search, then one lazy field of every match: each access
    is a read of its own, counted when it ends."""
    def read(node):
        return [str(getattr(match, field)) for match in node.engine.execute(query)]
    return read


class TestEverySeriesKeepsItsTotal:
    @pytest.mark.parametrize("target", COLD)
    def test_a_cold_request(self, nodes, monkeypatch, target):
        assert_parity(lambda node: node.http_get(target).body, nodes, monkeypatch)

    def test_the_same_request_warm(self, nodes, monkeypatch):
        for node in nodes:
            for target in COLD:
                node.http_get(target)
        for target in COLD:
            assert_parity(lambda node: node.http_get(target).body, nodes, monkeypatch)

    @pytest.mark.parametrize("query", [f"Context={HEADINGS[0]}", f"Content={TERM}"])
    def test_a_plan_drain_alone(self, nodes, monkeypatch, query):
        assert_parity(lambda node: len(node.engine.execute(query)), nodes, monkeypatch)

    def test_a_document_and_its_contexts(self, nodes, monkeypatch):
        assert_parity(lambda node: serialize(node.store.document(2)), nodes, monkeypatch)
        assert_parity(lambda node: [r.rowid for r in node.store.contexts(2)], nodes, monkeypatch)

    def test_a_facade_search(self, nodes, monkeypatch):
        assert_parity(
            lambda node: [m.brief() for m in node.search(f"Context={HEADINGS[0]}")],
            nodes, monkeypatch,
        )

    @pytest.mark.parametrize("field", ["context", "content", "section", "element"])
    @pytest.mark.parametrize("query", [
        f"Context={HEADINGS[0]}", f"Content={TERM}", "Nodename=content",
    ])
    def test_lazy_match_access(self, nodes, monkeypatch, query, field):
        assert_parity(lazily(query, field), nodes, monkeypatch)

    def test_a_listing_for_a_stylesheet(self, nodes, monkeypatch):
        query = f"Context={HEADINGS[0]}&Content={TERM}"
        assert_parity(
            lambda node: serialize(node.engine.execute(query).to_xml()), nodes, monkeypatch
        )

    def test_a_pinned_read_across_a_write(self, nodes, monkeypatch):
        name, text = CORPUS[0]

        def read(node):
            with node.store.snapshot() as snapshot:
                node.store.replace_text(text + "\n", name)  # history under the pin
                assert node.store.xml_table.version_count
                result = node.engine.execute(f"Context={HEADINGS[0]}", snapshot=snapshot)
                body = serialize(result.to_xml())
                document = serialize(node.store.document(1, snapshot=snapshot))
            return body, document

        assert_parity(read, nodes, monkeypatch)


    def test_a_cached_answer_refilled_from_its_spares(self, nodes, monkeypatch):
        target = f"/search?Context={HEADING}&limit=3"
        for node in nodes:
            node.http_get(target)  # a full entry, with spares
            listed = node.api.engine.execute(target.split("?")[1])
            node.store.delete_document(listed[0].doc_id)
        refills = []
        monkeypatch.setattr(
            QueryEngine, "_refill",
            lambda *args, real=QueryEngine._refill: refills.append(1) or real(*args),
        )
        assert_parity(lambda node: node.http_get(target).body, nodes, monkeypatch)
        assert len(refills) == 2


class TestCountOncePerRequest:
    def test_a_warm_cold_read_makes_a_handful_of_bumps(self, nodes, monkeypatch):
        node = nodes[0]
        for target in COLD:
            node.http_get(target)  # the catalog map warms
        calls = []
        inc = obs.inc

        def counting(name, *args, **labels):
            calls.append(name)
            inc(name, *args, **labels)

        monkeypatch.setattr(obs, "inc", counting)
        for target in COLD:
            calls.clear()
            assert node.http_get(target).ok
            assert calls.count("repro_ordbms_rows_read_total") <= 2, target
            assert len(calls) <= INCS_PER_COLD_READ, (target, calls)
