"""ABL-ROWID — ablation: physical-ROWID traversal links.

"We have exploited the feature of physical row-ids in Oracle for very
fast traversal between nodes that are related."

The ablation replaces each O(1) physical hop with the logical
alternative a rowid-less design would use — a B+tree lookup on the node's
key (``NODEID``/``PARENTNODEID``) — and re-runs the query engine's hot
traversal (resolve every content hit to its governing context, then
collect the section).  The physical side reads the governing context off
the fact the text index carries beside the posting and the section in
one forward read from its ROWID; the key-join side walks parent and
children by index lookups, on a copy of the store that carries the
``PARENTNODEID`` B+tree only that design needs.  Both variants produce
identical answers; the physical path must do it with no B+tree probe
and no more rows fetched — like counted with like, the
machine-independent proxy for the I/O Oracle's physical rowids saved.
(In this all-in-memory substrate a B+tree probe costs nanoseconds, so
wall-clock times are close; on the paper's disk-backed Oracle each probe
is potentially a page read, which is why the design matters there.)
"""

import time

import pytest
from conftest import print_table

from repro import obs
from repro.sgml.nodetypes import NodeType
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def store():
    loaded = XmlStore()
    for file in generate_corpus(CorpusSpec(documents=150, seed=600)):
        loaded.store_text(file.text, file.name)
    return loaded


@pytest.fixture(scope="module")
def keyjoin_store(store):
    """The same rows, plus the child index a rowid-less design needs:
    NETMARK itself keeps no B+tree on ``PARENTNODEID``."""
    copy = XmlStore.restore(store.dump())
    copy.xml_table.create_index("PARENTNODEID")
    return copy


def _content_hits(store, term="shuttle"):
    index = store.xml_table.text_index_on("NODEDATA")
    rows = [store.xml_table.fetch(rowid) for rowid in sorted(index.lookup(term))]
    return [row for row in rows if row.NODETYPE == int(NodeType.TEXT)]


def _btree_probes():
    return sum(
        value for series, value in obs.snapshot().items()
        if series.startswith("repro_ordbms_btree_probes_total")
    )


# -- the rowid-less traversal (what the design avoids) ----------------------


class KeyJoinTraversal:
    """Parent/sibling navigation through logical-key index lookups."""

    def __init__(self, store: XmlStore) -> None:
        self.table = store.xml_table
        self.probes = 0
        self.rows = 0

    def _lookup(self, column, value):
        self.probes += 1
        rows = self.table.lookup(column, value)
        self.rows += len(rows)
        return rows

    def parent_of(self, row):
        parent_id = row.PARENTNODEID
        if parent_id is None:
            return None
        [parent] = self._lookup("NODEID", parent_id)
        return parent

    def children_of(self, row):
        children = self._lookup("PARENTNODEID", row.NODEID)
        children.sort(key=lambda child: child.ORDINAL)
        return children

    def governing_context(self, row):
        current = row
        while True:
            parent = self.parent_of(current)
            if parent is None:
                return None
            if parent.NODETYPE == int(NodeType.CONTEXT):
                return parent
            best = None
            for sibling in self.children_of(parent):
                if sibling.ORDINAL >= current.ORDINAL:
                    break
                if sibling.NODETYPE == int(NodeType.CONTEXT):
                    best = sibling
            if best is not None:
                return best
            current = parent

    def section_text(self, context_row):
        siblings = self.children_of(self.parent_of(context_row))
        pieces = []
        started = False
        for sibling in siblings:
            if sibling.NODEID == context_row.NODEID:
                started = True
                continue
            if not started:
                continue
            if sibling.NODETYPE == int(NodeType.CONTEXT):
                break
            pieces.extend(self._texts(sibling))
        return " ".join(pieces)

    def _texts(self, row):
        out = []
        if row.NODETYPE == int(NodeType.TEXT) and row.NODEDATA:
            out.append(row.NODEDATA.strip())
        for child in self.children_of(row):
            out.extend(self._texts(child))
        return out


def _resolve_physical(store, hits):
    answers, rows, before = [], 0, _btree_probes()
    for hit in hits:
        # A fresh accessor per hit: no memo may carry from one hit to the
        # next (the key-join side has none).  The governing context is
        # the fact the index carries beside the posting; the section is
        # one forward read from its ROWID.
        accessor = store.new_accessor()
        [(sections, _, _)] = accessor.text_facts([hit.rowid])
        if sections:
            context = accessor.node(sections[0])
            answers.append(
                (context.NODEID, accessor.section_text(context))
            )
        rows += accessor.stats.rows_fetched
    return answers, _btree_probes() - before, rows


def _resolve_keyjoin(store, hits):
    traversal = KeyJoinTraversal(store)
    answers = []
    for hit in hits:
        context = traversal.governing_context(hit)
        if context is not None:
            answers.append(
                (context.NODEID, traversal.section_text(context))
            )
    return answers, traversal.probes, traversal.rows


def test_report_ablation_rowid(benchmark, store, keyjoin_store):
    def report():
        hits = _content_hits(store)
        assert hits

        start = time.perf_counter()
        physical, physical_probes, physical_rows = _resolve_physical(
            store, hits
        )
        physical_time = time.perf_counter() - start

        start = time.perf_counter()
        keyjoin, keyjoin_probes, keyjoin_rows = _resolve_keyjoin(
            keyjoin_store, _content_hits(keyjoin_store)
        )
        keyjoin_time = time.perf_counter() - start

        # Identical context resolution (section text can differ in whitespace
        # normalisation only; compare per-context identity and word bags).
        assert [answer[0] for answer in physical] == [a[0] for a in keyjoin]
        for (_, left), (_, right) in zip(physical, keyjoin):
            assert left.split() == right.split()

        print_table(
            "ABL-ROWID: physical links vs key joins "
            f"({len(hits)} content hits resolved)",
            ["variant", "time", "B+tree probes", "rows fetched"],
            [
                ["physical ROWIDs", f"{physical_time * 1000:.2f}ms",
                 physical_probes, physical_rows],
                ["logical key joins", f"{keyjoin_time * 1000:.2f}ms",
                 keyjoin_probes, keyjoin_rows],
            ],
        )
        # Shape: the physical design probes no B+tree at all and fetches
        # no more rows; every fetch it makes is O(1).
        assert physical_probes == 0 < keyjoin_probes
        assert 0 < physical_rows <= keyjoin_rows
    benchmark.pedantic(report, rounds=1, iterations=1)


def test_bench_physical_traversal(benchmark, store):
    hits = _content_hits(store)
    benchmark(_resolve_physical, store, hits)


def test_bench_keyjoin_traversal(benchmark, keyjoin_store):
    hits = _content_hits(keyjoin_store)
    benchmark(lambda: _resolve_keyjoin(keyjoin_store, hits))
