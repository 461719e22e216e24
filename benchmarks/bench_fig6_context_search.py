"""FIG6 — context search across a document collection (paper Fig 6).

"A context search query, such as Context=Introduction, will return the
content portion in the 'Introduction' sections in all the documents in a
document collection."

The bench loads mixed-format corpora of growing size and measures:

* context-search latency via the production path (text index + ROWID
  traversal) versus the full-scan fallback — the index path must win by a
  factor that *grows* with corpus size;
* recall correctness against the generator's ground truth (every document
  generated with the heading must be found).
"""

import dataclasses
import time

import pytest
from conftest import print_table, write_artifact

from repro import obs
from repro.ordbms.table import Table
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.language import format_query, parse_query
from repro.query.results import ResultSet
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus

SIZES = (50, 150, 400)
HEADING = "Budget"


def _loaded_store(size: int) -> tuple[XmlStore, int]:
    files = generate_corpus(CorpusSpec(documents=size, seed=200))
    store = XmlStore()
    expected = 0
    for file in files:
        store.store_text(file.text, file.name)
        if HEADING in file.headings:
            expected += 1
    return store, expected


@pytest.fixture(scope="module")
def stores():
    return {size: _loaded_store(size) for size in SIZES}


def _timed(callable_, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_report_fig6_context_search(benchmark, stores):
    def report():
        rows = []
        series = []
        for size in SIZES:
            store, expected = stores[size]
            indexed = QueryEngine(store, use_index=True)
            scanning = QueryEngine(store, use_index=False)
            indexed_time, indexed_result = _timed(
                lambda engine=indexed: engine.execute(f"Context={HEADING}")
            )
            scan_time, scan_result = _timed(
                lambda engine=scanning: engine.execute(f"Context={HEADING}"),
                repeats=2,
            )
            assert len(indexed_result) == expected  # perfect recall
            assert len(scan_result) == expected
            rows.append(
                [
                    size,
                    expected,
                    f"{indexed_time * 1000:.2f}ms",
                    f"{scan_time * 1000:.2f}ms",
                    f"{scan_time / indexed_time:.1f}x",
                ]
            )
            series.append(
                {
                    "documents": size,
                    "matches": expected,
                    "indexed_queries_per_second": round(1 / indexed_time, 1),
                    "scan_queries_per_second": round(1 / scan_time, 1),
                    "speedup": round(scan_time / indexed_time, 2),
                }
            )
        print_table(
            f"FIG6: Context={HEADING} over growing collections",
            ["docs", "matches", "index-path", "scan-path", "speedup"],
            rows,
        )
        write_artifact("BENCH_fig6.json", "context_search", series)
        # Shape: the index path wins everywhere.
        for row in rows:
            assert float(row[4][:-1]) > 1.0
    benchmark.pedantic(report, rounds=1, iterations=1)


class _TableCalls:
    """Count physical table traffic while a block runs."""

    def __init__(self):
        self.point = 0
        self.batch = 0
        self.rows = 0

    @property
    def calls(self):
        return self.point + self.batch

    def __enter__(self):
        self._originals = Table.visible_many, Table.rows_after
        read_list, read_run = self._originals
        counter = self

        def visible_many(table, rowids, pin):
            # A one-row batch is the read path's point fetch.
            rowids = list(rowids)
            if len(rowids) == 1:
                counter.point += 1
            else:
                counter.batch += 1
            counter.rows += len(rowids)
            return read_list(table, rowids, pin)

        def rows_after(table, rowid, pin):
            # A forward read is one call; every row it decodes is fetched.
            counter.batch += 1
            for row in read_run(table, rowid, pin):
                counter.rows += 1
                yield row

        Table.visible_many, Table.rows_after = visible_many, rows_after
        return self

    def __exit__(self, *exc_info):
        Table.visible_many, Table.rows_after = self._originals
        return False


def test_report_limit_pushdown_fetches(benchmark, stores):
    """Limit-5 combined query vs the eager drain-then-limit baseline.

    The baseline reproduces the pre-plan read path's behaviour: compute
    every match, materialize every section, then throw away all but the
    first five.  The cursor pipeline must answer byte-identically while
    issuing at most half the physical table calls.  (Both sides pay one
    forward read per candidate heading — the lift confirms every heading
    before the limit can apply — so the ratio is the share of the calls
    that section walks make, not the 51:5 ratio of sections walked.)
    """

    def report():
        store, _ = stores[SIZES[-1]]
        query = parse_query(f"Context={HEADING}&Content=resource&limit=5")
        engine = QueryEngine(store)

        with _TableCalls() as eager:
            _, root = engine.compile(
                dataclasses.replace(query, limit=None)
            )
            matches = list(root.rows())
            for match in matches:
                match.context, match.content  # eager composition
            eager_set = ResultSet(format_query(query))
            eager_set.extend(matches)
            eager_set = eager_set.limited(query.limit)

        with _TableCalls() as lazy:
            start = time.perf_counter()
            _, root = engine.compile(query)
            lazy_set = ResultSet(format_query(query))
            lazy_set.extend(list(root.rows()))
            for match in lazy_set.matches:
                match.context, match.content
            elapsed = time.perf_counter() - start

        assert len(lazy_set.matches) == query.limit
        identical = serialize(lazy_set.to_xml(), indent=2) == serialize(
            eager_set.to_xml(), indent=2
        )
        print_table(
            f"FIG6: limit pushdown, {format_query(query)} "
            f"({SIZES[-1]} docs, {len(matches)} total matches)",
            ["path", "table calls", "point", "batched", "rows fetched"],
            [
                ["eager drain", eager.calls, eager.point, eager.batch,
                 eager.rows],
                ["cursor pipeline", lazy.calls, lazy.point, lazy.batch,
                 lazy.rows],
            ],
        )
        write_artifact(
            "BENCH_fig6.json",
            "limit_pushdown",
            {
                "query": format_query(query),
                "documents": SIZES[-1],
                "total_matches": len(matches),
                "eager_table_calls": eager.calls,
                "lazy_table_calls": lazy.calls,
                "eager_rows_fetched": eager.rows,
                "lazy_rows_fetched": lazy.rows,
                "call_reduction": round(eager.calls / lazy.calls, 2),
                "queries_per_second": round(1 / elapsed, 1),
                "byte_identical": identical,
            },
        )
        assert identical  # the pushdown may never change the answer
        assert eager.calls >= 2 * lazy.calls
    benchmark.pedantic(report, rounds=1, iterations=1)


#: The requests of ROADMAP's "what the averages hide" table: what a read
#: costs when the term's posting list, not the answer, sets the price.
ROWS_READ_REQUESTS = (
    "Content=system&limit=5",
    "Content=shuttle+program&limit=20",
    f"Context={HEADING}&limit=5",
    f"Context={HEADING}&Content=system&limit=10",
    f"Context={HEADING}",
)


def _rows_read() -> int:
    """``repro_ordbms_rows_read_total`` summed over tables and doors."""
    return int(sum(
        value for series, value in obs.snapshot().items()
        if series.startswith("repro_ordbms_rows_read_total")
    ))


def test_report_rows_read_by_request(benchmark, stores):
    """Rows one request reads, lift pool warm, result cache bypassed.

    The row count of a whole request — plan, lazy section loads and
    serialization — as the table doors report it.  Exact counters: a
    change that makes ``limit`` bound what a read touches moves them on
    purpose and re-banks; any other change must leave them where they are.
    """

    def report():
        store, _ = stores[SIZES[-1]]
        engine = QueryEngine(store, cache=QueryCache())
        rows = []
        counters = {}
        for request in ROWS_READ_REQUESTS:
            query = parse_query(request + "&Cache=0")
            serialize(engine.execute(query).to_xml(), indent=2)  # warm the pool
            before = _rows_read()
            result = engine.execute(query)
            serialize(result.to_xml(), indent=2)
            counters[request] = {
                "rows_read": _rows_read() - before,
                "results": len(result),
            }
            rows.append([request, counters[request]["rows_read"], len(result)])
        print_table(
            f"FIG6: rows read per request ({SIZES[-1]} docs, pool warm, Cache=0)",
            ["request", "rows read", "results"],
            rows,
        )
        write_artifact("BENCH_fig6.json", "rows_read_by_request", counters)
    benchmark.pedantic(report, rounds=1, iterations=1)


def test_report_result_cache(benchmark, stores):
    """Hot-query replay through the commit-LSN-keyed result cache.

    The cache's acceptance claim (PR 10): a hot fig6 context search at
    the largest corpus must replay at >= 5x the uncached engine's
    throughput, byte-identically, and a hot hit must touch the physical
    tables **zero** times.  The 5x floor is hard-asserted here and
    banked in the artifact as ``ratchet_speedup_floor`` — the perf gate
    treats it as a monotone floor, so the win cannot quietly regress.
    """

    def report():
        store, expected = stores[SIZES[-1]]
        query = f"Context={HEADING}"
        uncached_engine = QueryEngine(store)
        cached_engine = QueryEngine(store, cache=QueryCache())
        uncached_time, uncached_result = _timed(
            lambda: uncached_engine.execute(query)
        )
        first = cached_engine.execute(query)  # the priming miss
        assert not first.cached
        cached_time, cached_result = _timed(
            lambda: cached_engine.execute(query), repeats=9
        )
        assert cached_result.cached
        assert len(cached_result) == expected
        identical = serialize(cached_result.to_xml(), indent=2) == serialize(
            uncached_result.to_xml(), indent=2
        )
        with _TableCalls() as hot:
            hit = cached_engine.execute(query)
        assert hit.cached
        speedup = uncached_time / cached_time
        print_table(
            f"FIG6: result cache, Context={HEADING} ({SIZES[-1]} docs)",
            ["path", "best run", "QPS", "table calls"],
            [
                ["uncached engine", f"{uncached_time * 1000:.2f}ms",
                 f"{1 / uncached_time:.0f}", "-"],
                ["cached replay", f"{cached_time * 1e6:.1f}us",
                 f"{1 / cached_time:.0f}", hot.calls],
            ],
        )
        write_artifact(
            "BENCH_fig6.json",
            "result_cache",
            {
                "documents": SIZES[-1],
                "matches": expected,
                "uncached_queries_per_second": round(1 / uncached_time, 1),
                "cached_queries_per_second": round(1 / cached_time, 1),
                "speedup": round(speedup, 1),
                "ratchet_speedup_floor": 5,
                "hot_hit_table_calls": hot.calls,
                "byte_identical": identical,
            },
        )
        assert identical  # the cache may never change the answer
        assert hot.calls == 0  # a hot hit is pure memory
        assert speedup >= 5  # the banked acceptance floor
    benchmark.pedantic(report, rounds=1, iterations=1)


@pytest.mark.parametrize("size", SIZES)
def test_bench_context_search_indexed(benchmark, stores, size):
    store, expected = stores[size]
    engine = QueryEngine(store)
    result = benchmark(engine.execute, f"Context={HEADING}")
    assert len(result) == expected


def test_bench_combined_search(benchmark, stores):
    store, _ = stores[SIZES[-1]]
    engine = QueryEngine(store)
    benchmark(engine.execute, f"Context={HEADING}&Content=resource")


def test_bench_content_search(benchmark, stores):
    store, _ = stores[SIZES[-1]]
    engine = QueryEngine(store)
    benchmark(engine.execute, "Content=shuttle")
