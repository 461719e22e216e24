"""Observability through the HTTP surface: /metrics, Explain=profile, Trace=1.

The issue's acceptance bar: ``/metrics`` must expose WAL, query and
federation series after a workload that exercises all three layers, and
``Explain=profile`` must return per-operator timings and row counts for
a combined Context+Content query.
"""

import pytest

from repro import obs
from repro.netmark import Netmark
from repro.obs import Tracer
from repro.ordbms import MemoryLogDevice
from repro.sgml.parser import parse_xml as parse

PLAN = (
    "<ndoc><title>Plan</title>"
    "<section><h1>Budget</h1><p>resource costs rise</p></section>"
    "<section><h1>Schedule</h1><p>milestones and resource</p>"
    "</section></ndoc>"
)
REPORT = (
    "<ndoc><title>Report</title>"
    "<section><h1>Budget</h1><p>resource view</p></section>"
    "</ndoc>"
)


@pytest.fixture(autouse=True)
def sandbox_registry():
    previous = obs.get_registry()
    obs.push_registry()
    yield
    obs.set_registry(previous)


@pytest.fixture()
def node():
    durable = Netmark(device=MemoryLogDevice())
    durable.ingest_many([("plan.xml", PLAN), ("report.xml", REPORT)])
    durable.create_databank("mission")
    durable.add_source("mission", durable.as_source("local"))
    return durable


class TestMetricsEndpoint:
    def test_exposes_wal_query_and_federation_series(self, node):
        node.http_get("/search?Context=Budget")
        response = node.http_get(
            "/search?Context=Budget&databank=mission"
        )
        assert response.ok
        metrics = node.http_get("/metrics")
        assert metrics.ok
        assert metrics.content_type == "text/plain"
        text = metrics.body
        assert "repro_ordbms_wal_appends_total" in text
        assert "repro_ordbms_wal_syncs_total" in text
        assert 'repro_query_queries_total{kind="context"}' in text
        assert 'repro_federation_source_requests_total' in text
        assert "repro_server_requests_total" in text
        assert "repro_server_ingest_total" in text

    def test_exposition_format_shape(self, node):
        node.http_get("/search?Context=Budget")
        text = node.http_get("/metrics").body
        lines = text.strip().split("\n")
        assert text.endswith("\n")
        for line in lines:
            if line.startswith("# TYPE"):
                parts = line.split()
                assert parts[-1] in {"counter", "gauge", "histogram"}
            elif not line.startswith("#"):
                name_part, _, value = line.rpartition(" ")
                assert name_part.startswith("repro_"), line
                float(value)  # every sample value parses as a number
        # TYPE precedes the samples of its family.
        type_index = lines.index(
            "# TYPE repro_query_queries_total counter"
        )
        sample_index = next(
            index
            for index, line in enumerate(lines)
            if line.startswith("repro_query_queries_total{")
        )
        assert type_index < sample_index

    def test_served_while_recovering(self, node):
        node.api.recovering = True
        try:
            metrics = node.http_get("/metrics")
            search = node.http_get("/search?Context=Budget")
        finally:
            node.api.recovering = False
        assert metrics.ok
        assert search.status == 503

    def test_request_counter_labels_routes(self, node):
        node.http_get("/search?Context=Budget")
        node.http_get("/nonsense")
        node.http_get("/metrics")
        snap = obs.snapshot()
        assert (
            snap['repro_server_requests_total{route="search",status="200"}']
            == 1
        )
        assert (
            snap['repro_server_requests_total{route="other",status="404"}']
            == 1
        )


class TestExplainProfile:
    def test_combined_query_profile_over_http(self, node):
        response = node.http_get(
            "/search?Context=Budget&Content=resource&Explain=profile"
        )
        assert response.ok
        document = parse(response.body)
        plan = document.root
        assert plan.tag == "plan"
        assert plan.attributes["profile"] == "work-units"
        assert int(plan.attributes["total-ticks"]) > 0

        operators = []

        def collect(element):
            if getattr(element, "tag", None) == "operator":
                operators.append(element)
            for child in getattr(element, "children", ()):
                collect(child)

        collect(plan)
        names = {operator.attributes["name"] for operator in operators}
        # The combined pipeline: probe, lift, intersect, walk, limit...
        assert {"materialize", "section-walk"} <= names or len(names) >= 4
        for operator in operators:
            assert "rows" in operator.attributes
            assert int(operator.attributes["ticks"]) >= 0

    def test_plain_explain_has_no_profile(self, node):
        response = node.http_get("/search?Context=Budget&Explain=1")
        assert response.ok
        assert "profile=" not in response.body
        assert "ticks=" not in response.body


class TestTraceParameter:
    def test_trace_attaches_span_tree(self, node):
        response = node.http_get("/search?Context=Budget&Trace=1")
        assert response.ok
        document = parse(response.body)
        traces = [
            child
            for child in document.root.children
            if getattr(child, "tag", None) == "trace"
        ]
        assert len(traces) == 1
        (request_span,) = [
            child
            for child in traces[0].children
            if getattr(child, "tag", None) == "span"
        ]
        assert request_span.attributes["name"] == "request"
        assert request_span.attributes["route"] == "/search"
        child_names = [
            child.attributes["name"]
            for child in request_span.children
            if getattr(child, "tag", None) == "span"
        ]
        assert "execute" in child_names
        assert "compose" in child_names
        assert int(request_span.attributes["ticks"]) > 0

    def test_untraced_response_is_clean(self, node):
        response = node.http_get("/search?Context=Budget")
        assert response.ok
        assert "<trace" not in response.body

    def test_trace_wraps_explain_too(self, node):
        response = node.http_get(
            "/search?Context=Budget&Explain=1&Trace=1"
        )
        assert response.ok
        assert "<trace" in response.body
        assert 'name="explain"' in response.body


class TestDaemonSpans:
    def test_facade_tracer_sees_ingest_stages(self):
        tracer = Tracer()
        node = Netmark(tracer=tracer)
        node.drop("plan.xml", PLAN)
        node.poll()
        (poll_root,) = tracer.take_roots()
        assert poll_root.name == "daemon.poll"
        names = [span.name for span in poll_root.walk()]
        for stage in (
            "daemon.ingest", "daemon.read", "daemon.store",
            "daemon.finalize",
        ):
            assert stage in names

    def test_recovery_metrics_surface_after_restart(self):
        device = MemoryLogDevice()
        first = Netmark(device=device)
        first.ingest("plan.xml", PLAN)
        obs.push_registry()  # only observe the second incarnation
        restarted = Netmark(device=device, vfs=first.vfs)
        assert restarted.document_count == 1
        text = restarted.http_get("/metrics").body
        assert "repro_ordbms_recovery_runs_total 1" in text
        assert "repro_ordbms_recovery_records_replayed_total" in text
