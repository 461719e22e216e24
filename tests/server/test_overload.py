"""Overload protection: shedding, deadlines, cancellation, brownout."""

import threading

import pytest

from repro import obs
from repro.errors import ServerError
from repro.netmark import Netmark
from repro.resilience import Budget, CancellationToken
from repro.server.overload import AdmissionController, degrade_query
from repro.server.workers import WorkerPool
from tests.conftest import SAMPLE_FILES

NDOC = "{\\ndoc1}\n{\\style Heading1}Budget\n{\\style Normal}Travel funds.\n"


class SteppingClock:
    """Advances one tick per read — deterministic mid-request expiry."""

    def __init__(self) -> None:
        self.tick = 0

    def now(self) -> int:
        self.tick += 1
        return self.tick


class CountingApi:
    """API wrapper that records what each executed request was handed."""

    def __init__(self, api) -> None:
        self.api = api
        self.clock = api.clock
        self.keywords: list[dict] = []

    @property
    def calls(self) -> int:
        return len(self.keywords)

    def request(self, method, target, body="", **keywords):
        self.keywords.append(keywords)
        return self.api.request(method, target, body, **keywords)


@pytest.fixture
def node():
    node = Netmark()
    node.drop("r.ndoc", NDOC)
    node.poll()
    return node


class TestAdmissionController:
    def test_hysteresis_enters_high_exits_low(self):
        admission = AdmissionController(
            queue_limit=4, enter_pressure=4, exit_pressure=1, shed_cost=2
        )
        assert not admission.brownout_active
        admission.on_shed()  # pressure 2
        assert not admission.brownout_active  # one burst is not brownout
        admission.on_shed()  # pressure 4 -> enter
        assert admission.brownout_active
        admission.on_accept()  # pressure 3: still above exit
        admission.on_accept()  # pressure 2
        assert admission.brownout_active  # hysteresis band holds
        admission.on_accept()  # pressure 1 -> exit
        assert not admission.brownout_active
        assert admission.sheds == 2
        assert admission.brownout_entries == admission.brownout_exits == 1

    def test_pressure_is_clamped(self):
        admission = AdmissionController(
            queue_limit=1, enter_pressure=2, exit_pressure=0, shed_cost=2
        )
        for _ in range(50):
            admission.on_shed()
        assert admission.pressure <= 4  # enter + shed_cost
        # Bounded pressure means bounded recovery time.
        for _ in range(5):
            admission.on_accept()
        assert not admission.brownout_active

    def test_bad_configuration_rejected(self):
        with pytest.raises(ServerError):
            AdmissionController(queue_limit=0)
        with pytest.raises(ServerError):
            AdmissionController(enter_pressure=2, exit_pressure=2)

    def test_degrade_query_forces_cheapest_plan(self):
        from repro.query.language import parse_query

        query = parse_query("Context=Budget&xslt=report&limit=50")
        degraded = degrade_query(query, 5)
        assert degraded.limit == 5 and degraded.stylesheet is None
        # A client limit tighter than the brownout limit survives.
        tight = parse_query("Context=Budget&limit=2")
        assert degrade_query(tight, 5).limit == 2


class TestShedding:
    def test_full_queue_sheds_with_retry_after(self, node):
        admission = AdmissionController(queue_limit=2, enter_pressure=4)
        pool = WorkerPool(node.api, admission=admission, manual=True)
        kept = [pool.submit("GET", "/docs") for _ in range(2)]
        shed = pool.submit("GET", "/docs")
        # Shed immediately: resolved before any serving happens.
        assert shed.done()
        response = shed.result()
        assert response.status == 503
        assert response.header("Retry-After") == "3"
        assert 'code="overloaded"' in response.body
        assert admission.sheds == 1
        # The admitted requests still complete normally.
        assert pool.serve_pending() == 2
        assert all(f.result().ok for f in kept)

    def test_queue_depth_is_bounded_by_the_limit(self, node):
        admission = AdmissionController(queue_limit=3, enter_pressure=100)
        pool = WorkerPool(node.api, admission=admission, manual=True)
        futures = [pool.submit("GET", "/docs") for _ in range(20)]
        assert pool.queue_depth() == 3
        pool.serve_pending()
        statuses = sorted(f.result().status for f in futures)
        assert statuses == [200] * 3 + [503] * 17


class TestQueueDeadlines:
    def test_deadline_starts_at_enqueue_and_expires_in_queue(self, node):
        api = CountingApi(node.api)
        pool = WorkerPool(api, deadline_ticks=10, manual=True)
        future = pool.submit("GET", "/docs")
        node.api.clock.advance(11)  # the request sits in the queue too long
        pool.serve_pending()
        response = future.result()
        assert response.status == 504
        assert 'code="deadline-exceeded"' in response.body
        assert response.header("Retry-After") == "3"
        # The guarantee: an expired request is never *executed*.
        assert api.calls == 0

    def test_fresh_requests_execute_normally(self, node):
        api = CountingApi(node.api)
        pool = WorkerPool(api, deadline_ticks=10, manual=True)
        futures = [pool.submit("GET", "/docs") for _ in range(2)]
        pool.serve_pending()
        assert all(future.result().ok for future in futures)
        assert api.calls == 2
        # Every job is handed its own budget, started at admission.
        assert [set(keywords) for keywords in api.keywords] == [{"budget"}] * 2
        first, second = (keywords["budget"] for keywords in api.keywords)
        assert isinstance(first, Budget) and isinstance(second, Budget)
        assert first is not second
        assert first.deadline is not None and second.deadline is not None


class TestAbandonedRequests:
    def test_expired_result_wait_cancels_the_job(self, node):
        api = CountingApi(node.api)
        pool = WorkerPool(api, manual=True)
        future = pool.submit("GET", "/docs")
        with pytest.raises(ServerError):
            future.result(timeout=0.01)  # nobody is serving yet
        # The worker reaching the abandoned job skips it entirely.
        pool.serve_pending()
        assert future.result().status == 499
        assert api.calls == 0

    def test_explicit_cancel_answers_499(self, node):
        pool = WorkerPool(node.api, manual=True)
        future = pool.submit("GET", "/docs")
        assert future.cancel("changed my mind")
        pool.serve_pending()
        response = future.result()
        assert response.status == 499
        assert "changed my mind" in response.body

    def test_cancel_after_completion_is_a_no_op(self, node):
        pool = WorkerPool(node.api, manual=True)
        future = pool.submit("GET", "/docs")
        pool.serve_pending()
        assert not future.cancel()
        assert future.result().ok


class TestHttpDeadlines:
    def test_hard_deadline_maps_to_504(self):
        node = Netmark()
        node.ingest_many(SAMPLE_FILES)
        node.api.clock = SteppingClock()
        response = node.api.get("/search?Context=Budget&Deadline=2")
        assert response.status == 504
        assert 'code="deadline-exceeded"' in response.body
        assert response.header("Retry-After") == "3"

    def test_partial_deadline_returns_truncated_200(self):
        node = Netmark()
        node.ingest_many(SAMPLE_FILES)
        full = node.api.get("/search?Context=Budget")
        assert full.ok
        node.api.clock = SteppingClock()
        response = node.api.get(
            "/search?Context=Budget&Deadline=2&Partial=1"
        )
        assert response.ok
        assert 'partial="true"' in response.body
        assert "<deadline-expired>" in response.body
        assert response.body.count("<result ") < full.body.count("<result ")

    def test_cancelled_budget_maps_to_499(self, node):
        token = CancellationToken()
        token.cancel("client disconnected")
        response = node.api.request(
            "GET", "/search?Context=Budget", budget=Budget(token=token)
        )
        assert response.status == 499
        assert 'code="cancelled"' in response.body

    def test_deadline_without_pressure_changes_nothing(self, node):
        plain = node.api.get("/search?Context=Budget")
        with_deadline = node.api.get(
            "/search?Context=Budget&Deadline=1000000"
        )
        assert with_deadline.ok
        # Same matches, no partial marking — only the echoed query
        # string in the envelope differs.
        assert with_deadline.body.count("<result ") == plain.body.count(
            "<result "
        )
        assert "partial" not in with_deadline.body


class TestBrownout:
    def brownout_node(self):
        node = Netmark()
        node.ingest_many(SAMPLE_FILES)
        admission = AdmissionController(
            queue_limit=1, enter_pressure=4, exit_pressure=1,
            shed_cost=2, brownout_limit=1,
        )
        pool = WorkerPool(node.api, admission=admission, manual=True)
        return node, admission, pool

    def test_sustained_shedding_degrades_searches(self):
        node, admission, pool = self.brownout_node()
        node.install_stylesheet(
            "brief.xsl",
            "<xsl:stylesheet>"
            '<xsl:template match="/"><brief>'
            '<xsl:value-of select="count(results/result)"/>'
            "</brief></xsl:template></xsl:stylesheet>",
        )
        pool.submit("GET", "/docs")  # fill the queue
        for _ in range(2):  # sustained shedding -> brownout
            pool.submit("GET", "/docs")
        assert admission.brownout_active
        response = node.api.get("/search?Context=Budget&xslt=brief.xsl")
        assert response.ok
        assert 'degraded="brownout"' in response.body
        # Forced result limit and no XSLT composition.
        assert response.body.count("<result ") == 1
        assert "<brief>" not in response.body

    def test_recovery_exits_brownout_with_hysteresis(self):
        node, admission, pool = self.brownout_node()
        pool.submit("GET", "/docs")
        for _ in range(2):
            pool.submit("GET", "/docs")
        assert admission.brownout_active
        pool.serve_pending()
        # Accepted traffic bleeds pressure back under the exit threshold.
        for _ in range(4):
            pool.submit("GET", "/docs")
            pool.serve_pending()
        assert not admission.brownout_active
        response = node.api.get("/search?Context=Budget")
        assert "degraded" not in response.body
        assert response.body.count("<result ") == 3

    def test_explain_is_exempt_from_brownout(self):
        node, admission, pool = self.brownout_node()
        pool.submit("GET", "/docs")
        for _ in range(2):
            pool.submit("GET", "/docs")
        assert admission.brownout_active
        response = node.api.get("/search?Context=Budget&Explain=1")
        assert response.ok
        assert "degraded" not in response.body


class TestStopSemantics:
    def test_stop_rejects_pending_jobs(self, node):
        pool = WorkerPool(node.api, manual=True)
        futures = [pool.submit("GET", "/docs") for _ in range(3)]
        pool.stop()
        for future in futures:
            response = future.result()
            assert response.status == 503
            assert 'code="shutting-down"' in response.body

    def test_stop_reports_unjoined_workers(self, node):
        entered = threading.Event()
        gate = threading.Event()

        class BlockingApi:
            clock = node.api.clock

            def request(self, method, target, body="", budget=None):
                entered.set()
                gate.wait()
                return node.api.request(method, target, body, budget=budget)

        pool = WorkerPool(BlockingApi(), workers=1)
        pool.start()
        stuck = pool.submit("GET", "/docs")
        assert entered.wait(5)  # the worker is now wedged in its handler
        pending = pool.submit("GET", "/docs")
        unjoined = pool.stop(timeout=0.05)
        assert unjoined == 1
        assert pending.result().status == 503
        assert 'code="shutting-down"' in pending.result().body
        # Unwedge; the abandoned daemon worker still answers its client.
        gate.set()
        assert stuck.result(timeout=5).ok

    def test_clean_stop_reports_zero_unjoined(self, node):
        pool = WorkerPool(node.api, workers=2)
        pool.start()
        assert pool.request("GET", "/docs").ok
        assert pool.stop(timeout=5) == 0


class TestOverloadMetrics:
    def test_queue_depth_latency_and_shed_series(self, node):
        previous = obs.push_registry()
        try:
            admission = AdmissionController(queue_limit=1, enter_pressure=9)
            pool = WorkerPool(node.api, admission=admission, manual=True)
            pool.submit("GET", "/docs")
            pool.submit("GET", "/search?Context=Budget")  # shed
            pool.serve_pending()
            node.api.get("/search?Context=Budget")
            registry = obs.get_registry()
            assert registry.get("repro_server_queue_depth") is not None
            shed = registry.get("repro_server_requests_shed_total")
            assert sum(value for _, value in shed.series()) == 1
            latency = registry.get("repro_server_request_latency_ticks")
            assert latency is not None
            rendered = obs.render_text()
            assert 'route="search"' in rendered
            assert 'route="docs"' in rendered
        finally:
            obs.set_registry(previous)

    def test_timeout_and_cancel_counters(self, node):
        previous = obs.push_registry()
        try:
            pool = WorkerPool(node.api, deadline_ticks=1, manual=True)
            expired = pool.submit("GET", "/docs")
            node.api.clock.advance(2)
            cancelled = pool.submit("GET", "/docs")
            cancelled.cancel()
            pool.serve_pending()
            assert expired.result().status == 504
            assert cancelled.result().status == 499
            registry = obs.get_registry()
            timeouts = registry.get("repro_server_requests_timed_out_total")
            cancels = registry.get("repro_server_requests_cancelled_total")
            assert sum(value for _, value in timeouts.series()) == 1
            assert sum(value for _, value in cancels.series()) == 1
        finally:
            obs.set_registry(previous)
