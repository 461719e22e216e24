"""The HTTP-style query endpoint ("NETMARK Extensible APIs").

"Users can access NETMARK documents by simple HTTP requests, in fact HTTP
provides an extremely simple yet powerful mechanism for users and clients
to access NETMARK."

:class:`NetmarkHttpApi` routes in-process requests:

* ``GET /search?Context=...&Content=...[&xslt=name][&databank=name]`` —
  run an XDB query; with ``xslt`` the result XML is transformed by a named
  stylesheet before returning (Fig 7); with ``databank`` the query fans
  out through the federation router instead of the local store; with
  ``Explain=1`` the response is the executed query plan annotated with
  per-operator row counts instead of the results.
* ``GET /doc/<id>`` — the reconstructed stored document.
* ``GET /docs`` — the document catalog as XML.
* ``GET /metrics`` — the process metrics in text exposition format
  (served even while startup recovery is running: observability must
  not go dark exactly when an operator needs it).
* ``PUT /dav/<path>`` / ``GET /dav/<path>`` / ``DELETE /dav/<path>`` /
  ``MKCOL /dav/<path>`` — pass-through to the WebDAV layer.

``Trace=1`` on ``/search`` traces the request through a per-request
:class:`~repro.obs.Tracer` and appends the span tree as a ``<trace>``
element to the response envelope (results and plans alike).

``Deadline=N`` bounds a search to ``N`` ticks of the API's clock; past
the deadline the request answers 504 ``<error code="deadline-exceeded">``
— or, with ``Partial=1``, 200 with a ``<partial><deadline-expired>``
envelope around the prefix computed in time.  When an
:class:`~repro.server.overload.AdmissionController` is attached and in
brownout, searches are degraded to their cheapest plan (forced result
limit, no XSLT) and stamped ``degraded="brownout"``.

Stylesheets are themselves WebDAV resources under ``/stylesheets`` —
NETMARK really is "nothing more than intelligent storage" plus this thin
routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    AllSourcesFailedError,
    CorruptLogError,
    FsckError,
    QueryCancelledError,
    QueryError,
    QuerySyntaxError,
    QueryTimeoutError,
    RecoveryError,
    ReproError,
    UnknownDatabankError,
    XsltError,
)
from repro import obs
from repro.obs import NULL_TRACER, Span, Tracer
from repro.query.ast import XdbQuery
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.language import format_query, parse_query
from repro.resilience.clock import LogicalClock
from repro.resilience.deadline import Budget, TickSource
from repro.server.overload import AdmissionController, degrade_query
from repro.server.webdav import WebDavServer
from repro.sgml.dom import Document, Element
from repro.sgml.serializer import serialize
from repro.store.xmlstore import XmlStore
from repro.xslt.processor import transform
from repro.xslt.stylesheet import compile_stylesheet

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.router import Router

STYLESHEET_FOLDER = "/stylesheets"

#: Seconds of back-off advertised on every 503 (``Retry-After``).  One
#: heartbeat-timeout's worth of logical time is how long recovery gates
#: and failovers usually take in this codebase's simulations.
RETRY_AFTER_SECONDS = 3

#: Fixed route vocabulary for the request counter — labels must stay
#: low-cardinality, so unknown paths collapse into ``other``.
_ROUTES = ("search", "docs", "doc", "dav", "databanks", "metrics", "cluster")


def _route_label(path: str) -> str:
    head = path.lstrip("/").split("/", 1)[0]
    return head if head in _ROUTES else "other"


def error_response(
    status: int,
    code: str,
    message: str,
    retry_after: int | None = None,
    attributes: dict[str, str] | None = None,
) -> HttpResponse:
    """A machine-readable XML error envelope.

    ``retry_after`` (seconds) emits the ``Retry-After`` header *and*
    mirrors it as an attribute on the envelope, so both header-aware
    clients and body-parsing scripts see the same advice.  Module-level
    because the worker pool builds shed/timeout envelopes for requests
    that never reach the API object.
    """
    attrs = {"code": code, "status": str(status)}
    if retry_after is not None:
        attrs["retry-after"] = str(retry_after)
    if attributes:
        attrs.update(attributes)
    root = Element("error", attrs)
    root.append_text(message)
    headers: tuple[tuple[str, str], ...] = ()
    if retry_after is not None:
        headers = (("Retry-After", str(retry_after)),)
    return HttpResponse(
        status, serialize(Document(root), indent=2), headers=headers
    )


def _trace_element(span: Span) -> Element:
    """Render one span tree as the ``<trace>`` envelope element."""
    element = Element("trace")
    element.append(_span_element(span))
    return element


def _span_element(span: Span) -> Element:
    attributes = {
        "name": span.name,
        "start": str(span.start_tick),
        "ticks": str(span.ticks),
    }
    for key in sorted(span.attrs):
        attributes[key] = str(span.attrs[key])
    element = Element("span", attributes)
    for child in span.children:
        element.append(_span_element(child))
    return element


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: str
    content_type: str = "text/xml"
    #: Response headers beyond Content-Type, as (name, value) pairs.
    #: Every 503 carries ``Retry-After`` — clients should back off, not
    #: hammer a recovering or coordinator-less node.
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def header(self, name: str) -> str | None:
        """Case-insensitive header lookup (None when absent)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None


class NetmarkHttpApi:
    """In-process HTTP facade over store, query engine, DAV and router."""

    def __init__(
        self,
        store: XmlStore,
        dav: WebDavServer,
        router: "Router | None" = None,
        clock: TickSource | None = None,
        admission: AdmissionController | None = None,
        cache: QueryCache | None = None,
    ) -> None:
        self.store = store
        self.dav = dav
        self.router = router
        #: With ``cache`` set, local searches are served through the
        #: result cache (byte-identical, ``Cache=0``
        #: opts a request out, hits are stamped ``cached="true"`` on the
        #: envelope).  The cache object is shared by every worker-pool
        #: thread; it locks internally.
        self.engine = QueryEngine(store, cache=cache)
        #: The clock ``Deadline=`` budgets and the latency histogram run
        #: on.  Defaults to an idle logical clock (deadlines never fire
        #: unless a test advances it); a real deployment passes
        #: ``wall_tick_source(time.monotonic)`` at its composition root.
        self.clock: TickSource = (
            clock if clock is not None else LogicalClock()
        )
        #: Shared with the worker pool; when set and in brownout,
        #: searches are degraded to their cheapest plan.
        self.admission = admission
        #: While True every request answers 503 with a structured
        #: ``<error code="recovering">`` body — set it around startup
        #: recovery (``XmlStore.open`` + ``NetmarkDaemon.startup_recovery``)
        #: so clients see "try again shortly", never a half-recovered store.
        # repro: guarded-by(gil) a bool flipped by the controlling thread;
        # workers re-read it per request, so a flip is seen at the next
        # dispatch at the latest.
        self.recovering = False
        #: Optional cluster membership view (duck-typed: ``role``,
        #: ``coordinator``, ``is_coordinator``, ``describe()``).  When
        #: set, writes are gated to the coordinator and ``GET /cluster``
        #: serves the membership table.
        self.cluster = None
        if not self.dav.vfs.is_dir(STYLESHEET_FOLDER):
            self.dav.vfs.mkdir(STYLESHEET_FOLDER, parents=True)

    # -- request routing ---------------------------------------------------

    def request(
        self,
        method: str,
        target: str,
        body: str = "",
        budget: Budget | None = None,
    ) -> HttpResponse:
        method = method.upper()
        path, _, query_string = target.partition("?")
        route = _route_label(path)
        started = self.clock.now()
        response = self._dispatch(method, path, query_string, body, budget)
        obs.observe(
            "repro_server_request_latency_ticks",
            self.clock.now() - started,
            route=route,
        )
        obs.inc(
            "repro_server_requests_total",
            route=route, status=str(response.status),
        )
        return response

    def _dispatch(
        self,
        method: str,
        path: str,
        query_string: str,
        body: str,
        budget: Budget | None = None,
    ) -> HttpResponse:
        if path == "/metrics" and method == "GET":
            # Served even while recovering: the one endpoint an operator
            # needs most during a rough startup.
            return HttpResponse(200, obs.render_text(), "text/plain")
        if self.recovering:
            return self._error(
                503, "recovering",
                "startup recovery is running; retry shortly",
                retry_after=RETRY_AFTER_SECONDS,
            )
        if path == "/cluster" and method == "GET":
            return self._cluster_view()
        try:
            if path.startswith("/dav/") or path == "/dav":
                if method != "GET":
                    gate = self._cluster_write_gate()
                    if gate is not None:
                        return gate
                return self._dav(method, path[len("/dav"):] or "/", body)
            if method != "GET":
                return HttpResponse(405, f"method {method} not allowed on {path}")
            if path == "/search":
                return self._search(query_string, budget)
            if path == "/docs":
                return self._catalog()
            if path == "/databanks":
                return self._databanks()
            if path.startswith("/doc/"):
                return self._document(path[len("/doc/"):])
            return HttpResponse(404, f"no route for {path}")
        except QuerySyntaxError as error:
            return HttpResponse(400, str(error))
        except QueryCancelledError as error:
            # The submitter walked away (or cancelled explicitly): 499 in
            # the nginx tradition.  Nobody reads the body, but a
            # structured one keeps logs greppable.  Must precede the
            # QueryError clause — it is a QueryError subclass.
            obs.inc(
                "repro_server_requests_cancelled_total", stage="executing"
            )
            return self._error(499, "cancelled", str(error))
        except QueryTimeoutError as error:
            # A hard deadline (no Partial=1) expired mid-execution.
            obs.inc(
                "repro_server_requests_timed_out_total", stage="executing"
            )
            return self._error(
                504, "deadline-exceeded", str(error),
                retry_after=RETRY_AFTER_SECONDS,
            )
        except (QueryError, XsltError) as error:
            return HttpResponse(422, str(error))
        except UnknownDatabankError as error:
            # Names a resource that does not exist, as a missing sheet does.
            return HttpResponse(404, str(error))
        except AllSourcesFailedError as error:
            # A federated query with *every* source down is a temporary
            # outage, not a server bug: 503, never 500.  Partial losses
            # never reach here — they return 200 with a <partial>
            # envelope (see ResultSet.to_xml).
            return self._error(
                503, "all-sources-failed", str(error),
                retry_after=RETRY_AFTER_SECONDS,
            )
        except CorruptLogError as error:
            # Durability-layer failures get structured bodies: a client
            # (or operator script) can dispatch on the machine-readable
            # code instead of parsing a free-text 500.
            return self._error(500, "corrupt-log", str(error))
        except RecoveryError as error:
            return self._error(500, "recovery-failed", str(error))
        except FsckError as error:
            return self._error(500, "store-inconsistent", str(error))
        except ReproError as error:
            return HttpResponse(500, str(error))

    def get(self, target: str) -> HttpResponse:
        """Convenience for the common ``GET`` case."""
        return self.request("GET", target)

    # -- handlers --------------------------------------------------------------

    def _search(
        self, query_string: str, budget: Budget | None = None
    ) -> HttpResponse:
        query = parse_query(query_string)
        budget = self._request_budget(query, budget)
        degraded = False
        if (
            self.admission is not None
            and self.admission.brownout_active
            and not query.explain
        ):
            # Brownout: answer from the cheapest plan.  Explain requests
            # are exempt — diagnosing the overload must show the real plan.
            query = degrade_query(query, self.admission.brownout_limit)
            degraded = True
            obs.inc("repro_server_brownout_requests_total")
        # A per-request tracer: Trace=1 is self-service, so one slow
        # request can be dissected without flipping any server state.
        tracer = Tracer() if query.trace else NULL_TRACER
        with tracer.span(
            "request", route="/search", query=format_query(query)
        ):
            outcome = self._run_search(query, tracer, budget)
        if isinstance(outcome, HttpResponse):
            return outcome
        if degraded:
            outcome.root.attributes["degraded"] = "brownout"
        for root_span in tracer.take_roots():
            outcome.root.append(_trace_element(root_span))
        return HttpResponse(200, serialize(outcome, indent=2))

    def _request_budget(
        self, query: XdbQuery, budget: Budget | None
    ) -> Budget | None:
        """Fold query-level ``Deadline=``/``Partial=1`` into the budget.

        The worker pool starts a request's budget at *enqueue* time; a
        query-supplied deadline can only tighten it (shrink-only
        composition), so queue wait always counts against the client's
        deadline.
        """
        if query.deadline_ticks is not None:
            if budget is None:
                budget = Budget()
            budget.tighten(self.clock, query.deadline_ticks)
        if budget is not None and query.partial_ok:
            budget.partial_ok = True
        return budget

    def _run_search(
        self, query: XdbQuery, tracer: Tracer, budget: Budget | None = None
    ) -> HttpResponse | Document:
        """Answer one search; a Document result still needs the envelope."""
        if query.databank and self.router is None:
            return HttpResponse(422, "no databanks configured")
        if query.explain:
            # Explain=1: run the plan and return the annotated operator
            # tree instead of results (stylesheets do not apply to plans).
            if query.databank:
                with tracer.span("explain", tier="federated"):
                    return self.router.explain(query)
            with self.store.snapshot() as snapshot:
                with tracer.span("explain", tier="local"):
                    return self.engine.explain(query, snapshot=snapshot)
        if query.stylesheet:
            # name -> text is resolved per request, before any query work
            # (a missing sheet costs no row read); text -> compiled sheet
            # is memoized by the text: a PUT shows on the very next request.
            sheet = self.dav.get(f"{STYLESHEET_FOLDER}/{query.stylesheet}")
            if not sheet.ok:
                return HttpResponse(404, f"stylesheet not found: {query.stylesheet}")
        if query.databank:
            # Federated queries aggregate *remote* answers; the local
            # MVCC snapshot has no authority over other sources.
            with tracer.span(
                "execute", tier="federated", databank=query.databank
            ) as span:
                results = self.router.execute(query, budget=budget)
                span.annotate(matches=len(results))
            with tracer.span("compose"):
                document = results.to_xml()
        else:
            # Pin one MVCC snapshot per request: plan execution AND the
            # lazy match materialization inside ``to_xml`` read the same
            # commit LSN, so a response is internally consistent even
            # while the daemon ingests concurrently.
            with self.store.snapshot() as snapshot:
                with tracer.span("execute", tier="local") as span:
                    results = self.engine.execute(
                        query, snapshot=snapshot, budget=budget
                    )
                    span.annotate(matches=len(results))
                with tracer.span("compose"):
                    document = results.to_xml()
        if results.cached:
            # Transport-level stamp only: ResultSet.to_xml never renders
            # the flag, so the body below this attribute stays
            # byte-identical to an uncached answer.
            document.root.attributes["cached"] = "true"
        if query.stylesheet:
            with tracer.span("xslt", stylesheet=query.stylesheet):
                document = transform(compile_stylesheet(sheet.body), document)
        return document

    def _document(self, raw_id: str) -> HttpResponse:
        try:
            doc_id = int(raw_id)
        except ValueError:
            return HttpResponse(400, f"bad document id {raw_id!r}")
        from repro.errors import DocumentNotFoundError

        try:
            # Snapshot-pinned so a reconstruction racing the daemon never
            # interleaves nodes of two revisions (and shares no caches
            # with other worker threads).
            with self.store.snapshot() as snapshot:
                document = self.store.document(doc_id, snapshot=snapshot)
        except DocumentNotFoundError as error:
            return HttpResponse(404, str(error))
        return HttpResponse(200, serialize(document, indent=2))

    def _catalog(self) -> HttpResponse:
        root = Element("documents")
        with self.store.snapshot() as snapshot:
            entries = self.store.documents(snapshot=snapshot)
        for entry in entries:
            item = root.make_child(
                "document",
                id=str(entry.doc_id),
                name=entry.file_name,
                format=entry.format,
            )
            if entry.file_size is not None:
                item.attributes["size"] = str(entry.file_size)
        return HttpResponse(200, serialize(Document(root), indent=2))

    def _databanks(self) -> HttpResponse:
        root = Element("databanks")
        if self.router is not None:
            for name in self.router.registry.names():
                databank = self.router.registry.get(name)
                item = root.make_child("databank", name=name)
                if databank.description:
                    item.attributes["description"] = databank.description
                for source_name in databank.source_names():
                    item.make_child("source", name=source_name)
        return HttpResponse(200, serialize(Document(root), indent=2))

    def _cluster_write_gate(self) -> HttpResponse | None:
        """Refuse writes on a node that is not the cluster coordinator.

        Followers answer reads; writes must land on the one node holding
        the WAL-attached store.  With a known coordinator the client is
        told exactly where to go (``coordinator`` attribute, 503 +
        Retry-After rather than a silent 500); with no coordinator the
        cluster is mid-failover and the client should simply wait.
        """
        view = self.cluster
        if view is None or view.is_coordinator:
            return None
        coordinator = view.coordinator
        if coordinator is None:
            return self._error(
                503, "no-coordinator",
                "cluster has no coordinator (election in progress); "
                "retry shortly",
                retry_after=RETRY_AFTER_SECONDS,
            )
        return self._error(
            503, "not-coordinator",
            f"this node is a {view.role}; write to {coordinator}",
            retry_after=RETRY_AFTER_SECONDS,
            attributes={"coordinator": coordinator},
        )

    def _cluster_view(self) -> HttpResponse:
        root = Element("cluster")
        view = self.cluster
        if view is None:
            root.attributes["enabled"] = "false"
            return HttpResponse(200, serialize(Document(root), indent=2))
        root.attributes["enabled"] = "true"
        root.attributes["self"] = getattr(view, "name", "")
        if view.coordinator is not None:
            root.attributes["coordinator"] = view.coordinator
        for row in view.describe():
            root.append(Element("node", dict(row)))
        return HttpResponse(200, serialize(Document(root), indent=2))

    def _dav(self, method: str, dav_path: str, body: str) -> HttpResponse:
        if method == "PUT":
            response = self.dav.put(dav_path, body)
        elif method == "GET":
            response = self.dav.get(dav_path)
        elif method == "DELETE":
            response = self.dav.delete(dav_path)
        elif method == "MKCOL":
            response = self.dav.mkcol(dav_path)
        else:
            return HttpResponse(405, f"method {method} not allowed on /dav")
        return HttpResponse(response.status, response.body, "text/plain")

    # -- structured errors ---------------------------------------------------------

    #: The envelope builder, shared with the worker pool (which must
    #: answer shed/expired requests without an API object in hand).
    _error = staticmethod(error_response)

    # -- stylesheet management ----------------------------------------------------

    def install_stylesheet(self, name: str, xml: str) -> None:
        """Store (and pre-validate) a named composition stylesheet."""
        compile_stylesheet(xml)  # raises XsltError on a bad sheet
        self.dav.put(f"{STYLESHEET_FOLDER}/{name}", xml)
