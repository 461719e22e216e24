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
* ``GET /doc/<id>`` — the stored document, written from its rows.
* ``GET /docs`` — the document catalog as XML.
* ``GET /metrics`` — the process metrics in text exposition format
  (served even while startup recovery is running: observability must
  not go dark exactly when an operator needs it).
* ``PUT /dav/<path>`` / ``GET /dav/<path>`` / ``DELETE /dav/<path>`` /
  ``MKCOL /dav/<path>`` — pass-through to the WebDAV layer.

A search answer is written once, inside the request's snapshot, by one
:class:`~repro.sgml.serializer.XmlWriter`: a plain answer streamed by
:meth:`~repro.query.results.ResultSet.write`, a transformed one replayed
from the stylesheet run's events, a plan walked from its DOM.  The
envelope is the writer's header (``cached``, ``degraded``) and footer
(``Trace=1``: the per-request :class:`~repro.obs.Tracer`'s span tree,
once the request span is shut).
A message that is not XML (400, 404, 405, 422, a bare 500) is ``text/plain``.

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

from contextlib import nullcontext
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
from repro.sgml.serializer import XmlWriter, serialize  # noqa: F401 - the e2e ledger wraps it
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


#: How a typed failure answers, first match first (a subclass before its
#: base): the status, and the ``code`` of a structured ``<error>`` body a
#: client or an operator script can dispatch on — None answers the message
#: as plain text.  A 503 or 504 also advises ``Retry-After``.
_FAILURES: tuple[tuple[type | tuple[type, ...], int, str | None], ...] = (
    (QuerySyntaxError, 400, None),
    # The submitter walked away (or cancelled): 499 in the nginx tradition.
    (QueryCancelledError, 499, "cancelled"),
    # A hard deadline (no Partial=1) expired mid-execution.
    (QueryTimeoutError, 504, "deadline-exceeded"),
    ((QueryError, XsltError), 422, None),
    # Names a resource that does not exist, as a missing sheet does.
    (UnknownDatabankError, 404, None),
    # Every source of a federated query down is a temporary outage, not a
    # server bug; a partial loss answers 200 with a ``<partial>`` envelope.
    (AllSourcesFailedError, 503, "all-sources-failed"),
    (CorruptLogError, 500, "corrupt-log"),
    (RecoveryError, 500, "recovery-failed"),
    (FsckError, 500, "store-inconsistent"),
    (ReproError, 500, None),
)
#: The counters of the failures that stop a request mid-execution.
_STOPPED = {
    499: "repro_server_requests_cancelled_total",
    504: "repro_server_requests_timed_out_total",
}


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
    writer = XmlWriter(indent=2)
    writer.start("error", attrs | (attributes or {}))
    writer.text(message)
    writer.end()
    headers = () if retry_after is None else (("Retry-After", str(retry_after)),)
    return HttpResponse(status, writer.getvalue(), headers=headers)


def _write_span(writer: XmlWriter, span: Span) -> None:
    """One span tree as ``<span name= start= ticks= …>`` events."""
    attributes = {"name": span.name, "start": str(span.start_tick), "ticks": str(span.ticks)}
    writer.start("span", attributes | {key: str(span.attrs[key]) for key in sorted(span.attrs)})
    for child in span.children:
        _write_span(writer, child)
    writer.end()


def _plain(status: int, message: str) -> HttpResponse:
    """A plain-text answer: a message, not an XML body."""
    return HttpResponse(status, message, "text/plain")


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
            return _plain(200, obs.render_text())
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
                return _plain(405, f"method {method} not allowed on {path}")
            if path == "/search":
                return self._search(query_string, budget)
            if path == "/docs":
                return self._catalog()
            if path == "/databanks":
                return self._databanks()
            if path.startswith("/doc/"):
                return self._document(path[len("/doc/"):])
            return _plain(404, f"no route for {path}")
        except ReproError as error:
            return self._failure(error)

    def _failure(self, error: ReproError) -> HttpResponse:
        """Answer a typed failure as :data:`_FAILURES` says."""
        status, code = next((s, c) for kinds, s, c in _FAILURES if isinstance(error, kinds))
        if code is None:
            return _plain(status, str(error))
        if status in _STOPPED:
            obs.inc(_STOPPED[status], stage="executing")
        retry_after = RETRY_AFTER_SECONDS if status in (503, 504) else None
        return self._error(status, code, str(error), retry_after=retry_after)

    def get(self, target: str) -> HttpResponse:
        """Convenience for the common ``GET`` case."""
        return self.request("GET", target)

    # -- handlers --------------------------------------------------------------

    def with_aliases(self, query: XdbQuery) -> XdbQuery:
        """``query`` with the router's context aliases expanded when it
        is local (the router expands a federated one itself).

        The one place a local search meets the aliases, HTTP or facade:
        before the result cache keys the query, so an answer cached
        before an alias was defined is not replayed after it.
        """
        if self.router is None or query.databank:
            return query
        return self.router.aliases.rewrite(query)

    def _search(
        self, query_string: str, budget: Budget | None = None
    ) -> HttpResponse:
        query = self.with_aliases(parse_query(query_string))
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
        # The envelope: these stamps follow the root's own attributes, and
        # the trace is its footer, written once the request span is shut.
        writer = XmlWriter(indent=2)
        stamps = {"degraded": "brownout"} if degraded else {}
        with tracer.span(
            "request", route="/search", query=format_query(query)
        ):
            refused = self._run_search(query, tracer, budget, writer, stamps)
        if refused is not None:
            return refused
        for root_span in tracer.take_roots():
            writer.start("trace")
            _write_span(writer, root_span)
            writer.end()
        writer.end()
        return HttpResponse(200, writer.getvalue())

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
        return Budget.of(budget, query.partial_ok)

    def _run_search(
        self, query: XdbQuery, tracer: Tracer, budget: Budget | None,
        writer: XmlWriter, stamps: dict[str, str],
    ) -> HttpResponse | None:
        """Answer one search into ``writer``, its root left open for the
        footer; an error answers instead."""
        if query.databank and self.router is None:
            return _plain(422, "no databanks configured")
        if query.explain:
            # Explain=1: run the plan and return the annotated operator
            # tree instead of results (stylesheets do not apply to plans).
            if query.databank:
                with tracer.span("explain", tier="federated"):
                    plan = self.router.explain(query)
            else:
                with self.store.snapshot() as snapshot:
                    with tracer.span("explain", tier="local"):
                        plan = self.engine.explain(query, snapshot=snapshot)
            writer.start(plan.root.tag, plan.root.attributes | stamps)
            for child in plan.root.children:
                writer.node(child)
            return None
        if query.stylesheet:
            # name -> text is resolved per request, before any query work
            # (a missing sheet costs no row read); text -> compiled sheet
            # is memoized by the text: a PUT shows on the very next request.
            sheet = self.dav.get(f"{STYLESHEET_FOLDER}/{query.stylesheet}")
            if not sheet.ok:
                return _plain(404, f"stylesheet not found: {query.stylesheet}")
        # A federated query aggregates *remote* answers: the local MVCC
        # snapshot has no authority over other sources.  A local one pins
        # one snapshot: plan execution AND the lazy section reads of the
        # compose step resolve at the same commit LSN, so a response is
        # internally consistent even while the daemon ingests concurrently.
        tier = {"tier": "local"} if not query.databank else {
            "tier": "federated", "databank": query.databank
        }
        with nullcontext() if query.databank else self.store.snapshot() as snapshot:
            with tracer.span("execute", **tier) as span:
                if query.databank:
                    results = self.router.execute(query, budget=budget)
                else:
                    results = self.engine.execute(query, snapshot=snapshot, budget=budget)
                span.annotate(matches=len(results))
            # A transport stamp the results never render: a replay carries
            # a fresh answer's bytes below it.
            cached = {"cached": "true"} if results.cached else {}
            with tracer.span("compose"):
                if not query.stylesheet:
                    return results.write(writer, cached | stamps)
                listing = results.to_xml()
        listing.root.attributes.update(cached)
        with tracer.span("xslt", stylesheet=query.stylesheet):
            return transform(compile_stylesheet(sheet.body), listing, writer, stamps)

    def _document(self, raw_id: str) -> HttpResponse:
        try:
            doc_id = int(raw_id)
        except ValueError:
            return _plain(400, f"bad document id {raw_id!r}")
        from repro.errors import DocumentNotFoundError

        writer = XmlWriter(indent=2)
        try:
            # Snapshot-pinned so a reconstruction racing the daemon never
            # interleaves nodes of two revisions (and shares no caches
            # with other worker threads).
            with self.store.snapshot() as snapshot:
                self.store.write_document(doc_id, writer, snapshot=snapshot)
        except DocumentNotFoundError as error:
            return _plain(404, str(error))
        return HttpResponse(200, writer.getvalue())

    def _catalog(self) -> HttpResponse:
        with self.store.snapshot() as snapshot:
            entries = self.store.documents(snapshot=snapshot)
        writer = XmlWriter(indent=2)
        writer.start("documents")
        for entry in entries:
            size = {} if entry.file_size is None else {"size": str(entry.file_size)}
            writer.start("document", {
                "id": str(entry.doc_id), "name": entry.file_name, "format": entry.format,
            } | size)
            writer.end()
        writer.end()
        return HttpResponse(200, writer.getvalue())

    def _databanks(self) -> HttpResponse:
        writer = XmlWriter(indent=2)
        writer.start("databanks")
        if self.router is not None:
            for name in self.router.registry.names():
                databank = self.router.registry.get(name)
                described = {"description": databank.description} if databank.description else {}
                writer.start("databank", {"name": name} | described)
                for source_name in databank.source_names():
                    writer.start("source", {"name": source_name})
                    writer.end()
                writer.end()
        writer.end()
        return HttpResponse(200, writer.getvalue())

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
        writer = XmlWriter(indent=2)
        view = self.cluster
        if view is None:
            writer.start("cluster", {"enabled": "false"})
        else:
            coordinator = {} if view.coordinator is None else {"coordinator": view.coordinator}
            writer.start("cluster", {
                "enabled": "true", "self": getattr(view, "name", ""),
            } | coordinator)
            for row in view.describe():
                writer.start("node", dict(row))
                writer.end()
        writer.end()
        return HttpResponse(200, writer.getvalue())

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
            return _plain(405, f"method {method} not allowed on /dav")
        return _plain(response.status, response.body)

    # -- structured errors ---------------------------------------------------------

    #: The envelope builder, shared with the worker pool (which must
    #: answer shed/expired requests without an API object in hand).
    _error = staticmethod(error_response)

    # -- stylesheet management ----------------------------------------------------

    def install_stylesheet(self, name: str, xml: str) -> None:
        """Store (and pre-validate) a named composition stylesheet."""
        compile_stylesheet(xml)  # raises XsltError on a bad sheet
        self.dav.put(f"{STYLESHEET_FOLDER}/{name}", xml)
