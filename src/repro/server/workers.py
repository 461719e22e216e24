"""Multi-worker serving: a thread pool over the in-process HTTP API.

The paper's NETMARK serves many WebDAV/HTTP clients at once while the
daemon ingests in the background.  This module is that front end for the
in-process API: :class:`WorkerPool` runs N worker threads pulling
requests off one shared queue, and :class:`IngestThread` runs the daemon
poll loop beside them.  The two sides never block each other:

* every read request executes against its own MVCC snapshot (pinned
  inside :class:`~repro.server.http.NetmarkHttpApi`), so workers read
  lock-free via the seqlock/version-history protocol of
  :mod:`repro.ordbms.mvcc`;
* the daemon is the database's single writer — :class:`IngestThread` is
  just that writer moved off the caller's thread.

Overload protection (attach an
:class:`~repro.server.overload.AdmissionController`):

* the queue becomes **bounded**; a submit against a full queue is shed
  *immediately* — its future resolves to 503 + ``Retry-After``, no
  worker ever sees it;
* every request gets a :class:`~repro.resilience.deadline.Budget`
  started at **enqueue** time (``deadline_ticks``), so queue wait counts
  against the deadline and a worker refuses (504) any job that expired
  while queued — no request ever *executes* after its deadline;
* a submitter whose ``result(timeout)`` expires cancels the job's
  token, so an abandoned request is skipped at dequeue (or stops at the
  plan's next batch boundary) instead of burning a worker for nobody.

Thread-safety map (every shared location, with its guard):

* the request queue — ``queue.Queue``, internally locked;
* pending responses — per-request :class:`threading.Event` handoff;
* cancellation — per-request token (:class:`threading.Event` latch);
* admission pressure — ``AdmissionController._lock``;
* metric counters — the registry lock (:mod:`repro.obs.metrics`);
* snapshot pins — ``MvccState._pin_lock``;
* table data — the seqlock protocol (single writer, optimistic readers).

Typical use::

    pool = WorkerPool(api, workers=4)
    pool.start()
    futures = [pool.submit("GET", "/search?Context=Budget") for _ in range(32)]
    responses = [future.result() for future in futures]
    pool.stop()

Deterministic use (benchmarks, overload drills): ``manual=True`` runs no
threads — ``submit`` enqueues and :meth:`WorkerPool.serve_pending`
processes on the calling thread, so an overload scenario on the logical
clock replays tick-for-tick.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ServerError
from repro.resilience.clock import LogicalClock
from repro.resilience.deadline import Budget, CancellationToken, TickSource
from repro.server.http import (
    RETRY_AFTER_SECONDS,
    HttpResponse,
    error_response,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.daemon import IngestRecord, NetmarkDaemon
    from repro.server.http import NetmarkHttpApi
    from repro.server.overload import AdmissionController

__all__ = ["IngestThread", "ResponseFuture", "WorkerPool"]


class ResponseFuture:
    """Handoff slot for one submitted request (a minimal future).

    ``result()`` blocks until a worker has produced the response.  A
    request that raised instead of responding re-raises the exception in
    the waiting thread — errors surface where the caller is, never die
    silently inside a worker.

    A future carries its request's cancellation token: ``cancel()``
    withdraws the request cooperatively, and a ``result(timeout)`` that
    expires cancels automatically — a submitter that stopped waiting
    must not leave its job consuming a worker (or a queue slot) for an
    answer nobody will read.
    """

    __slots__ = ("_done", "_response", "_error", "token")

    def __init__(self, token: CancellationToken | None = None) -> None:
        self._done = threading.Event()
        # repro: guarded-by(_done) written by exactly one worker before
        # the event is set; readers wait on the event first.
        self._response: HttpResponse | None = None
        # repro: guarded-by(_done) same single-writer-then-publish scheme.
        self._error: BaseException | None = None
        #: The request's cancel latch (None for token-less futures).
        self.token = token

    def _fulfill(self, response: HttpResponse) -> None:
        self._response = response
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self, reason: str = "cancelled by submitter") -> bool:
        """Withdraw the request cooperatively (False if already done).

        Cancellation is advisory: a worker observes it at dequeue or at
        the plan's next batch boundary, answering 499 either way.
        """
        if self.token is None or self._done.is_set():
            return False
        self.token.cancel(reason)
        return True

    def result(self, timeout: float | None = None) -> HttpResponse:
        if not self._done.wait(timeout):
            # The abandoned-request fix: an expired wait marks the job
            # cancelled so a worker that reaches it skips the work.
            if self.token is not None and not self.token.cancelled:
                self.token.cancel("submitter stopped waiting for the response")
                obs.inc("repro_server_requests_abandoned_total")
            raise ServerError("request not answered within timeout")
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class _Job:
    """One queued request: what to run plus where to publish the answer."""

    __slots__ = ("method", "target", "body", "future", "budget")

    def __init__(
        self,
        method: str,
        target: str,
        body: str,
        future: ResponseFuture,
        budget: Budget,
    ) -> None:
        self.method = method
        self.target = target
        self.body = body
        self.future = future
        self.budget = budget


#: Queue sentinel telling one worker to exit its loop.
_POISON = None


class WorkerPool:
    """N worker threads answering API requests from one shared queue.

    The pool owns only the dispatch: all request semantics (routing,
    snapshots, error envelopes) live in the API object, which must be
    thread-safe for reads — that is exactly what the MVCC snapshot work
    makes true.  Per-worker request counts are published as
    ``repro_server_worker_requests_total{worker=N}`` so a stuck or slow
    worker shows up in ``/metrics``.

    ``admission`` bounds the queue at ``admission.queue_limit`` and
    feeds the shed/brownout pressure signal; ``deadline_ticks`` starts
    every request's deadline at enqueue time on ``clock`` (defaulting to
    the API's clock, so queue wait and execution share one timeline).
    ``manual=True`` runs no threads; drive with :meth:`serve_pending`.
    """

    def __init__(
        self,
        api: "NetmarkHttpApi",
        workers: int = 4,
        admission: "AdmissionController | None" = None,
        deadline_ticks: int | None = None,
        clock: TickSource | None = None,
        manual: bool = False,
    ) -> None:
        if workers < 1:
            raise ServerError("a worker pool needs at least one worker")
        if deadline_ticks is not None and deadline_ticks <= 0:
            raise ServerError("deadline_ticks must be positive")
        self.api = api
        self.workers = workers
        self.admission = admission
        self.deadline_ticks = deadline_ticks
        self.manual = manual
        api_clock = getattr(api, "clock", None)
        self.clock: TickSource = (
            clock
            if clock is not None
            else api_clock if api_clock is not None else LogicalClock()
        )
        # One controller drives both halves of overload protection: the
        # pool sheds at the queue, the API browns searches out.  Wire the
        # API side up unless the caller configured it differently.
        if admission is not None and getattr(api, "admission", None) is None:
            api.admission = admission
        maxsize = admission.queue_limit if admission is not None else 0
        #: Internally locked; the only channel between callers and workers.
        self._queue: queue.Queue[_Job | None] = queue.Queue(maxsize=maxsize)
        # repro: guarded-by(gil) list append/iterate only from the
        # controlling thread (start/stop are not concurrent with each other).
        self._threads: list[threading.Thread] = []
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self.manual:
            raise ServerError(
                "a manual pool has no worker threads; drive it with "
                "serve_pending()"
            )
        if self._started:
            return
        self._started = True
        for number in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(number,),
                name=f"netmark-worker-{number}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, timeout: float | None = None) -> int:
        """Stop the pool; returns the number of workers left unjoined.

        Pending (unstarted) jobs are *rejected* — each future resolves
        to 503 ``shutting-down`` rather than hanging its submitter
        forever.  With a ``timeout``, each worker gets that many seconds
        to finish its in-flight request; workers still alive afterwards
        are abandoned (they are daemon threads), counted, and published
        as ``repro_server_workers_unjoined_total`` so a hung handler is
        an observable event instead of a silent wedge.
        """
        if self.manual:
            self._drain_rejecting()
            return 0
        if not self._started:
            return 0
        self._drain_rejecting()
        for _ in self._threads:
            self._inject_poison()
        unjoined = 0
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                unjoined += 1
        if unjoined:
            obs.inc("repro_server_workers_unjoined_total", unjoined)
        # Jobs that slipped in during shutdown (and poisons meant for
        # workers that never came back) must not strand their submitters.
        self._drain_rejecting()
        self._threads.clear()
        self._started = False
        return unjoined

    def _inject_poison(self) -> None:
        """Queue one poison pill, evicting a pending job if full."""
        while True:
            try:
                self._queue.put_nowait(_POISON)
                return
            except queue.Full:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    continue  # a worker freed the slot meanwhile
                self._queue.task_done()
                if item is _POISON:
                    return  # the full queue already holds a pill
                self._reject(item)

    def _drain_rejecting(self) -> int:
        rejected = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                obs.set_gauge("repro_server_queue_depth", self._queue.qsize())
                return rejected
            self._queue.task_done()
            if item is not _POISON:
                self._reject(item)
                rejected += 1

    @staticmethod
    def _reject(job: _Job) -> None:
        if job.future.done():
            return
        obs.inc("repro_server_requests_rejected_total", reason="shutdown")
        job.future._fulfill(error_response(
            503, "shutting-down",
            "server is shutting down; request not executed",
            retry_after=RETRY_AFTER_SECONDS,
        ))

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- request submission ------------------------------------------------

    def submit(
        self, method: str, target: str, body: str = ""
    ) -> ResponseFuture:
        """Enqueue one request; returns immediately with its future.

        The returned future is *always* resolved eventually: by a
        worker, by shedding (503, queue full), by deadline expiry (504)
        or by shutdown rejection (503) — a submitter that waits without
        a timeout cannot hang on a request the pool dropped.
        """
        if not self._started and not self.manual:
            raise ServerError("worker pool is not running (call start())")
        token = CancellationToken()
        budget = Budget(token=token)
        if self.deadline_ticks is not None:
            # Started here, at admission — queue wait spends the budget.
            budget.tighten(self.clock, self.deadline_ticks)
        future = ResponseFuture(token=token)
        job = _Job(method, target, body, future, budget)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            # Shed at the front door: reply now, cheaply, with back-off
            # advice — never queue beyond the configured bound.
            if self.admission is not None:
                self.admission.on_shed()
            future._fulfill(error_response(
                503, "overloaded",
                "request queue is full; retry shortly",
                retry_after=RETRY_AFTER_SECONDS,
            ))
            return future
        if self.admission is not None:
            self.admission.on_accept()
        obs.set_gauge("repro_server_queue_depth", self._queue.qsize())
        return future

    def request(
        self, method: str, target: str, body: str = ""
    ) -> HttpResponse:
        """Submit and wait — the drop-in equivalent of ``api.request``."""
        return self.submit(method, target, body).result()

    # -- the worker loop ---------------------------------------------------

    def _worker_loop(self, number: int) -> None:
        label = str(number)
        while True:
            job = self._queue.get()
            try:
                if job is _POISON:
                    return
                obs.set_gauge("repro_server_queue_depth", self._queue.qsize())
                self._process(job, label)
            finally:
                self._queue.task_done()

    def _process(self, job: _Job, label: str) -> None:
        """Answer one dequeued job (worker thread or manual drive)."""
        budget = job.budget
        if budget.cancelled:
            # Dequeue-time check: never run work nobody is waiting for.
            obs.inc("repro_server_requests_cancelled_total", stage="queued")
            if not job.future.done():
                job.future._fulfill(error_response(
                    499, "cancelled",
                    "request cancelled before execution: "
                    + (budget.token.reason if budget.token else ""),
                ))
        elif budget.expired:
            # The deadline ran out while the job sat in the queue; the
            # guarantee "no request executes after its deadline" is
            # enforced right here, before any API work happens.
            obs.inc("repro_server_requests_timed_out_total", stage="queued")
            job.future._fulfill(error_response(
                504, "deadline-exceeded",
                "deadline expired while queued; request not executed",
                retry_after=RETRY_AFTER_SECONDS,
            ))
        else:
            try:
                response = self.api.request(
                    job.method, job.target, job.body, budget=job.budget
                )
            except BaseException as error:  # lint: allow-broad-except(workers survive any request failure; the exception is republished to the submitter via the future)
                job.future._fail(error)
            else:
                job.future._fulfill(response)
                if budget.deadline is not None:
                    # How close did we cut it?  Slack near zero across
                    # the fleet means deadlines are about to start firing.
                    obs.observe(
                        "repro_server_deadline_slack_ticks",
                        budget.deadline.remaining(),
                    )
        obs.inc("repro_server_worker_requests_total", worker=label)

    # -- manual (deterministic) drive --------------------------------------

    def serve_one(self) -> bool:
        """Process one queued job on the calling thread (manual mode)."""
        if not self.manual:
            raise ServerError(
                "serve_one()/serve_pending() require a manual pool"
            )
        try:
            job = self._queue.get_nowait()
        except queue.Empty:
            return False
        try:
            if job is not _POISON:
                self._process(job, "manual")
        finally:
            self._queue.task_done()
        obs.set_gauge("repro_server_queue_depth", self._queue.qsize())
        return True

    def serve_pending(self, max_jobs: int | None = None) -> int:
        """Drain up to ``max_jobs`` queued jobs; returns the count served.

        The deterministic scheduler for overload drills: interleave
        ``submit`` bursts, ``clock.advance`` and ``serve_pending`` slots
        and the whole scenario replays exactly.
        """
        served = 0
        while (max_jobs is None or served < max_jobs) and self.serve_one():
            served += 1
        return served

    def queue_depth(self) -> int:
        """Jobs currently waiting (approximate under concurrency)."""
        return self._queue.qsize()


class IngestThread:
    """The daemon's poll loop on its own thread — the single MVCC writer.

    Started beside a :class:`WorkerPool`, it keeps polling the drop
    folder until :meth:`stop` is called *and* the folder is drained (or
    ``drain=False`` stops it at the next poll boundary).  Readers never
    wait on it; it never waits on readers.

    ``heartbeats`` ticks up once per poll iteration and is mirrored to
    the ``repro_server_ingest_heartbeat`` gauge: a *slow* converter
    keeps the heartbeat advancing (ingest is alive, just busy), while a
    heartbeat frozen across observations is the signature of a *hung*
    converter — the one condition a watchdog must distinguish.
    """

    def __init__(self, daemon: "NetmarkDaemon") -> None:
        self.daemon = daemon
        self._stop = threading.Event()
        # repro: guarded-by(gil) int increments on the ingest thread only;
        # other threads read a possibly slightly-stale count, which is fine.
        self.ingested = 0
        # repro: guarded-by(gil) same scheme: single-writer liveness
        # counter, racy-but-monotonic for watchdog readers.
        self.heartbeats = 0
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="netmark-ingest", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = None) -> int:
        """Signal the loop to finish, join it, return documents ingested."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        return self.ingested

    def _run(self) -> None:
        while True:
            self.heartbeats += 1
            obs.set_gauge("repro_server_ingest_heartbeat", self.heartbeats)
            records = self.daemon.poll()
            self.ingested += sum(1 for record in records if record.ok)
            if not records and self._stop.is_set():
                return
            if not records:
                # Idle poll: yield briefly instead of spinning the GIL
                # away from the workers.
                self._stop.wait(0.001)

    def records(self) -> "list[IngestRecord]":
        """The daemon's full ingest history (stable once stopped)."""
        return list(self.daemon.history)
