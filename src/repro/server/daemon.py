"""The NETMARK daemon: folder watching and ingestion.

"The 'NETMARK DAEMON' periodically picks up these documents, passes them
onto the 'SGML Parser', which converts the documents into XML.  The XML
documents are then stored in the 'NETMARK XML Store' in a schema-less
manner."

:class:`NetmarkDaemon` watches one drop folder on the virtual filesystem.
Each :meth:`poll` is one daemon wake-up: it finds files that are new or
modified since their last successful ingestion, runs them through the
converter registry and the store, and records an :class:`IngestRecord`
per attempt.  Failures are quarantined (the record carries the error; the
file moves to the ``errors/`` subfolder so the next poll does not retry a
poison document forever), successes move to ``processed/``.

Resilience: with a :class:`~repro.resilience.retry.RetryPolicy` the
daemon retries transient failures (deterministic backoff on its
:class:`~repro.resilience.clock.LogicalClock`) *before* quarantining,
and it remembers quarantined revisions by content — if a fault re-drops
a poison file, or the quarantine move itself fails and the file is left
behind, the next poll skips that exact revision instead of looping.

Durability: every ingest is journalled to ``<drop>/.journal/inflight``
before the store is touched and cleared once the outcome (success *or*
handled failure) has been recorded.  After a crash,
:meth:`NetmarkDaemon.startup_recovery` reads the journal and settles the
interrupted ingest: if its statement landed before the crash the
file is moved on to ``processed/`` (the bookkeeping the crash cut off);
if it did not, the file is quarantined to ``errors/`` rather than
retried blindly — a document that was mid-ingest when the process died
is a prime poison suspect.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ReproError
from repro.obs import NULL_TRACER, Tracer
from repro.resilience.clock import LogicalClock
from repro.resilience.retry import RetryPolicy, RetryStats, call_with_retry
from repro.server.vfs import VirtualFileSystem, base_name, normalize_path
from repro.store.compose import document_rows
from repro.store.xmlstore import XmlStore


def _digest(content: str) -> str:
    """Stable fingerprint of one file revision."""
    return hashlib.sha1(content.encode("utf-8", "replace")).hexdigest()


@dataclass(frozen=True)
class IngestRecord:
    """Outcome of one ingestion attempt."""

    path: str
    status: str  # "stored" | "failed"
    doc_id: int | None = None
    node_count: int = 0
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "stored"


@dataclass
class NetmarkDaemon:
    """Watches ``drop_folder`` and loads documents into ``store``."""

    store: XmlStore
    vfs: VirtualFileSystem
    drop_folder: str = "/incoming"
    # repro: guarded-by(gil) appended only by the ingest thread (the MVCC
    # single writer); other threads read via IngestThread.records() and
    # may observe a slightly stale prefix, never a torn record.
    history: list[IngestRecord] = field(default_factory=list)
    #: Retry transient failures this many times before quarantining
    #: (None: a single attempt, the pre-resilience behaviour).
    retry: RetryPolicy | None = None
    clock: LogicalClock = field(default_factory=LogicalClock)
    retry_seed: int = 0
    #: Span sink for the ingest pipeline; the no-op default costs one
    #: attribute check per stage.  Composition roots (``Netmark``) swap
    #: in a real :class:`~repro.obs.Tracer` to see poll/ingest stage
    #: trees.
    tracer: Tracer = NULL_TRACER
    #: Set by :meth:`run_until_idle` when ``max_polls`` ran out with work
    #: still pending — the budget was hit, not the folder drained.
    budget_exhausted: bool = False

    def __post_init__(self) -> None:
        self.drop_folder = normalize_path(self.drop_folder)
        self._retry_rng = random.Random(self.retry_seed)
        #: ``(name, digest)`` of revisions that must not be re-ingested:
        #: quarantined poison and files stuck in place by a failed move.
        #: ``digest=None`` wildcards every revision of that name (used
        #: when the content itself is unreadable).
        self._skip_revisions: set[tuple[str, str | None]] = set()
        folders = (
            self.drop_folder,
            self.processed_folder,
            self.error_folder,
            self.journal_folder,
        )
        for folder in folders:
            if not self.vfs.is_dir(folder):
                self.vfs.mkdir(folder, parents=True)

    @property
    def processed_folder(self) -> str:
        return self.drop_folder + "/processed"

    @property
    def error_folder(self) -> str:
        return self.drop_folder + "/errors"

    @property
    def journal_folder(self) -> str:
        return self.drop_folder + "/.journal"

    @property
    def journal_path(self) -> str:
        """The in-flight ingest journal (a subfolder, so polls skip it)."""
        return self.journal_folder + "/inflight"

    # -- the daemon loop body ---------------------------------------------------

    def pending_files(self) -> list[str]:
        """Files sitting directly in the drop folder, in name order (the
        order DOC_IDs, the WAL and replay follow); folders are not read."""
        folder = self.drop_folder
        names = self.vfs.listdir(folder) if self.vfs.is_dir(folder) else []
        paths = [f"{folder}/{name}" for name in names if not name.endswith("/")]
        return [path for path in paths if not self._is_skipped(path)]

    def poll(self) -> list[IngestRecord]:
        """One wake-up: ingest everything pending; returns the records."""
        records: list[IngestRecord] = []
        pending = self.pending_files()
        with self.tracer.span("daemon.poll", pending=len(pending)):
            for path in pending:
                records.append(self._ingest(path))
        self.history.extend(records)
        return records

    def run_until_idle(self, max_polls: int = 100) -> int:
        """Poll until the drop folder is empty; returns ingested count.

        If ``max_polls`` wake-ups were not enough to drain the folder,
        :attr:`budget_exhausted` is set so callers can tell "done" from
        "gave up" — previously the budget ran out silently.
        """
        self.budget_exhausted = False
        total = 0
        for _ in range(max_polls):
            records = self.poll()
            if not records:
                return total
            total += sum(1 for record in records if record.ok)
        self.budget_exhausted = bool(self.pending_files())
        return total

    # -- crash recovery -----------------------------------------------------------

    def startup_recovery(self) -> list[IngestRecord]:
        """Settle any ingest the journal says was in flight at a crash.

        Call once after reopening the store (``XmlStore.open``) and before
        the first :meth:`poll`.  For each journalled entry: if the store
        already holds the journalled revision, the ingest's statement
        landed before the crash and only the file bookkeeping is
        missing — the original is moved to ``processed/`` and a ``stored``
        record is emitted.  Otherwise its record never landed whole and
        recovery dropped it; the file is quarantined to ``errors/`` (``failed``
        record) instead of being retried, since a document that took the
        process down once should not get a second unsupervised try.
        """
        records: list[IngestRecord] = []
        if not self.vfs.is_file(self.journal_path):
            return records
        for line in self.vfs.read(self.journal_path).splitlines():
            if not line.strip():
                continue
            path, _, rest = line.partition("\t")
            _digest_text, _, marker_text = rest.partition("\t")
            try:
                marker = int(marker_text)
            except ValueError:
                marker = 1
            record = self._settle_journalled(path, marker)
            obs.inc(
                "repro_server_startup_settled_total", status=record.status
            )
            records.append(record)
        self._journal_clear()
        self.history.extend(records)
        return records

    def _settle_journalled(self, path: str, marker: int) -> IngestRecord:
        name = base_name(path)
        if self._journal_evidence(name) >= marker:
            if self.vfs.is_file(path):
                self._move(path, self.processed_folder)
            entry = self.store.lookup_by_name(name)
            doc_id, node_count, error = None if entry is None else entry.doc_id, 0, ""
            if doc_id is not None:
                try:
                    node_count = len(document_rows(doc_id, self.store.new_accessor()))
                except ReproError as failure:  # the statement landed; its rows are fsck's to judge
                    error = f"stored, but its rows could not be read: {failure}"
            return IngestRecord(
                path=path, status="stored", doc_id=doc_id, node_count=node_count, error=error
            )
        if self.vfs.is_file(path):
            self._remember_skip(path)
            self._move(path, self.error_folder)
        return IngestRecord(
            path=path,
            status="failed",
            error="interrupted by a crash; quarantined on restart",
        )

    def _journal_begin(self, path: str, content: str) -> None:
        """Record the ingest about to run, durably, before the store sees it."""
        name = base_name(path)
        line = f"{path}\t{_digest(content)}\t{self._journal_evidence(name) + 1}\n"
        self.vfs.write(self.journal_path, line)

    def _journal_clear(self) -> None:
        try:
            self.vfs.write(self.journal_path, "")
        except ReproError:
            pass  # a stale journal is settled (idempotently) on next startup

    def _journal_evidence(self, name: str) -> int:
        """What ingests of ``name`` have left in the store so far: the
        stored revision number (0 when none).  An ingest that commits
        raises it by one — checkable after recovery without trusting
        any in-memory state.
        """
        existing = self.store.lookup_by_name(name)
        return 0 if existing is None else existing.revision

    # -- internals ------------------------------------------------------------------

    def _ingest(self, path: str) -> IngestRecord:
        with self.tracer.span("daemon.ingest", path=path) as span:
            record = self._ingest_once(path)
            span.annotate(status=record.status, attempts=record.attempts)
        obs.inc("repro_server_ingest_total", status=record.status)
        if record.node_count:
            obs.inc("repro_server_ingest_nodes_total", record.node_count)
        return record

    def _ingest_once(self, path: str) -> IngestRecord:
        name = base_name(path)
        stats = RetryStats()
        try:
            with self.tracer.span("daemon.read"):
                content = self.vfs.read(path)
                modified = self.vfs.entry(path).modified
            with self.tracer.span("daemon.journal"):
                self._journal_begin(path, content)

            def store_once():
                # A re-dropped name supersedes the stored document (new
                # revision) — the WebDAV collaborative-editing behaviour.
                return self.store.replace_text(
                    text=content, name=name, file_date=modified
                )

            with self.tracer.span("daemon.store", name=name):
                if self.retry is not None:
                    result = call_with_retry(
                        store_once, self.retry, self.clock,
                        self._retry_rng, stats,
                    )
                else:
                    result = store_once()
        except ReproError as error:
            # The failure was *observed* — quarantining records it, so the
            # journal entry has served its purpose.  (A crash never reaches
            # this handler: CrashError is a BaseException by design.)
            with self.tracer.span("daemon.quarantine"):
                self._journal_clear()
                self._remember_skip(path)
                self._move(path, self.error_folder)
            return IngestRecord(
                path=path,
                status="failed",
                error=str(error),
                attempts=max(stats.attempts, 1),
            )
        with self.tracer.span("daemon.finalize"):
            self._move(path, self.processed_folder)
            self._journal_clear()
        return IngestRecord(
            path=path,
            status="stored",
            doc_id=result.doc_id,
            node_count=result.node_count,
            attempts=max(stats.attempts, 1),
        )

    def _move(self, path: str, folder: str) -> None:
        name = base_name(path)
        target = folder + "/" + name
        try:
            if self.vfs.exists(target):
                # Disambiguate repeats with the logical timestamp; the stamp
                # alone can collide (same name, same %H%M%S second — or a day
                # apart on the logical clock), so fall back to a counter.
                stamp = self.vfs.entry(path).modified.strftime("%H%M%S")
                target = f"{folder}/{stamp}-{name}"
                counter = 1
                while self.vfs.exists(target):
                    target = f"{folder}/{stamp}-{counter}-{name}"
                    counter += 1
            self.vfs.move(path, target)
        except ReproError:
            # The move itself failed (e.g. an injected filesystem fault):
            # the file stays where it is, but its revision is remembered
            # so the next poll does not pick it up again.
            self._remember_skip(path)

    def _remember_skip(self, path: str) -> None:
        name = base_name(path)
        try:
            self._skip_revisions.add((name, _digest(self.vfs.read(path))))
        except ReproError:
            # Content unreadable: skip every revision of this name rather
            # than loop on a file we cannot even fingerprint.
            self._skip_revisions.add((name, None))

    def _is_skipped(self, path: str) -> bool:
        name = base_name(path)
        if (name, None) in self._skip_revisions:
            return True
        try:
            digest = _digest(self.vfs.read(path))
        except ReproError:
            return False  # let _ingest observe (and record) the failure
        return (name, digest) in self._skip_revisions

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        stored = sum(1 for record in self.history if record.ok)
        failed = len(self.history) - stored
        return {
            "stored": stored,
            "failed": failed,
            "nodes": sum(record.node_count for record in self.history),
        }
