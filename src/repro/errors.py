"""Exception hierarchy for the Lean Middleware reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at the public-API boundary.  Each subsystem raises the
most specific subclass that applies; messages always carry the offending
name or value so failures are diagnosable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# ORDBMS substrate
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors raised by the ORDBMS substrate."""


class CatalogError(DatabaseError):
    """A schema object (table, index, column) is missing or duplicated."""


class SchemaError(DatabaseError):
    """A table or column definition is invalid."""


class TypeMismatchError(DatabaseError):
    """A value does not conform to the declared column type."""


class ConstraintError(DatabaseError):
    """A NOT NULL, primary-key, or unique constraint was violated."""


class RowIdError(DatabaseError):
    """A physical ROWID is malformed or refers to a missing row."""


class TransactionError(DatabaseError):
    """Illegal transaction state transition (e.g. commit with no begin)."""


class WalError(DatabaseError):
    """Base class for write-ahead-log failures (device, format, replay)."""


class CorruptLogError(WalError):
    """A WAL record failed its CRC or structure check *mid-log*.

    A bad record followed by well-formed records cannot be a torn tail
    (torn writes only ever damage the end of the log), so the log has
    been corrupted in place and replaying past the damage would apply
    garbage.  Torn tails are handled silently — truncated, never raised.
    """


class RecoveryError(WalError):
    """Crash recovery could not reconstruct a consistent database.

    Raised when the log disagrees with the checkpoint it claims to
    extend — a replayed insert lands at the wrong physical address, a
    record names an unknown table or transaction, or the checkpoint
    itself fails its integrity check.
    """


# ---------------------------------------------------------------------------
# SGML / document layer
# ---------------------------------------------------------------------------


class SgmlError(ReproError):
    """Base class for SGML/XML parsing errors."""


class SgmlSyntaxError(SgmlError):
    """The input could not be parsed even under tolerant rules."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ConverterError(ReproError):
    """A document converter failed or no converter matched the input."""


class UnsupportedFormatError(ConverterError):
    """No registered converter recognises the document format."""


# ---------------------------------------------------------------------------
# XML store and query engine
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for NETMARK XML Store failures."""


class DocumentNotFoundError(StoreError):
    """A document id or name does not exist in the store."""


class FsckError(StoreError):
    """The store consistency checker was misused or could not run.

    Note the asymmetry: *violations found in the data* are reported in
    the structured :class:`repro.store.fsck.FsckReport`, never raised —
    fsck's job is to describe damage, not to crash on it.  This error
    covers the checker itself failing (unknown repair code, a database
    without the NETMARK schema).
    """


class QueryError(ReproError):
    """Base class for XDB Query failures."""


class QuerySyntaxError(QueryError):
    """An XDB query string could not be parsed."""


class QueryTimeoutError(QueryError):
    """A query ran past its deadline and was cancelled cooperatively.

    Raised at a plan batch boundary (or a router fan-out boundary) when
    the request's :class:`~repro.resilience.deadline.Budget` expires and
    the caller did not ask for partial results (``Partial=1``).  The
    HTTP layer maps this to 504 with a ``deadline-exceeded`` envelope —
    the query was well-formed, the server just ran out of time.
    """


class QueryCancelledError(QueryError):
    """A query was cancelled by its submitter before it finished.

    Cooperative: the executing plan observes the request's
    :class:`~repro.resilience.deadline.CancellationToken` at batch
    boundaries and stops doing work for a client that is no longer
    waiting (e.g. a :class:`~repro.server.workers.ResponseFuture` whose
    ``result(timeout)`` expired).
    """


# ---------------------------------------------------------------------------
# XSLT subset
# ---------------------------------------------------------------------------


class XsltError(ReproError):
    """Base class for stylesheet compilation/execution failures."""


class XPathError(XsltError):
    """An XPath expression is outside the supported subset or malformed."""


# ---------------------------------------------------------------------------
# Server / federation
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for the WebDAV/HTTP server layer."""


class WebDavError(ServerError):
    """A WebDAV request failed; carries the HTTP-style status code."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"{status}: {message}")


class FederationError(ReproError):
    """Base class for databank/router failures."""


class UnknownDatabankError(FederationError):
    """A query named a databank that was never registered."""


class CapabilityError(FederationError):
    """A source was asked to execute a query it does not support natively."""


class AllSourcesFailedError(FederationError):
    """Every source in a fan-out failed or was skipped; no answer exists.

    The router degrades to partial results while at least one source
    answers; only a total loss raises.  The HTTP layer maps this to 503
    (the service is temporarily unable to answer, not broken).
    """


# ---------------------------------------------------------------------------
# Resilience (fault injection, retries, circuit breakers)
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Base class for fault-injection and resilience-policy failures.

    Errors in this branch model *operational* trouble — a remote that is
    down, slow, or deliberately fault-injected — as opposed to logical
    errors (bad query, missing document).  Retry policies treat this
    branch as transient by default.
    """


class SourceUnavailableError(ResilienceError):
    """A component (source, store, filesystem) refused an operation.

    Raised by :class:`repro.resilience.faults.FaultPlan` proxies to model
    a remote that is down; carries the ``component.operation`` site so
    post-mortems can attribute the outage.
    """


class SourceTimeoutError(ResilienceError):
    """An operation exceeded its (logical) time budget.

    Deterministic analogue of a wall-clock timeout: the fault injector
    advances the :class:`~repro.resilience.clock.LogicalClock` by the
    configured latency, then raises this.
    """


class CircuitOpenError(ResilienceError):
    """A circuit breaker is open; the protected call was not attempted.

    Never retried by :class:`~repro.resilience.retry.RetryPolicy` —
    retrying an open circuit would defeat its purpose (shedding load
    from a failing component until the cooldown elapses).
    """


class CrashError(BaseException):
    """An injected process death (crash-point testing only).

    Deliberately derives from :class:`BaseException`, *not*
    :class:`ReproError`: a crash models SIGKILL, so no library-level
    ``except ReproError`` handler (daemon quarantine, retry policies,
    the HTTP error mapper) may observe or absorb it — the "process" is
    simply gone.  Only the crash harness itself catches it, at the
    boundary that stands in for the operating system.
    """


# ---------------------------------------------------------------------------
# Cluster (replication, election, distributed commit)
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for the replicated-cluster layer.

    Covers membership, WAL shipping and election.
    Operational unavailability (a partitioned peer) is modelled with the
    resilience vocabulary (:class:`SourceUnavailableError`); this branch
    is for cluster-protocol failures proper.
    """


class NoQuorumError(ClusterError):
    """The cluster cannot form a write quorum; ingest is refused.

    Raised instead of accepting a write that could not be replicated to
    a majority — accepting it would risk losing an acknowledged ingest
    on the next failover, the one guarantee the cluster exists to keep.
    """


class ReplicaQuarantinedError(ClusterError):
    """A replica's shipped log failed verification and was isolated.

    Mid-stream corruption on a follower (a failed CRC with well-formed
    records after it) means that replica's history can no longer be
    trusted; it is quarantined — excluded from reads, acks and elections
    — rather than crashing the cluster.  Rejoining requires a full
    checkpoint resync.
    """


# ---------------------------------------------------------------------------
# Workloads / experiment support
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """Base class for corpus/workload generation failures."""


class CorpusFormatError(WorkloadError):
    """A corpus spec named a document format with no renderer."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """The invariant analyzer was misconfigured (a non-monotone transfer)."""


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class MediatorError(ReproError):
    """Base class for the GAV-mediator baseline."""


class MappingError(MediatorError):
    """A GAV view mapping is inconsistent with the declared schemas."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObservabilityError(ReproError):
    """Misuse of the observability layer (bad metric name, span nesting)."""
