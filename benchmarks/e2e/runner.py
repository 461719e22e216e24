"""Runs one workload in this interpreter: set up, check, time, account.

One closed-loop client in one thread drives the real facade —
``Netmark.drop``/``poll`` for writes, ``NetmarkHttpApi.request`` for
reads, ``Netmark(device=...)`` for restarts.  With one client nothing
queues, so a faster layer saves at most its self-time share of an
operation.  Every timed interval is logged on the :class:`SpeedTrace`
clock and converted to nominal seconds once the run is over (see
:mod:`timing`).
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
from collections import Counter
from itertools import islice
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import Netmark, obs
from repro.workloads import HEADINGS

from device import MeteredLogDevice, crash_copy
from plans import (
    DOCUMENTS,
    PLANTED_TERM,
    REPORT_XSL,
    STYLESHEET,
    Op,
    Plan,
    build_plan,
    cold_queries,
    compose_queries,
)
from timing import SpeedTrace, percentile
from tracing import END, LAYER, OP, START, Recorder, layer_self_by_op

#: In ``mixed_rw`` every Nth read is re-issued uncached and compared.
RECHECK_EVERY = 20

#: What may differ between a cached and an uncached answer: the hit
#: stamp on the envelope, and the ``Cache=0`` the request itself carried,
#: which the envelope echoes back inside its ``query`` attribute.
_TRANSPORT_ONLY = (' cached="true"', "&amp;Cache=0")


def body_digest(body: str) -> str:
    """Digest of a response body, ignoring only the transport-level marks."""
    for mark in _TRANSPORT_ONLY:
        body = body.replace(mark, "", 1)
    return hashlib.sha1(body.encode("utf-8")).hexdigest()


@dataclass
class Timed:
    """One timed interval on the speed trace's clock."""

    kind: str  # "read" | "write" | "recover" | "setup"
    start: float
    end: float
    #: Seconds of the interval spent waiting inside ``LogDevice.sync``.
    wait: float
    round: int = -1


class Meter:
    """Logs timed calls; converts them to nominal seconds afterwards."""

    def __init__(self, speed: SpeedTrace, recorder: Recorder | None = None) -> None:
        self.speed = speed
        self.recorder = recorder
        #: The device whose ``sync()`` wait is taken out of every interval.
        self.device: MeteredLogDevice = None  # set before the first timed call
        self.log: list[Timed] = []
        self.round = -1

    def timed(self, kind: str, function: Callable, *args: Any) -> Any:
        """Run ``function(*args)`` as one operation of ``kind``; its id is
        its position in :attr:`log`."""
        now = self.speed.now
        device = self.device
        synced = device.sync_seconds
        # Set-up is traced by nobody: its spans would outnumber the run's.
        recorder = self.recorder if kind != "setup" else None
        if recorder is not None:
            root = recorder.begin("op." + kind, len(self.log))
        started = now()
        try:
            return function(*args)
        finally:
            ended = now()
            if recorder is not None:
                recorder.end(root)
            self.log.append(
                Timed(kind, started, ended, device.sync_seconds - synced, self.round)
            )

    def nominal(self, entry: Timed) -> float:
        """Program seconds of ``entry`` on the nominal machine, device wait excluded."""
        return self.factor(entry) * (entry.end - entry.start - entry.wait)

    def factor(self, entry: Timed) -> float:
        """Nominal seconds per raw second of ``entry``'s program time."""
        return self.speed.nominal(entry.start, entry.end) / (entry.end - entry.start)


class Tally:
    """Sums counter deltas over the timed segments of a run."""

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self._source: tuple[Netmark, MeteredLogDevice] | None = None
        self._base: dict[str, float] = {}

    @staticmethod
    def _read(node: Netmark, device: MeteredLogDevice) -> dict[str, float]:
        values = {
            key: value
            for key, value in obs.snapshot().items()
            if key.startswith("repro_") and "_bucket" not in key
        }
        for name, value in vars(node.database.stats).items():
            values["db." + name] = value
        cache = node.api.engine.cache
        values["cache.hits"] = cache.hits
        values["cache.misses"] = cache.misses
        values["cache.evictions"] = cache.evictions
        values["wal.appends"] = device.appends
        values["wal.syncs"] = device.syncs
        values["wal.bytes"] = device.wal_bytes()
        return values

    def start(self, node: Netmark, device: MeteredLogDevice) -> None:
        self._source = (node, device)
        self._base = self._read(node, device)

    def stop(self) -> None:
        assert self._source is not None
        for key, value in self._read(*self._source).items():
            self.totals[key] += value - self._base.get(key, 0)
        self._source = None

    def prefixed(self, prefix: str) -> float:
        """Sum of every series whose name starts with ``prefix`` (all labels)."""
        return sum(v for k, v in self.totals.items() if k.startswith(prefix))


@dataclass
class RunResult:
    """What one workload run measured."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Raw and per-kind numbers printed beside the metrics, never gated.
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


class WorkloadRun:
    """State of one run; :meth:`execute` is the whole life cycle."""

    def __init__(
        self,
        workload: str,
        seed: int,
        workdir: str,
        seconds: float,
        documents: int = DOCUMENTS,
        trace: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        #: Buys whole rounds at the plan's fixed price; never compared to a clock.
        self.seconds = seconds
        #: Smaller only in the benchmark's own tests.
        self.documents = documents
        self.speed = SpeedTrace()
        self.recorder = Recorder(self.speed.now) if trace else None
        self.meter = Meter(self.speed, self.recorder)
        self.tally = Tally()
        self.result = RunResult(workload, seed, trace)
        self.plan: Plan | None = None
        self._bases = 0
        self.records_replayed: list[int] = []
        self.response_bytes = 0
        #: Everything the run stored, set-up included: documents, their
        #: bytes, and what the WAL devices wrote and flushed for them.
        self.stored: Counter = Counter()
        self.peak_rss_kb = 0

    # -- small helpers -------------------------------------------------------

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.result.failures.append(message)

    def _base_path(self, label: str) -> str:
        self._bases += 1
        return os.path.join(self.workdir, f"{label}-{self._bases}")

    def _get(self, node: Netmark, target: str) -> str:
        """An untimed GET whose status is checked; returns the body."""
        response = node.api.request("GET", target)
        self.expect(response.status == 200, f"GET {target} answered {response.status}")
        return response.body

    def _device(self) -> MeteredLogDevice:
        """Fresh WAL files; their flush wait is what the meter takes out."""
        device = MeteredLogDevice(self._base_path("node"), self.speed.now)
        self.meter.device = device
        return device

    def _retire(self, device: MeteredLogDevice) -> None:
        self.stored["wal_bytes"] += device.wal_bytes()
        self.stored["syncs"] += device.syncs
        device.close()

    def _note_stored(self, texts: list[str]) -> None:
        self.stored["documents"] += len(texts)
        self.stored["user_bytes"] += sum(len(text.encode("utf-8")) for text in texts)

    # -- set-up --------------------------------------------------------------

    def _set_up(self, device: MeteredLogDevice) -> Netmark:
        """Generate the inputs and build the node: one ``setup_s`` sample."""
        self.plan = build_plan(self.workload, self.seed, self.documents)
        node = Netmark(self.workload, device=device)
        if self.plan.preload:
            records = node.ingest_many([(g.name, g.text) for g in self.plan.corpus])
            self.expect(
                len(records) == len(self.plan.corpus) and all(r.ok for r in records),
                "set-up: the corpus was not stored whole",
            )
            node.install_stylesheet(STYLESHEET, REPORT_XSL)
            self._note_stored([g.text for g in self.plan.corpus])
        return node

    def crash_reopen(self, vfs, device: MeteredLogDevice, acknowledged: int) -> Netmark:
        """Lose power, restart: one ``recover_s`` sample, durability checked.

        Recovery reads only what :func:`crash_copy` kept — the bytes
        flushed before the cut — so an acknowledged document that is
        missing afterwards is a failed operation.
        """
        survivor = crash_copy(device, self._base_path("crash"))
        self._retire(device)
        self.meter.device = survivor
        self.result.attempted += 1
        try:
            reopened = self.meter.timed("recover", _reopen, self.workload, survivor, vfs)
            recovery = reopened.store.last_recovery
            self.records_replayed.append(recovery.records_replayed if recovery else 0)
            missing = acknowledged - reopened.document_count
            self.expect(
                missing == 0,
                f"{missing} of {acknowledged} acknowledged documents missing after recovery",
            )
            self.verify_store(reopened)
            return reopened
        finally:
            survivor.close()

    def verify_store(self, node: Netmark) -> None:
        """Catalogue and match counts against the generator's ground truth."""
        plan = self.plan
        listed = self._get(node, "/docs").count("<document ")
        self.expect(listed == len(plan.corpus), f"/docs lists {listed} of {len(plan.corpus)}")
        truth = plan.heading_counts()
        for heading in HEADINGS:
            target = "/search?Context=" + heading.replace(" ", "+") + "&Cache=0"
            found = self._get(node, target).count("<result ")
            self.expect(
                found == truth[heading],
                f"Context={heading}: {found} matches, generator says {truth[heading]}",
            )
        found = self._get(node, f"/search?Content={PLANTED_TERM}&Cache=0").count("<result ")
        self.expect(
            found == plan.plant_count(),
            f"Content={PLANTED_TERM}: {found} matches, generator planted {plan.plant_count()}",
        )

    def expected_bodies(self, node: Netmark) -> dict[str, str]:
        """Digest every distinct request once, uncached; warm the cache."""
        if self.workload == "search_cold":
            return {t: body_digest(self._get(node, t)) for t in cold_queries()}
        if self.workload == "search_compose":
            targets = compose_queries()
            expected = {t: body_digest(self._get(node, t + "&Cache=0")) for t in targets}
            for target in targets:
                self._get(node, target)
            return expected
        return {}

    # -- the life cycle ------------------------------------------------------

    def execute(self) -> RunResult:
        if self.recorder is not None:
            self.recorder.install()
        self.speed.start()
        try:
            self._execute()
        finally:
            self.speed.stop()
            if self.recorder is not None:
                self.recorder.uninstall()
        self._account()
        return self.result

    def _execute(self) -> None:
        device = self._device()
        node = self.meter.timed("setup", self._set_up, device)
        plan = self.plan
        blocks = islice(plan.rounds(), plan.round_count(self.seconds))
        if plan.preload:
            self.verify_store(node)
            expected = self.expected_bodies(node)
            gc.collect()
            gc.freeze()
            for self.meter.round, block in enumerate(blocks):
                self._run_block(node, device, block, expected)
            self.peak_rss_kb = _max_rss_kb()
            self._retire(device)
        else:
            device.close()  # set-up opened a node only to price it
            gc.freeze()
            for self.meter.round, block in enumerate(blocks):
                # Every ingest round starts from an empty node of its own
                # and ends with a power cut.  The node before it is
                # collected first, so that memory peaks at one store.
                node = None
                gc.collect()
                device = self._device()
                node = Netmark(self.workload, device=device)
                acknowledged = self._run_block(node, device, block, {})
                vfs, node = node.vfs, None
                gc.collect()
                node = self.crash_reopen(vfs, device, acknowledged)
            # Read before fsck: the structural check is the benchmark's
            # doing and needs half again the memory of the store it checks.
            self.peak_rss_kb = _max_rss_kb()
            self.expect(node.fsck().ok, "fsck reports violations in the recovered store")

    def _run_block(
        self,
        node: Netmark,
        device: MeteredLogDevice,
        block: list[Op],
        expected: dict[str, str],
    ) -> int:
        """Time one round; returns how many writes were acknowledged."""
        timed = self.meter.timed
        request = node.api.request
        reads = 0
        acknowledged = 0
        self.tally.start(node, device)
        for op in block:
            self.result.attempted += 1
            if op.kind == "read":
                response = timed("read", request, "GET", op.target)
                self.response_bytes += len(response.body)
                reads += 1
                ok = response.status == 200
                if ok and expected:
                    ok = body_digest(response.body) == expected[op.target]
                elif ok and reads % RECHECK_EVERY == 0:
                    self.tally.stop()
                    fresh = self._get(node, op.target + "&Cache=0")
                    self.tally.start(node, device)
                    ok = body_digest(fresh) == body_digest(response.body)
                self.expect(ok, f"GET {op.target}: status {response.status} or wrong body")
            else:
                records = timed("write", _write, node, op)
                self._note_stored([op.body])
                stored = len(records) == 1 and records[0].ok
                acknowledged += stored
                self.expect(stored, f"drop {op.target}: not stored")
        self.tally.stop()
        return acknowledged

    # -- metrics -------------------------------------------------------------

    def _account(self) -> None:
        meter = self.meter
        nominal: dict[str, list[float]] = {"read": [], "write": [], "recover": [], "setup": []}
        rounds: dict[int, dict[str, list[float]]] = {}
        for entry in meter.log:
            seconds = meter.nominal(entry)
            nominal[entry.kind].append(seconds)
            if entry.kind in ("read", "write"):
                rounds.setdefault(entry.round, {"read": [], "write": []})[entry.kind].append(seconds)

        # Every statistic is taken per round, then the median round is
        # reported: a stall inside one round cannot move the result, and
        # rounds that differ (mixed_rw's store ages) each count once.
        def median_round(kind: str, fraction: float) -> float:
            return statistics.median(
                percentile(ops[kind], fraction) for ops in rounds.values() if ops[kind]
            )

        ops_per_s = statistics.median(
            (len(ops["read"]) + len(ops["write"])) / (sum(ops["read"]) + sum(ops["write"]))
            for ops in rounds.values()
        )
        raw = [e.end - e.start for e in meter.log if e.kind in ("read", "write")]
        result = self.result
        result.diagnostics = {
            "reads": len(nominal["read"]),
            "writes": len(nominal["write"]),
            "rounds": len(rounds),
            "ref_ms": self.speed.mean_ref_ms,
            "raw_op_p50_ms": percentile(raw, 0.50) * 1000.0,
            "raw_op_p90_ms": percentile(raw, 0.90) * 1000.0,
            "raw_op_p99_ms": percentile(raw, 0.99) * 1000.0,
            "op_p99_ms": percentile(nominal["read"] + nominal["write"], 0.99) * 1000.0,
            "raw_setup_s": sum(e.end - e.start for e in meter.log if e.kind == "setup"),
        }
        for kind in ("read", "write"):
            if nominal[kind]:
                result.diagnostics[f"{kind}_p50_ms"] = median_round(kind, 0.50) * 1000.0
                result.diagnostics[f"{kind}_p90_ms"] = median_round(kind, 0.90) * 1000.0
        recover_s = write_growth_x = 0.0
        if nominal["recover"]:
            recover_s = statistics.median(nominal["recover"])
            # Ingest cost grows with the store: last fifth of a round over the first.
            fifth = max(self.documents // 5, 1)
            write_growth_x = statistics.median(
                statistics.median(ops["write"][-fifth:]) / statistics.median(ops["write"][:fifth])
                for ops in rounds.values()
            )
            result.diagnostics.update(recover_s=recover_s, write_growth_x=write_growth_x)
        if self.recorder is not None:
            result.metrics = self._layer_metrics(ops_per_s, recover_s, write_growth_x)
            return
        # The workload's own operation: a read wherever it reads, else a write.
        kind = "read" if nominal["read"] else "write"
        stored = self.stored
        result.metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": median_round(kind, 0.50) * 1000.0,
            "op_p90_ms": median_round(kind, 0.90) * 1000.0,
            "wal_bytes_per_user_byte": stored["wal_bytes"] / stored["user_bytes"],
            "fsyncs_per_write": stored["syncs"] / stored["documents"],
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
            "setup_s": nominal["setup"][0],
        }

    def _layer_metrics(
        self, traced_ops_per_s: float, recover_s: float, write_growth_x: float
    ) -> dict[str, float]:
        log = self.meter.log
        counts = Counter(entry.kind for entry in log)
        reads, writes, recoveries = counts["read"], counts["write"], counts["recover"]
        totals = self.tally.totals

        # Nominal self seconds per layer, summed per kind of operation.
        layer_seconds: dict[str, Counter] = {
            "read": Counter(), "write": Counter(), "recover": Counter(),
        }
        op_seconds: Counter = Counter()
        for op, layers in layer_self_by_op(self.recorder.spans).items():
            entry = log[op]
            factor = self.meter.factor(entry)
            for layer, seconds in layers.items():
                # Device wait is no program time; it is reported raw, below.
                if layer != "ordbms.wal.sync":
                    layer_seconds[entry.kind][layer] += seconds * factor
                    op_seconds[entry.kind] += seconds * factor

        def per(kind: str, layer: str, count: int, unit: float = 1000.0) -> float:
            return layer_seconds[kind][layer] * unit / count if count else 0.0

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        matches = totals["repro_query_rows_returned_total"]
        lift_hits = totals['repro_cache_hits_total{cache="lift"}']
        lift_misses = totals['repro_cache_misses_total{cache="lift"}']
        memo_hits = totals["repro_store_accessor_cache_hits_total"]
        rows_fetched = totals["repro_store_accessor_rows_fetched_total"]
        attributed = sum(
            seconds
            for kind in ("read", "write")
            for layer, seconds in layer_seconds[kind].items()
            if not layer.startswith("op.")
        )
        sync_spans = [
            span[END] - span[START]
            for span in self.recorder.spans
            if span[LAYER] == "ordbms.wal.sync" and log[span[OP]].kind == "write"
        ]
        return {
            "trace.ops_per_s": traced_ops_per_s,
            "trace.attributed_share": ratio(attributed, op_seconds["read"] + op_seconds["write"]),
            "server.http.request_ms_per_read": ratio(op_seconds["read"] * 1000.0, reads),
            "server.http.self_ms_per_read": per("read", "server.http", reads),
            "server.http.response_bytes_per_read": ratio(self.response_bytes, reads),
            "query.language.self_ms_per_read": per("read", "query.language", reads),
            "query.cache.self_ms_per_read": per("read", "query.cache", reads),
            "query.cache.hit_ratio": ratio(
                totals["cache.hits"], totals["cache.hits"] + totals["cache.misses"]
            ),
            "query.cache.evictions_per_read": ratio(totals["cache.evictions"], reads),
            "query.engine.self_ms_per_read": per("read", "query.engine", reads),
            "query.engine.rows_read_per_match": ratio(
                self.tally.prefixed("repro_ordbms_rows_read_total"), matches
            ),
            "query.results.self_ms_per_read": per("read", "query.results", reads),
            "store.accessor.rows_fetched_per_match": ratio(rows_fetched, matches),
            "store.accessor.index_probes_per_read": ratio(
                totals["repro_store_accessor_index_probes_total"], reads
            ),
            "store.accessor.memo_hit_ratio": ratio(memo_hits, memo_hits + rows_fetched),
            "store.liftcache.hit_ratio": ratio(lift_hits, lift_hits + lift_misses),
            "ordbms.btree.probes_per_read": ratio(
                self.tally.prefixed("repro_ordbms_btree_probes_total"), reads
            ),
            "ordbms.textindex.lookups_per_read": ratio(
                self.tally.prefixed("repro_ordbms_textindex_lookups_total"), reads
            ),
            "ordbms.table.rowid_fetches_per_read": ratio(totals["db.rowid_fetches"], reads),
            "ordbms.mvcc.snapshots_per_read": ratio(
                totals["repro_mvcc_snapshots_opened_total"], reads
            ),
            "ordbms.mvcc.versions_reclaimed_per_write": ratio(
                totals["repro_mvcc_versions_reclaimed_total"], writes
            ),
            "xslt.compile_ms_per_read": per("read", "xslt.compile", reads),
            "xslt.transform_ms_per_read": per("read", "xslt.transform", reads),
            "sgml.serializer.self_ms_per_read": per("read", "sgml.serializer", reads),
            "server.daemon.write_ms_per_write": ratio(op_seconds["write"] * 1000.0, writes),
            "server.webdav.drop_ms_per_write": per("write", "server.webdav", writes),
            "server.daemon.self_ms_per_write": per("write", "server.daemon", writes),
            "store.xmlstore.lookup_ms_per_write": per("write", "store.xmlstore.replace", writes),
            "store.xmlstore.delete_ms_per_write": per("write", "store.xmlstore.delete", writes),
            "converters.self_ms_per_write": per("write", "converters", writes),
            "store.decompose.self_ms_per_write": per("write", "store.decompose", writes),
            "ordbms.table.insert_ms_per_write": per("write", "ordbms.table.insert", writes),
            "ordbms.table.update_ms_per_write": per("write", "ordbms.table.update", writes),
            "ordbms.table.delete_ms_per_write": per("write", "ordbms.table.delete", writes),
            "ordbms.table.inserts_per_write": ratio(totals["db.rows_inserted"], writes),
            "ordbms.table.updates_per_write": ratio(totals["db.rows_updated"], writes),
            "ordbms.table.deletes_per_write": ratio(totals["db.rows_deleted"], writes),
            "ordbms.wal.append_ms_per_write": per("write", "ordbms.wal.append", writes),
            "ordbms.wal.sync_ms_p50": percentile(sync_spans, 0.5) * 1000.0 if sync_spans else 0.0,
            "ordbms.wal.appends_per_write": ratio(totals["wal.appends"], writes),
            "ordbms.wal.bytes_per_write": ratio(totals["wal.bytes"], writes),
            "ordbms.wal.syncs_per_write": ratio(totals["wal.syncs"], writes),
            "write_growth_x": write_growth_x,
            "recover_s": recover_s,
            "ordbms.recovery.self_s": per("recover", "ordbms.recovery", recoveries, unit=1.0),
            "ordbms.recovery.records_replayed": ratio(sum(self.records_replayed), recoveries),
            "server.daemon.startup_recovery_s": per(
                "recover", "server.daemon.startup_recovery", recoveries, unit=1.0
            ),
        }


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write(node: Netmark, op: Op) -> list:
    node.drop(op.target, op.body)
    return node.poll()


def _reopen(name: str, device: MeteredLogDevice, vfs) -> Netmark:
    node = Netmark(name, device=device, vfs=vfs)
    node.document_count  # "reopened" means the catalogue answers
    return node
