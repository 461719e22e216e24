"""The metrics registry: counters, gauges and histograms with labels.

NETMARK's pitch is *information on demand now* — which is only credible
when the middleware can say where a request's time and I/O went.  This
module is the cost-accounting substrate: named metric families, each
holding labelled series, collected in a :class:`MetricsRegistry` whose
:meth:`~MetricsRegistry.snapshot` is a plain, JSON-serialisable,
deterministically ordered dict (the perf-gate's input) and whose
:meth:`~MetricsRegistry.render_text` is the ``/metrics`` exposition
format.

Naming convention (enforced by :func:`validate_metric_name`):
``repro_<layer>_<name>`` with ``_total`` for counters — e.g.
``repro_ordbms_wal_appends_total``, ``repro_query_queries_total``,
``repro_federation_breaker_state``.

Determinism: nothing here reads a clock or RNG.  Values move only when
instrumented code calls ``inc``/``set``/``observe``, so two identical
runs against a fresh registry produce bit-identical snapshots.

Thread-safety: worker threads (``repro.server.workers``) bump counters
concurrently with the ingest thread and with ``/metrics`` scrapes.  Every
mutation and every read of series state happens under one lock — the
*registry's* lock, shared down into each metric at registration time, so
``snapshot()`` is atomic across families: it can never observe metric A
after a request and metric B before it.  A metric constructed standalone
(outside any registry) carries its own lock until registered.
"""

from __future__ import annotations

import re
import threading
from typing import Iterator

from repro.errors import ObservabilityError

_NAME_RE = re.compile(r"^repro_[a-z0-9]+_[a-z0-9_]+$")

#: Histogram bucket upper bounds, in logical ticks / dimensionless units.
#: Small and fixed so snapshots stay stable and comparable across runs.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


def validate_metric_name(name: str) -> str:
    """Enforce the ``repro_<layer>_<name>`` naming convention."""
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"metric name {name!r} does not match repro_<layer>_<name>"
        )
    return name


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    # Hot path (every counter bump): labels are almost always str
    # already, so only pay for coercion when one is not.
    if not labels:
        return ()
    items = sorted(labels.items())
    for pair in items:
        if type(pair[1]) is not str:
            return tuple((str(k), str(v)) for k, v in items)
    return tuple(items)


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Metric:
    """One named family of labelled series (base for the three kinds)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = validate_metric_name(name)
        self.help_text = help_text
        #: Reentrant because ``MetricsRegistry.snapshot`` holds the shared
        #: lock while calling back into per-metric readers.  Replaced with
        #: the registry's lock at registration (see module docstring).
        self._lock = threading.RLock()
        # repro: guarded-by(_lock) read-modify-write bumps from any worker
        # thread must not interleave.
        self._series: dict[tuple[tuple[str, str], ...], float] = {}

    def _bump(self, amount: float, labels: dict[str, str]) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def series(self) -> Iterator[tuple[str, float]]:
        """``(rendered_labels, value)`` pairs in deterministic order."""
        with self._lock:
            items = sorted(self._series.items())
        for key, value in items:
            yield _render_labels(key), value

    def value(self, **labels: str) -> float:
        """Current value of one series (0 if never touched)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def samples(self) -> Iterator[tuple[str, float]]:
        """``(exposed series name, value)`` pairs, as the text shows them."""
        for rendered, value in self.series():
            yield f"{self.name}{rendered}", value

    def snapshot_into(self, out: dict[str, float]) -> None:
        out.update(self.samples())

    def render_into(self, lines: list[str]) -> None:
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(f"{name} {_format_value(value)}" for name, value in self.samples())


class Counter(Metric):
    """Monotonically increasing count (``_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        self.add(amount, labels)

    def add(self, amount: float, labels: dict[str, str]) -> None:
        """:meth:`inc` with labels as an already-built dict (hot-path form)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (by {amount})"
            )
        self._bump(amount, labels)


class Gauge(Metric):
    """A value that goes up and down (breaker states, queue depths)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        self._bump(amount, labels)

    def dec(self, amount: float = 1, **labels: str) -> None:
        self._bump(-amount, labels)


class Histogram(Metric):
    """Bucketed distribution (per-source latency ticks, span durations).

    Fixed bucket bounds keep two runs' snapshots bit-comparable; the
    snapshot exposes ``_count``, ``_sum`` and one ``_bucket`` series per
    bound (cumulative, Prometheus-style, with the implicit ``+Inf``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        if not buckets or list(buckets) != sorted(buckets):
            raise ObservabilityError(
                f"histogram {name} needs ascending bucket bounds"
            )
        self.buckets = tuple(float(bound) for bound in buckets)
        # repro: guarded-by(_lock) label key -> [counts per bucket + inf,
        # sum, count]; multi-slot updates must be atomic to observers.
        self._dist: dict[tuple[tuple[str, str], ...], list[float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            slot = self._dist.get(key)
            if slot is None:
                slot = [0.0] * (len(self.buckets) + 1) + [0.0, 0.0]
                self._dist[key] = slot
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    slot[index] += 1
            slot[len(self.buckets)] += 1  # +Inf
            slot[-2] += value  # sum
            slot[-1] += 1  # count

    def value(self, **labels: str) -> float:
        """The observation *count* for one series (histogram headline)."""
        with self._lock:
            slot = self._dist.get(_label_key(labels))
            return slot[-1] if slot is not None else 0

    def series(self) -> Iterator[tuple[str, float]]:
        for key, slot in self._dist_items():
            yield _render_labels(key), slot[-1]

    def _dist_items(
        self,
    ) -> list[tuple[tuple[tuple[str, str], ...], list[float]]]:
        """A stable, sorted copy of the distribution (slots copied too)."""
        with self._lock:
            return [(key, list(self._dist[key])) for key in sorted(self._dist)]

    def samples(self) -> Iterator[tuple[str, float]]:
        """Per series: a ``_bucket`` per bound and ``+Inf``, ``_sum`` and
        ``_count``."""
        bounds = [_format_value(bound) for bound in self.buckets] + ["+Inf"]
        for key, slot in self._dist_items():
            for bound, value in zip(bounds, slot):
                labels = _render_labels(_label_key({**dict(key), "le": bound}))
                yield f"{self.name}_bucket{labels}", value
            rendered = _render_labels(key)
            yield f"{self.name}_sum{rendered}", slot[-2]
            yield f"{self.name}_count{rendered}", slot[-1]


def _format_value(value: float) -> str:
    """Integers render bare (``17``), floats keep their point (``0.5``)."""
    if isinstance(value, bool):
        return str(int(value))
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """All metric families of one process (or one test's sandbox)."""

    def __init__(self) -> None:
        #: One lock for the whole registry — shared down into every
        #: registered metric so cross-family snapshots are atomic.
        self._lock = threading.RLock()
        # repro: guarded-by(_lock) registration races (two workers first
        # to touch a counter) must produce exactly one family object.
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, **kwargs)
                metric._lock = self._lock
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ObservabilityError(
                    f"metric {name!r} is already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, buckets=buckets
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict[str, float]:
        """Every series as ``{"name{labels}": value}``, sorted by key.

        Plain data: JSON-serialisable, diff-able, and bit-identical for
        two identical instrumented runs (nothing here is clocked).
        Atomic under concurrency: the registry lock is held across all
        families, so the snapshot is one instant's view, never a mix of
        before-and-after states of a single request.
        """
        with self._lock:
            out: dict[str, float] = {}
            for name in sorted(self._metrics):
                self._metrics[name].snapshot_into(out)
            return dict(sorted(out.items()))

    def render_text(self) -> str:
        """The ``/metrics`` text exposition (Prometheus-compatible)."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._metrics):
                self._metrics[name].render_into(lines)
            return "\n".join(lines) + ("\n" if lines else "")
