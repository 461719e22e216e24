"""repro.obs — the observability layer: metrics, tracing, profiling.

A base layer, importable from anywhere (like :mod:`repro.errors`) and
allowed to import nothing above the error vocabulary — so every tier can
report what it does without bending the import DAG.

Three parts:

* :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram`` families
  with labelled series, a deterministic ``snapshot()`` and the
  ``/metrics`` text exposition;
* :mod:`repro.obs.trace` — hierarchical spans on logical ticks with JSONL
  export (``NULL_TRACER`` keeps the un-traced hot path free);
* :mod:`repro.obs.profile` — the work-unit profiler behind
  ``Explain=profile``.

Instrumented call sites use the **default registry** through the module
functions below (``obs.inc(...)``, ``obs.set_gauge(...)``,
``obs.observe(...)``) so no constructor threading is needed; tests swap
in a fresh registry with :func:`push_registry`/:func:`reset` to get
bit-identical snapshots for identical runs, and :func:`set_enabled`
turns the whole layer into cheap no-ops for overhead measurements.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    validate_metric_name,
)
from repro.obs.profile import PlanProfiler
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NullTracer",
    "PlanProfiler",
    "Span",
    "Tracer",
    "get_registry",
    "inc",
    "observe",
    "push_registry",
    "render_text",
    "reset",
    "set_enabled",
    "set_gauge",
    "set_registry",
    "snapshot",
    "validate_metric_name",
]

# repro: guarded-by(gil) hot paths only read the reference; it is swapped whole by harness/app setup before traffic
_REGISTRY = MetricsRegistry()
# repro: guarded-by(gil) one boolean, read/written atomically under the GIL; flipped only by harness setup
_ENABLED = True


def get_registry() -> MetricsRegistry:
    """The process-default registry the instrumented stack reports into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def push_registry() -> MetricsRegistry:
    """Install (and return) a fresh registry — the test-sandbox idiom."""
    fresh = MetricsRegistry()
    set_registry(fresh)
    return fresh


def reset() -> None:
    """Discard all collected series (fresh default registry)."""
    push_registry()


def set_enabled(enabled: bool) -> bool:
    """Globally enable/disable metric recording; returns the old flag."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


# -- hot-path recording helpers (one flag check + registry dispatch) --------


def inc(name: str, amount: float = 1, **labels: str) -> None:
    """Increment a counter series on the default registry."""
    if _ENABLED:
        _REGISTRY.counter(name).add(amount, labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge series on the default registry."""
    if _ENABLED:
        _REGISTRY.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record one histogram observation on the default registry."""
    if _ENABLED:
        _REGISTRY.histogram(name).observe(value, **labels)


def snapshot() -> dict[str, float]:
    """The default registry's deterministic snapshot."""
    return _REGISTRY.snapshot()


def render_text() -> str:
    """The default registry's ``/metrics`` text exposition."""
    return _REGISTRY.render_text()
