"""Deterministic resilience: fault injection, retries, circuit breakers.

The paper's pitch is that NETMARK stays useful when the enterprise
around it is messy — sources come and go, the daemon quarantines poison
documents rather than wedging.  This package makes that testable: a
:class:`FaultPlan` provokes failures on demand, a :class:`RetryPolicy`
absorbs transient ones, a :class:`BreakerBoard` stops paying for a
source that keeps failing, and everything runs on a :class:`LogicalClock`
with seeded randomness so every run replays exactly.

Nothing here imports the tiers it protects: the proxies are duck-typed,
so every layer above may import this one.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    BreakerConfig,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.clock import LogicalClock
from repro.resilience.crashpoints import CrashMatrix, CrashPoint, crash_matrix
from repro.resilience.deadline import (
    Budget,
    CancellationToken,
    Deadline,
    wall_tick_source,
)
from repro.resilience.faults import FaultEvent, FaultPlan, FaultProxy, FaultRule
from repro.resilience.heartbeat import HeartbeatMonitor
from repro.resilience.netsim import Network, NetworkEvent
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import (
    DEFAULT_RETRYABLE,
    RetryPolicy,
    RetryStats,
    call_with_retry,
)

__all__ = [
    "CLOSED",
    "DEFAULT_RETRYABLE",
    "HALF_OPEN",
    "OPEN",
    "BreakerBoard",
    "BreakerConfig",
    "BreakerTransition",
    "Budget",
    "CancellationToken",
    "CircuitBreaker",
    "CrashMatrix",
    "CrashPoint",
    "Deadline",
    "FaultEvent",
    "FaultPlan",
    "FaultProxy",
    "FaultRule",
    "HeartbeatMonitor",
    "LogicalClock",
    "Network",
    "NetworkEvent",
    "ResiliencePolicy",
    "RetryPolicy",
    "RetryStats",
    "call_with_retry",
    "crash_matrix",
    "wall_tick_source",
]
