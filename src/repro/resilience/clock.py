"""A logical clock: deterministic time for the resilience layer.

The ``banned-name`` rule (``repro.analysis``) bans wall-clock reads in
library code — timestamps enter the system as data.  Retry backoff,
breaker cooldowns, and injected latency therefore run on *ticks*: a
monotonically increasing integer that only moves when someone calls
:meth:`LogicalClock.advance`.  Same seed, same plan, same call order ⇒
the same tick at every decision point, so every resilience run replays
exactly.
"""

from __future__ import annotations

from repro.errors import ResilienceError


class LogicalClock:
    """Monotonic integer time; shared by retries, breakers, and faults."""

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ResilienceError(f"clock cannot start at {start}")
        self._now = int(start)

    def now(self) -> int:
        """The current tick."""
        return self._now

    def advance(self, ticks: int = 1) -> int:
        """Move time forward by ``ticks``; returns the new tick."""
        if ticks < 0:
            raise ResilienceError(f"clock cannot move backwards ({ticks})")
        self._now += int(ticks)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogicalClock(tick={self._now})"
