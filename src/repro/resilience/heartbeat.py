"""Heartbeat failure detection on the logical clock.

A :class:`HeartbeatMonitor` is one observer's view of who is alive: each
peer that wants to be considered live must :meth:`beat` within
``timeout`` ticks of :class:`~repro.resilience.clock.LogicalClock` time.
There is no background thread — like every resilience primitive, time
only moves when the harness advances the clock, so a detection schedule
replays bit-for-bit for one seed.

The monitor is deliberately *per observer*: under a network partition
two nodes legitimately disagree about who is alive, so the cluster layer
gives every node its own monitor and routes beats through the simulated
network (:mod:`repro.resilience.netsim`).
"""

from __future__ import annotations

from repro import obs
from repro.errors import ResilienceError
from repro.resilience.clock import LogicalClock


class HeartbeatMonitor:
    """One observer's liveness table: peer -> last heartbeat tick."""

    def __init__(
        self,
        clock: LogicalClock,
        timeout: int,
        observer: str = "monitor",
    ) -> None:
        if timeout < 1:
            raise ResilienceError(
                f"heartbeat timeout must be >= 1 tick, got {timeout}"
            )
        self.clock = clock
        self.timeout = timeout
        self.observer = observer
        self._last_seen: dict[str, int] = {}

    def beat(self, peer: str) -> int:
        """Record a heartbeat from ``peer``; returns the tick recorded."""
        tick = self.clock.now()
        self._last_seen[peer] = tick
        obs.inc(
            "repro_resilience_heartbeats_total", observer=self.observer
        )
        return tick

    def alive(self, peer: str) -> bool:
        """Has ``peer`` beaten within the timeout window?

        A peer never heard from is *not* alive — a fresh observer must
        collect a first heartbeat before trusting anyone, which is also
        what stops a rejoining node from instantly "detecting" the
        whole cluster as dead.
        """
        seen = self._last_seen.get(peer)
        if seen is None:
            return False
        return self.clock.now() - seen <= self.timeout

    def suspects(self) -> list[str]:
        """Peers heard from before but silent past the timeout, sorted."""
        return sorted(
            peer for peer in self._last_seen if not self.alive(peer)
        )

    def peers(self) -> list[str]:
        """Every peer ever heard from, sorted."""
        return sorted(self._last_seen)
