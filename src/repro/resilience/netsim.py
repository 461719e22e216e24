"""Simulated cluster network: node kills and partitions, deterministically.

The cluster layer runs N logical Netmark nodes inside one process, so
"the network" between them is this object: every heartbeat and
log-ship batch asks :meth:`Network.check` before crossing.  The
harness scripts trouble directly — :meth:`kill` models a node death
(SIGKILL: the node stops answering *and* sending), :meth:`partition`
splits the membership into groups that cannot reach each other — and
every topology change is recorded as a :class:`NetworkEvent` at its
logical tick, so a run's fault timeline replays bit-for-bit.

Unreachability is symmetric and is reported with the resilience
vocabulary (:class:`~repro.errors.SourceUnavailableError`), so the
retry/breaker machinery treats a partitioned peer exactly like any
other downed source.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ResilienceError, SourceUnavailableError
from repro.resilience.clock import LogicalClock

#: Topology-change kinds recorded on the event log.
NODE_KILL = "node-kill"
NODE_REVIVE = "node-revive"
PARTITION = "partition"
HEAL = "heal"


@dataclass(frozen=True)
class NetworkEvent:
    """One topology change: what happened to whom, at which tick."""

    tick: int
    kind: str
    detail: str


class Network:
    """Reachability oracle for a fixed set of logical nodes."""

    def __init__(self, clock: LogicalClock, nodes: list[str]) -> None:
        if len(set(nodes)) != len(nodes):
            raise ResilienceError(f"duplicate node names in {nodes}")
        self.clock = clock
        self.nodes = tuple(nodes)
        self.events: list[NetworkEvent] = []
        self._dead: set[str] = set()
        #: node -> partition-group id; all nodes start in group 0.
        self._group: dict[str, int] = {name: 0 for name in nodes}

    # -- scripting ----------------------------------------------------------

    def kill(self, node: str) -> None:
        """Model a node death: it neither sends nor answers anything."""
        self._known(node)
        self._dead.add(node)
        self._record(NODE_KILL, node)

    def revive(self, node: str) -> None:
        """Bring a killed node back (its durable state is its own problem)."""
        self._known(node)
        self._dead.discard(node)
        self._record(NODE_REVIVE, node)

    def partition(self, *groups: list[str]) -> None:
        """Split the membership into isolated groups.

        Every node must appear in exactly one group; nodes within a
        group reach each other, nodes in different groups do not.
        """
        assignment: dict[str, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                self._known(node)
                if node in assignment:
                    raise ResilienceError(
                        f"node {node!r} appears in two partition groups"
                    )
                assignment[node] = index
        missing = set(self.nodes) - set(assignment)
        if missing:
            raise ResilienceError(
                f"partition omits nodes {sorted(missing)}"
            )
        self._group = assignment
        self._record(
            PARTITION,
            " | ".join(",".join(sorted(group)) for group in groups),
        )

    def heal(self) -> None:
        """Undo any partition (killed nodes stay dead)."""
        self._group = {name: 0 for name in self.nodes}
        self._record(HEAL, "all")

    # -- the oracle ---------------------------------------------------------

    def alive(self, node: str) -> bool:
        self._known(node)
        return node not in self._dead

    def reachable(self, src: str, dst: str) -> bool:
        """Can a message cross from ``src`` to ``dst`` right now?"""
        self._known(src)
        self._known(dst)
        if src in self._dead or dst in self._dead:
            return False
        return self._group[src] == self._group[dst]

    def check(self, src: str, dst: str) -> None:
        """Raise :class:`SourceUnavailableError` unless ``src`` reaches ``dst``."""
        if not self.reachable(src, dst):
            raise SourceUnavailableError(
                f"network: {src} cannot reach {dst} (dead or partitioned)"
            )

    def peers_of(self, node: str) -> list[str]:
        """Live nodes ``node`` can currently reach (itself excluded)."""
        return [
            other
            for other in self.nodes
            if other != node and self.reachable(node, other)
        ]

    # -- internals ----------------------------------------------------------

    def _known(self, node: str) -> None:
        if node not in self._group and node not in self.nodes:
            raise ResilienceError(f"unknown node {node!r}")

    def _record(self, kind: str, detail: str) -> None:
        self.events.append(NetworkEvent(self.clock.now(), kind, detail))
