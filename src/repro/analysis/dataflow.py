"""A generic forward-dataflow engine over :mod:`repro.analysis.cfg` graphs.

An analysis supplies three things — an entry state, a join, and a
per-node transfer function — and :func:`run_forward` iterates a worklist
to the least fixpoint.  States are ordinary Python values compared with
``==``; ``None`` is reserved as the engine's "unreached" bottom, so an
analysis must never produce it.

The engine is deliberately small: the rules built on it (resource
lifecycle today, the MVCC shared-state audit tomorrow) need union-style
may-analyses over sets, and a worklist over statement-grained CFGs is
plenty for a codebase this size.  Termination is the analysis's duty
(monotone transfer over a finite lattice); a generous iteration cap
turns an accidental non-monotone analysis into a diagnosable error
instead of a hang.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Protocol

from repro.analysis.cfg import Cfg, CfgNode
from repro.errors import AnalysisError


class ForwardAnalysis(Protocol):
    """The contract a forward analysis implements."""

    def initial(self) -> Any:
        """State on entry to the graph."""
        ...

    def join(self, left: Any, right: Any) -> Any:
        """Merge two states at a control-flow join."""
        ...

    def transfer(self, node: CfgNode, state: Any) -> Any:
        """State after executing ``node`` in ``state``."""
        ...


@dataclass
class DataflowResult:
    """Fixpoint states per node index (``None`` = no path reaches the node)."""

    before: list[Any]
    after: list[Any]

    def at_exit(self, cfg: Cfg) -> Any:
        """The state flowing into the synthetic exit node."""
        return self.before[cfg.exit]


def run_forward(cfg: Cfg, analysis: ForwardAnalysis) -> DataflowResult:
    """Iterate ``analysis`` over ``cfg`` to its least fixpoint."""
    count = len(cfg.nodes)
    before: list[Any] = [None] * count
    after: list[Any] = [None] * count
    preds = cfg.preds()

    before[cfg.entry] = analysis.initial()
    after[cfg.entry] = before[cfg.entry]

    worklist: deque[int] = deque(
        index for index in range(count) if index != cfg.entry
    )
    queued = set(worklist)
    # Every node can be revisited once per lattice step; anything past
    # |nodes|^2 * 64 means the transfer is not monotone.
    budget = max(1024, count * count * 64)
    steps = 0
    while worklist:
        steps += 1
        if steps > budget:
            raise AnalysisError(
                "dataflow did not converge; the analysis transfer "
                "function is not monotone"
            )
        index = worklist.popleft()
        queued.discard(index)

        merged: Any = None
        for pred in preds[index]:
            if after[pred] is None:
                continue
            merged = (
                after[pred]
                if merged is None
                else analysis.join(merged, after[pred])
            )
        if merged is None:
            continue  # no path reaches it yet
        node = cfg.nodes[index]
        new_after = (
            merged if node.stmt is None else analysis.transfer(node, merged)
        )
        if merged == before[index] and new_after == after[index]:
            continue
        before[index] = merged
        after[index] = new_after
        for succ in cfg.succs[index]:
            if succ not in queued:
                worklist.append(succ)
                queued.add(succ)
    return DataflowResult(before=before, after=after)
