"""Deterministic crash-point enumeration for durable devices.

The recovery property worth having is universally quantified: *at every
point the process could die, recovery lands on a statement boundary*.
This module enumerates those points mechanically instead of hoping a
few hand-picked ones generalise:

1. run the workload once against a counting pass-through device to
   learn how many log appends it performs (and to capture the uncrashed
   baseline for byte-identity comparison);
2. re-run it once per ``(append index, fault kind)`` pair with a
   :class:`~repro.resilience.faults.FaultPlan` scripted to kill the
   process exactly there — ``crash`` dies before the bytes land,
   ``torn`` dies halfway through them;
3. hand each surviving device back to the caller, who recovers from it
   and asserts whatever "consistent" means for their component.

The harness is deliberately ignorant of what it is crashing: it speaks
only the duck-typed device protocol, so it sits below the ORDBMS in the
layer DAG and the same matrix can later drive any other durable device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import CrashError
from repro.resilience.faults import FaultPlan


class _CountingDevice:
    """Pass-through device wrapper that counts appends."""

    def __init__(self, target: Any) -> None:
        self.target = target
        self.appends = 0

    def append(self, data: str) -> None:
        self.appends += 1
        self.target.append(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.target, name)


@dataclass(frozen=True)
class CrashPoint:
    """One scripted death: which append it hit, how, and what survived."""

    index: int  # 1-based append that faulted
    kind: str  # "crash" (die before write) or "torn" (die mid-write)
    device: Any  # the surviving device, ready for recovery
    crashed: bool  # the CrashError was actually observed


@dataclass(frozen=True)
class CrashMatrix:
    """Everything one matrix run produced."""

    #: Device from the uncrashed run (byte-identity baseline).
    baseline: Any
    #: Appends the uncrashed workload performs — the matrix width.
    total_appends: int
    points: tuple[CrashPoint, ...]


def crash_matrix(
    device_factory: Callable[[], Any],
    run: Callable[[Any], None],
    *,
    kinds: Sequence[str] = ("crash", "torn"),
    component: str = "wal",
) -> CrashMatrix:
    """Kill ``run`` at every append of its device, once per fault kind.

    ``device_factory`` must build a fresh, empty device per invocation;
    ``run`` receives the (possibly fault-wrapped) device, builds its
    component on top and performs the workload.  A run that never
    appends yields an empty matrix rather than an error — the caller's
    assertions will notice a workload that logged nothing.
    """
    baseline = _CountingDevice(device_factory())
    run(baseline)
    points: list[CrashPoint] = []
    for kind in kinds:
        for index in range(1, baseline.appends + 1):
            device = device_factory()
            plan = FaultPlan()
            plan.fail(component, "append", kind=kind, after=index - 1, times=1)
            crashed = False
            try:
                run(plan.wrap_log_device(device, component))
            except CrashError:
                crashed = True
            points.append(CrashPoint(index, kind, device, crashed))
    return CrashMatrix(
        baseline=baseline,
        total_appends=baseline.appends,
        points=tuple(points),
    )
