"""Deterministic fault injection: provoke failures on demand.

A :class:`FaultPlan` decides, per ``(component, operation)`` call site,
whether a call fails, stalls, or proceeds.  Components are wrapped in
duck-typed proxies (:meth:`FaultPlan.wrap_source`, :meth:`wrap_store`,
:meth:`wrap_vfs`) that consult the plan before delegating, so the wrapped
object's own code never changes.  Fault kinds:

* ``unavailable`` — raise :class:`~repro.errors.SourceUnavailableError`;
* ``timeout`` — advance the logical clock by ``latency`` ticks, then
  raise :class:`~repro.errors.SourceTimeoutError`;
* ``slow`` — advance the clock by ``latency`` ticks and let the call
  proceed;
* ``crash`` — raise :class:`~repro.errors.CrashError` (a modelled
  process death; derives from ``BaseException`` so no library handler
  can absorb it);
* ``torn`` — write half the payload, then crash (death mid-write);
* ``corrupt`` — silently mangle the payload and let the call succeed.

The last three are write-path faults for durable devices: they fire
through :meth:`FaultPlan.wrap_log_device`, which proxies a WAL
:class:`~repro.ordbms.wal.LogDevice` (duck-typed — this package never
imports the ORDBMS) and applies the data-mangling kinds to the bytes
themselves.  The four wrappers, one :class:`FaultProxy` each, are the
whole vocabulary: nothing else consults a plan, and no gate models a
step of a multi-store protocol — no write spans two stores.

Rules are scripted (``fail twice on native_search, then recover``) or
seeded-probabilistic (:meth:`FaultPlan.sometimes`); both are fully
deterministic: given the same seed and the same call sequence, the same
faults fire at the same ticks.  Every injection is recorded as a
:class:`FaultEvent` for replay assertions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import (
    CrashError,
    ResilienceError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from repro.resilience.clock import LogicalClock

#: Fault kinds a rule may inject.
KINDS = ("unavailable", "timeout", "slow", "crash", "torn", "corrupt")

#: Kinds that mangle written data instead of raising; only meaningful on
#: log devices (:meth:`FaultPlan.wrap_log_device`).
MANGLING_KINDS = ("torn", "corrupt")

#: Operations gated on each wrappable component type.
SOURCE_OPERATIONS = ("native_search", "fetch_document", "document_names")
STORE_OPERATIONS = (
    "store_text",
    "replace_text",
    "store_document",
    "document",
    "delete_document",
)
VFS_OPERATIONS = ("read", "write", "move", "copy", "delete")
LOG_DEVICE_OPERATIONS = ("append", "sync", "truncate_log", "save_checkpoint")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: where, what, and when (logical tick)."""

    tick: int
    component: str
    operation: str
    kind: str


@dataclass
class FaultRule:
    """One injection site script.

    Matches calls on ``component`` whose operation equals ``operation``
    (``"*"`` matches any gated operation).  The first ``after`` matching
    calls pass untouched; the next ``times`` calls fault (``None`` =
    forever); later calls pass again — the N-failures-then-recover
    script.  With ``probability`` set, each otherwise-eligible call
    faults only when the plan's seeded RNG says so.
    """

    component: str
    operation: str = "*"
    kind: str = "unavailable"
    times: int | None = 1
    after: int = 0
    probability: float | None = None
    latency: int = 0
    seen: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r} (one of {KINDS})"
            )
        if self.times is not None and self.times < 0:
            raise ResilienceError(f"times cannot be negative ({self.times})")
        if self.after < 0 or self.latency < 0:
            raise ResilienceError("after/latency cannot be negative")
        if self.probability is not None and not 0 <= self.probability <= 1:
            raise ResilienceError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def matches(self, component: str, operation: str) -> bool:
        return self.component == component and self.operation in ("*", operation)

    def due(self, rng: random.Random) -> bool:
        """Consume one matching call; does the fault fire on it?"""
        index = self.seen
        self.seen += 1
        if index < self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability is not None and rng.random() >= self.probability:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """All scripted trouble for one run, plus the record of what fired."""

    def __init__(self, seed: int = 0, clock: LogicalClock | None = None) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self.rules: list[FaultRule] = []
        self.events: list[FaultEvent] = []
        self._rng = random.Random(seed)

    # -- scripting ----------------------------------------------------------

    def fail(
        self,
        component: str,
        operation: str = "*",
        *,
        kind: str = "unavailable",
        times: int | None = 1,
        after: int = 0,
        latency: int = 0,
    ) -> FaultRule:
        """Script ``times`` failures (then recovery) at one site."""
        rule = FaultRule(
            component=component,
            operation=operation,
            kind=kind,
            times=times,
            after=after,
            latency=latency,
        )
        self.rules.append(rule)
        return rule

    def sometimes(
        self,
        component: str,
        operation: str = "*",
        *,
        probability: float,
        kind: str = "unavailable",
        times: int | None = None,
        latency: int = 0,
    ) -> FaultRule:
        """Script a seeded coin-flip fault at one site."""
        rule = FaultRule(
            component=component,
            operation=operation,
            kind=kind,
            times=times,
            probability=probability,
            latency=latency,
        )
        self.rules.append(rule)
        return rule

    def slow(
        self,
        component: str,
        operation: str = "*",
        *,
        latency: int,
        times: int | None = None,
    ) -> FaultRule:
        """Script added latency (ticks) without an error."""
        return self.fail(
            component, operation, kind="slow", times=times, latency=latency
        )

    # -- the injection gate -------------------------------------------------

    def apply(self, component: str, operation: str) -> None:
        """Gate one call as :meth:`poll` does; raises when a fault fires."""
        self.poll(component, operation)

    def poll(self, component: str, operation: str) -> str | None:
        """Gate one call, reporting data-mangling kinds to the caller.

        Raises for the error kinds (``unavailable``, ``timeout``,
        ``crash``); returns ``"torn"``/``"corrupt"`` when a mangling
        fault fired so a device proxy can damage the payload; returns
        None when the call proceeds untouched.
        """
        fired: str | None = None
        for rule in self.rules:
            if not rule.matches(component, operation):
                continue
            if not rule.due(self._rng):
                continue
            kind = self._inject(rule, component, operation)
            if kind is not None:
                fired = kind
        return fired

    def injected(self, component: str | None = None) -> int:
        """How many faults fired (optionally for one component)."""
        return sum(
            1
            for event in self.events
            if component is None or event.component == component
        )

    # -- wrapping -----------------------------------------------------------

    def wrap_source(self, source: Any, component: str | None = None) -> Any:
        """Proxy an ``InformationSource`` (component defaults to its name)."""
        return FaultProxy(
            self, component or source.name, source, SOURCE_OPERATIONS
        )

    def wrap_store(self, store: Any, component: str = "store") -> Any:
        """Proxy an ``XmlStore``."""
        return FaultProxy(self, component, store, STORE_OPERATIONS)

    def wrap_vfs(self, vfs: Any, component: str = "vfs") -> Any:
        """Proxy a ``VirtualFileSystem``."""
        return FaultProxy(self, component, vfs, VFS_OPERATIONS)

    def wrap_log_device(self, device: Any, component: str = "wal") -> Any:
        """Proxy a WAL ``LogDevice``; enables torn/corrupt/crash faults."""
        return FaultProxy(self, component, device, LOG_DEVICE_OPERATIONS)

    # -- internals ----------------------------------------------------------

    def _inject(
        self, rule: FaultRule, component: str, operation: str
    ) -> str | None:
        if rule.latency:
            self.clock.advance(rule.latency)
        self.events.append(
            FaultEvent(self.clock.now(), component, operation, rule.kind)
        )
        site = f"{component}.{operation}"
        if rule.kind == "unavailable":
            raise SourceUnavailableError(f"injected: {site} is unavailable")
        if rule.kind == "timeout":
            raise SourceTimeoutError(
                f"injected: {site} timed out after {rule.latency} ticks"
            )
        if rule.kind == "crash":
            raise CrashError(f"injected: process died at {site}")
        if rule.kind in MANGLING_KINDS:
            return rule.kind
        # "slow": latency already charged; the call proceeds.
        return None


class FaultProxy:
    """Duck-typed wrapper: delegates everything, gates named operations.

    Wrapping instead of subclassing keeps the resilience layer below the
    components it wraps — the proxy needs nothing from the wrapped type
    but the operation names, so any source/store/filesystem/log device
    (including test doubles) can be made faulty.  A data-mangling fault
    damages a gated call's payload, its first argument: ``torn`` writes
    half of it and then dies (a genuinely torn append or checkpoint),
    ``corrupt`` mangles one character and lets the call "succeed" (silent
    bit rot — the seed for mid-log corruption tests).
    """

    def __init__(
        self,
        plan: FaultPlan,
        component: str,
        target: Any,
        operations: Sequence[str],
    ) -> None:
        self._plan = plan
        self._component = component
        self._target = target
        self._operations = frozenset(operations)

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        if name in self._operations and callable(attr):
            plan, component = self._plan, self._component

            def gated(*args: Any, **kwargs: Any) -> Any:
                kind = plan.poll(component, name)
                if kind is not None and args:
                    if kind == "torn":
                        attr(args[0][: len(args[0]) // 2])
                        raise CrashError(
                            f"injected: process died mid-{name} on {component}"
                        )
                    args = (_mangle(args[0]), *args[1:])
                return attr(*args, **kwargs)

            gated.__name__ = name
            return gated
        return attr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultProxy({self._component!r}, {self._target!r})"


def _mangle(data: str) -> str:
    """Deterministically damage one character of ``data`` (bit rot).

    Flips the last character before any trailing newline — for a WAL
    record line that is a CRC hex digit, guaranteeing detection.
    """
    text = data[:-1] if data.endswith("\n") else data
    tail = data[len(text):]
    if not text:
        return data
    flipped = "0" if text[-1] == "X" else "X"
    return text[:-1] + flipped + tail
