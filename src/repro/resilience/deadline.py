"""Deadlines, budgets and cooperative cancellation on the logical clock.

Overload protection needs one vocabulary for "how much longer is this
request allowed to run" that every tier — worker pool, HTTP facade,
query plan, federation router — can consult cheaply.  Like the fault
machinery (PR 2), it runs on :class:`~repro.resilience.clock.LogicalClock`
ticks so every overload drill is deterministic and replayable; the real
server composes a :func:`wall_tick_source` at its composition root,
where wall time is allowed to enter the system as data.

Three primitives, smallest first:

:class:`Deadline`
    An absolute expiry tick on a clock.  ``remaining()`` is the budget
    left (never negative); ``tightened`` takes the earlier of two
    deadlines, which is how a router hands each source the *remaining*
    budget rather than the original one.

:class:`CancellationToken`
    A one-way latch flipped by the submitter (``cancel``), observed by
    the executor.  Cross-thread by construction: the flag is a
    :class:`threading.Event`, so a worker sees an abandoning client's
    cancel at its next batch boundary.

:class:`Budget`
    What a request actually carries: optional deadline, optional token,
    and the partial-results policy.  ``admits(site)`` is the one check
    operators call — it raises :class:`~repro.errors.QueryCancelledError`
    on cancellation, raises :class:`~repro.errors.QueryTimeoutError` on
    expiry, or (with ``partial_ok``) records the expiry and returns
    ``False`` so the plan stops pulling and the caller marks the answer
    partial.
"""

from __future__ import annotations

import threading
from typing import Callable, Protocol

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResilienceError,
)

__all__ = [
    "Budget",
    "CancellationToken",
    "Deadline",
    "TickSource",
    "wall_tick_source",
]


class TickSource(Protocol):
    """Anything with a ``now() -> int`` — a LogicalClock or an adapter."""

    def now(self) -> int: ...


class _WallTicks:
    """Integer ticks derived from an injected wall-clock callable.

    The determinism rules ban wall-clock *reads* in library code; an
    adapter that is handed the callable keeps that true — only a
    composition root (``__main__``, a deployment script) ever writes
    ``time.monotonic`` next to this constructor.
    """

    __slots__ = ("_wall", "_ticks_per_second", "_origin")

    def __init__(
        self, wall: Callable[[], float], ticks_per_second: int
    ) -> None:
        if ticks_per_second <= 0:
            raise ResilienceError(
                f"ticks_per_second must be positive, got {ticks_per_second}"
            )
        self._wall = wall
        self._ticks_per_second = ticks_per_second
        self._origin = wall()

    def now(self) -> int:
        return int((self._wall() - self._origin) * self._ticks_per_second)


def wall_tick_source(
    wall: Callable[[], float], ticks_per_second: int = 1000
) -> TickSource:
    """A tick source over an injected monotonic wall clock.

    ``wall_tick_source(time.monotonic)`` gives millisecond ticks; pass
    it wherever a :class:`~repro.resilience.clock.LogicalClock` is
    accepted to run real-time deadlines on a production server.
    """
    return _WallTicks(wall, ticks_per_second)


class Deadline:
    """An absolute expiry tick on a (logical or adapted) clock."""

    __slots__ = ("clock", "expires_at")

    def __init__(self, clock: TickSource, budget_ticks: int) -> None:
        if budget_ticks < 0:
            raise ResilienceError(
                f"a deadline budget cannot be negative ({budget_ticks})"
            )
        self.clock = clock
        self.expires_at = clock.now() + int(budget_ticks)

    @classmethod
    def at(cls, clock: TickSource, expires_at: int) -> "Deadline":
        """A deadline at an absolute tick (may already be in the past)."""
        deadline = cls.__new__(cls)
        deadline.clock = clock
        deadline.expires_at = int(expires_at)
        return deadline

    def remaining(self) -> int:
        """Ticks left before expiry, clamped at zero."""
        return max(0, self.expires_at - self.clock.now())

    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at

    def tightened(self, budget_ticks: int) -> "Deadline":
        """The earlier of this deadline and ``now + budget_ticks``.

        How nested scopes (a per-source sub-deadline under a request
        deadline) compose: a child may only shrink the budget.
        """
        child = Deadline(self.clock, budget_ticks)
        if self.expires_at < child.expires_at:
            child.expires_at = self.expires_at
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(expires_at={self.expires_at}, "
            f"remaining={self.remaining()})"
        )


class CancellationToken:
    """A one-way cancel latch: submitter flips it, executor observes it."""

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = threading.Event()
        # repro: guarded-by(_cancelled) written once by the cancelling
        # thread before the event is set; executors read it only after
        # observing the event.
        self.reason = ""

    def cancel(self, reason: str = "cancelled by submitter") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._cancelled.is_set():
            self.reason = reason
            self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def check(self, site: str = "") -> None:
        """Raise :class:`QueryCancelledError` if cancellation was requested."""
        if self._cancelled.is_set():
            where = f" at {site}" if site else ""
            raise QueryCancelledError(
                f"request cancelled{where}: {self.reason}"
            )


class Budget:
    """One request's time-and-cancellation envelope.

    Mutable on purpose: ``timed_out`` flips when a ``partial_ok`` budget
    expires, and the HTTP layer may tighten the deadline with a
    query-supplied ``Deadline=`` parameter.  A budget is owned by one
    executing request; only the token inside is cross-thread.
    """

    __slots__ = ("deadline", "token", "partial_ok", "timed_out")

    def __init__(
        self,
        deadline: Deadline | None = None,
        token: CancellationToken | None = None,
        partial_ok: bool = False,
    ) -> None:
        self.deadline = deadline
        self.token = token
        self.partial_ok = partial_ok
        # repro: guarded-by(gil) set and read only on the thread
        # executing the request; the submitter never reads it.
        self.timed_out = False

    @classmethod
    def of(cls, budget: "Budget | Deadline | None", partial_ok: bool) -> "Budget | None":
        """``budget`` as a budget (a bare deadline wrapped; None stays
        None), with ``partial_ok`` — the query's ``Partial=1`` — folded in."""
        if isinstance(budget, Deadline):
            budget = cls(deadline=budget)
        if budget is not None and partial_ok:
            budget.partial_ok = True
        return budget

    # -- state queries ------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self.token is not None and self.token.cancelled

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def remaining(self) -> int | None:
        """Ticks left on the deadline (None when no deadline is set)."""
        if self.deadline is None:
            return None
        return self.deadline.remaining()

    # -- composition --------------------------------------------------------

    def tighten(self, clock: TickSource, budget_ticks: int) -> None:
        """Shrink (never grow) the deadline to ``now + budget_ticks``."""
        if self.deadline is None:
            self.deadline = Deadline(clock, budget_ticks)
        else:
            self.deadline = self.deadline.tightened(budget_ticks)

    # -- the one check operators call --------------------------------------

    def admits(self, site: str = "") -> bool:
        """May work continue?  The cooperative-cancellation checkpoint.

        * Cancelled → raises :class:`QueryCancelledError` (always; a
          cancelled client wants no answer, partial or otherwise).
        * Expired with ``partial_ok`` → records ``timed_out`` and
          returns ``False``: stop pulling, keep what you have.
        * Expired without → raises :class:`QueryTimeoutError`.
        * Otherwise → ``True``.
        """
        if self.token is not None:
            self.token.check(site)
        if self.timed_out:
            return False
        if self.deadline is not None and self.deadline.expired():
            if self.partial_ok:
                self.timed_out = True
                return False
            where = f" at {site}" if site else ""
            raise QueryTimeoutError(
                f"deadline expired{where} "
                f"(expiry tick {self.deadline.expires_at})"
            )
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Budget(deadline={self.deadline!r}, "
            f"cancelled={self.cancelled}, partial_ok={self.partial_ok}, "
            f"timed_out={self.timed_out})"
        )
