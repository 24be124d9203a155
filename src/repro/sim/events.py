"""Event primitives for the discrete-event simulator.

An :class:`Event` couples a firing time with a callback; it is what
:meth:`repro.sim.simulator.Simulator.schedule` returns, so the caller
can cancel it.  Events carry no ordering of their own: the simulator's
heap orders ``(time, seq, event)`` tuples, where ``seq`` is a
monotonically increasing tie-breaker, which makes execution
deterministic even when many events share a timestamp.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Event:
    """A scheduled callback in the simulation.

    Attributes:
        time: Simulated time (seconds since simulation epoch) at which the
            event fires.
        callback: Zero-argument callable invoked when the event fires.
            Arguments are bound at scheduling time.
        cancelled: Set by :meth:`cancel`; cancelled events are skipped by
            the event loop.

    Cancellation is O(1): the event is flagged and lazily discarded when
    it reaches the head of the queue.  The optional ``on_cancel``
    callback lets the owning simulator keep an exact count of
    dead-but-resident entries (``Simulator.cancelled_events``, reported
    in ``metrics_snapshot()["sim"]``) for compaction decisions.
    """

    __slots__ = ("time", "callback", "cancelled", "_on_cancel")

    def __init__(
        self,
        time: float,
        callback: Callable[[], Any],
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._on_cancel is not None:
                self._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(time={self.time!r}, {state})"
