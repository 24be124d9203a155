"""A deterministic discrete-event simulator.

The simulator is the substrate on which the Pastry overlay, the network
transport, and the Seaweed protocols all run.  Its event index is one
lazy-deletion binary heap (:mod:`heapq`) of ``(time, seq, event)``
tuples:

* events are ordered by ``(time, seq)`` so same-instant events fire in
  scheduling order, making runs bit-reproducible for a fixed seed;
* callbacks may schedule further events, including at the current time;
* cancelled events (a node goes offline, a pending ack is satisfied) are
  flagged, counted in :attr:`Simulator.cancelled_events`, skipped when
  popped, and compacted away when they would otherwise dominate the
  heap;
* periodic timers are provided as a convenience and may be cancelled.

A Seaweed deployment keeps three periodic timers per online endsystem
(stabilization, result refresh, metadata push), so at 2,000 endsystems
the heap holds ~4k entries, about 12 levels deep.  ``seq`` is unique,
so heap comparisons never reach the :class:`Event` itself and run as C
tuple comparisons.

Time is a float number of seconds since the *simulation epoch*.  A
:class:`SimClock` maps simulated seconds onto wall-clock structure
(hour-of-day, day-of-week) so that diurnal availability logic has a
well-defined calendar.
"""

from __future__ import annotations

import functools
import heapq
import math
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiling import SimProfiler

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class SimClock:
    """Maps simulated seconds onto calendar structure.

    The simulation epoch is anchored at ``epoch_hour`` hours into
    ``epoch_weekday`` (0 = Monday), so hour-of-day and day-of-week are
    well-defined for diurnal and weekly availability patterns.
    """

    def __init__(self, epoch_weekday: int = 0, epoch_hour: float = 0.0) -> None:
        if not 0 <= epoch_weekday < 7:
            raise ValueError(f"epoch_weekday must be in [0, 7), got {epoch_weekday}")
        if not 0.0 <= epoch_hour < 24.0:
            raise ValueError(f"epoch_hour must be in [0, 24), got {epoch_hour}")
        self.epoch_weekday = epoch_weekday
        self.epoch_hour = epoch_hour
        self._epoch_offset = (epoch_weekday * 24.0 + epoch_hour) * SECONDS_PER_HOUR

    def hour_of_day(self, t: float) -> float:
        """Fractional hour of day in [0, 24) at simulated time ``t``."""
        return ((t + self._epoch_offset) % SECONDS_PER_DAY) / SECONDS_PER_HOUR

    def day_of_week(self, t: float) -> int:
        """Day of week (0 = Monday .. 6 = Sunday) at simulated time ``t``."""
        return int((t + self._epoch_offset) // SECONDS_PER_DAY) % 7

    def is_weekend(self, t: float) -> bool:
        """Whether ``t`` falls on Saturday or Sunday."""
        return self.day_of_week(t) >= 5

    def seconds_until_hour(self, t: float, hour: float) -> float:
        """Seconds from ``t`` until the next occurrence of ``hour`` o'clock.

        Returns a value in (0, 24h]; if ``t`` is exactly at ``hour`` the
        result is a full day (the *next* occurrence).
        """
        now_hour = self.hour_of_day(t)
        delta_hours = (hour - now_hour) % 24.0
        if delta_hours <= 0.0:
            delta_hours += 24.0
        return delta_hours * SECONDS_PER_HOUR


class Cancellable(Protocol):
    """What scheduling returns: something that can be called off."""

    def cancel(self) -> None:
        ...  # pragma: no cover - protocol definition


class Scheduler(Protocol):
    """The time-and-timers surface the protocol stack runs against.

    The transport, the overlay services, :class:`PastryNode` and
    :class:`SeaweedNode` hold one of these as ``.scheduler`` and never
    learn which world they are in: :class:`Simulator` advances ``now``
    by popping events, :class:`repro.serve.scheduler.AsyncioScheduler`
    reads it off the event loop's monotonic clock.
    """

    clock: SimClock

    @property
    def now(self) -> float:
        """Protocol time in seconds since the deployment started."""
        ...  # pragma: no cover - protocol definition

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Cancellable:
        """Run ``callback(*args, **kwargs)`` ``delay`` seconds from now."""
        ...  # pragma: no cover - protocol definition

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Cancellable:
        """Run ``callback(*args, **kwargs)`` at absolute time ``time``."""
        ...  # pragma: no cover - protocol definition

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ) -> "PeriodicTimer":
        """Run ``callback`` every ``period`` seconds until cancelled."""
        ...  # pragma: no cover - protocol definition


class Simulator:
    """Deterministic discrete-event loop (the simulated :class:`Scheduler`).

    Example::

        sim = Simulator()
        sim.schedule(5.0, print, "five seconds in")
        sim.run_until(10.0)
    """

    #: Compaction threshold: once more than this many cancelled entries
    #: are resident *and* they outnumber live ones, the heap is compacted.
    #: The halving rule keeps compaction amortized O(1) per cancellation.
    COMPACT_MIN_CANCELLED = 64

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        profiler: Optional["SimProfiler"] = None,
    ) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._profiler = profiler
        self.clock = clock if clock is not None else SimClock()
        # Dead-but-resident heap entries, kept exact via the Event
        # cancel notification.
        self._cancelled_resident = 0

    @property
    def profiler(self) -> Optional["SimProfiler"]:
        """The attached profiler, if any."""
        return self._profiler

    def set_profiler(self, profiler: Optional["SimProfiler"]) -> None:
        """Attach (or detach, with None) a profiler to the event loop.

        With no profiler the loop pays one ``is None`` check per event;
        with one, each callback is timed with ``perf_counter`` and
        recorded under a label derived from the handler (see
        :func:`handler_label`).
        """
        self._profiler = profiler

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._queue) - self._cancelled_resident

    @property
    def cancelled_events(self) -> int:
        """Cancelled entries still resident in the heap.

        These are the lazy-deletion tombstones: O(1) to create, reclaimed
        when popped past or by :meth:`drain_cancelled` (which
        also runs automatically when they outnumber live entries).
        """
        return self._cancelled_resident

    def _note_cancel(self) -> None:
        # Event cancel notification: count the tombstone, and compact
        # once dead entries dominate the heap.
        self._cancelled_resident += 1
        if (
            self._cancelled_resident > self.COMPACT_MIN_CANCELLED
            and self._cancelled_resident * 2 > len(self._queue)
        ):
            self.drain_cancelled()

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to fire at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"invalid event time {time}")
        if args or kwargs:
            # partial (not a lambda) so the profiler can recover the
            # underlying handler via ``.func`` for labeling.
            bound = functools.partial(callback, *args, **kwargs)
        else:
            bound = callback
        event = Event(time, bound, self._note_cancel)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        return event

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ) -> "PeriodicTimer":
        """Run ``callback`` every ``period`` seconds until the timer is cancelled.

        ``first_delay`` defaults to ``period``; pass a randomized phase to
        avoid system-wide synchronization spikes (the paper staggers
        histogram pushes for exactly this reason).
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        return PeriodicTimer(self, period, callback, first_delay)

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            if event.cancelled:
                self._cancelled_resident -= 1
                continue
            self._now = event.time
            self._events_processed += 1
            profiler = self._profiler
            if profiler is None:
                event.callback()
            else:
                start = perf_counter()
                event.callback()
                profiler.record(
                    handler_label(event.callback),
                    perf_counter() - start,
                    len(queue),
                )
            return True
        return False

    def run_until(self, time: float) -> None:
        """Run all events with firing time <= ``time``, then advance the clock to it."""
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time} from {self._now}")
        queue = self._queue
        while queue:
            head_time, _, head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                self._cancelled_resident -= 1
                continue
            if head_time > time:
                break
            self.step()
        self._now = time

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).  Returns events run."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def drain_cancelled(self) -> None:
        """Compact the heap by dropping cancelled events.

        Called automatically when tombstones outnumber live entries (see
        :meth:`_note_cancel`); harmless to call at any time.  The heap is
        rebuilt in place, so a loop holding it never sees a stale list.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_resident = 0


class PeriodicTimer:
    """A self-rescheduling timer over any :class:`Scheduler`.

    The next tick is armed *after* the callback returns (so a callback
    that schedules events at the same instant keeps its place ahead of
    the re-arm, as the simulator's event order has always had it), and
    in a ``finally`` so a live timer survives a callback that raises.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        period: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ) -> None:
        self._scheduler = scheduler
        self._period = period
        self._callback = callback
        self._cancelled = False
        delay = period if first_delay is None else first_delay
        self._handle = scheduler.schedule(delay, self._fire)

    @property
    def cancelled(self) -> bool:
        """Whether the timer has been cancelled."""
        return self._cancelled

    @property
    def period(self) -> float:
        """The timer period in seconds."""
        return self._period

    def _fire(self) -> None:
        if self._cancelled:
            return
        try:
            self._callback()
        finally:
            if not self._cancelled:
                self._handle = self._scheduler.schedule(self._period, self._fire)

    def cancel(self) -> None:
        """Stop the timer.  Idempotent; a pending tick is discarded."""
        self._cancelled = True
        self._handle.cancel()


def handler_label(callback: Callable[[], Any]) -> str:
    """A stable profiling label for a scheduled callback.

    Unwraps the argument-binding partial, and attributes periodic-timer
    ticks to the user callback rather than ``PeriodicTimer._fire``.
    """
    inner = getattr(callback, "func", callback)
    owner = getattr(inner, "__self__", None)
    if isinstance(owner, PeriodicTimer):
        inner = owner._callback
        inner = getattr(inner, "func", inner)
    return getattr(inner, "__qualname__", None) or repr(inner)

