"""Wall-clock scheduling: the live :class:`~repro.sim.simulator.Scheduler`.

Node code is written against the ``Scheduler`` protocol (``now``,
``clock``, ``schedule``, ``schedule_at``, ``schedule_periodic``), which
the :class:`~repro.sim.simulator.Simulator` implements by popping
events.  This module implements it over a running asyncio event loop so
the exact same SeaweedNode/PastryNode code drives live traffic.

Times are seconds since the scheduler was created (monotonic), matching
the simulator's convention that the deployment starts at t=0.  An
optional ``time_scale`` compresses protocol time: with scale 10, a
timer asking for 30 s fires after 3 wall seconds — useful for demos
whose protocol periods were tuned for simulated days.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable, Optional

from repro.sim.simulator import PeriodicTimer, SimClock

log = logging.getLogger("repro.serve.scheduler")


class AsyncioScheduler:
    """The :class:`Scheduler` protocol over a live asyncio loop.

    Scheduled callbacks are plain synchronous callables (the node code's
    event handlers); exceptions are logged and swallowed so one failing
    timer cannot take down the host process — the live analogue of a
    simulator run aborting.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        clock: Optional[SimClock] = None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._t0 = self._loop.time()
        self.clock = clock if clock is not None else SimClock()
        self.time_scale = time_scale
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Protocol seconds since the scheduler was created."""
        return (self._loop.time() - self._t0) * self.time_scale

    def _run(self, callback: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        self.events_fired += 1
        try:
            callback(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a timer must not kill the host
            log.exception("scheduled callback %r failed", callback)

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args, **kwargs)`` after ``delay`` protocol seconds."""
        wall_delay = max(0.0, delay) / self.time_scale
        return self._loop.call_later(wall_delay, self._run, callback, args, kwargs)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback`` at absolute protocol time ``time``."""
        return self.schedule(time - self.now, callback, *args, **kwargs)

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], Any],
        first_delay: Optional[float] = None,
    ) -> PeriodicTimer:
        """Run ``callback`` every ``period`` protocol seconds until cancelled."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        return PeriodicTimer(self, period, callback, first_delay)
