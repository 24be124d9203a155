"""Discrete-event simulation substrate.

Provides the deterministic event loop (:class:`Simulator`), calendar clock
(:class:`SimClock`), cancellable events and periodic timers, and namespaced
random streams (:class:`RandomStreams`) used by every other subsystem.
"""

from repro.sim.events import Event
from repro.sim.randomness import RandomStreams, derive_seed
from repro.sim.simulator import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    PeriodicTimer,
    Scheduler,
    SimClock,
    SimulationError,
    Simulator,
)

__all__ = [
    "Event",
    "PeriodicTimer",
    "RandomStreams",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
    "Scheduler",
    "SimClock",
    "SimulationError",
    "Simulator",
    "derive_seed",
]
