"""Tests for event primitives."""

from repro.sim import Simulator
from repro.sim.events import Event


class TestEvent:
    def test_exposes_time(self):
        assert Simulator().schedule(3.5, lambda: None).time == 3.5

    def test_cancel_sets_flag(self):
        event = Event(1.0, lambda: None)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled

    def test_cancel_notifies_owner_once(self):
        notified = []
        event = Event(1.0, lambda: None, lambda: notified.append(1))
        event.cancel()
        event.cancel()
        assert notified == [1]
