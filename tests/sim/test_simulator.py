"""Tests for the discrete-event simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimClock, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(10):
            sim.schedule(5.0, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        observed = []
        sim.schedule(7.5, lambda: observed.append(sim.now))
        sim.run()
        assert observed == [7.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_kwargs_are_bound(self):
        sim = Simulator()
        seen = {}
        sim.schedule(1.0, seen.update, key="value")
        sim.run()
        assert seen == {"key": "value"}

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_drain_cancelled_compacts_queue(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for handle in handles[:90]:
            handle.cancel()
        sim.drain_cancelled()
        assert sim.pending_events == 10

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        handles[3].cancel()
        handles[7].cancel()
        assert sim.pending_events == 8
        assert sim.cancelled_events == 2

    def test_cancelled_gauge_drains_on_pop(self):
        # The lazy-deletion tombstones must be reclaimed as the loop
        # passes them, not accumulate for the whole run.
        sim = Simulator()
        fired = []
        for i in range(20):
            handle = sim.schedule(float(i + 1), fired.append, i)
            if i % 2 == 0:
                handle.cancel()
        assert sim.cancelled_events == 10
        sim.run_until(50.0)
        assert sim.cancelled_events == 0
        assert fired == [i for i in range(20) if i % 2 == 1]

    def test_cancelled_gauge_drains_via_compaction(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for handle in handles:
            handle.cancel()
        # Auto-compaction triggers once tombstones pass the threshold and
        # outnumber live entries; no events need to fire for it to run.
        # (Cancellations after a drain re-accumulate up to the threshold,
        # so the resident count is bounded, not zero.)
        assert sim.pending_events == 0
        assert sim.cancelled_events <= Simulator.COMPACT_MIN_CANCELLED

    def test_drain_cancelled_resets_gauge(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[:4]:
            handle.cancel()
        sim.drain_cancelled()
        assert sim.cancelled_events == 0
        assert sim.pending_events == 6
        sim.run()
        assert sim.pending_events == 0


class TestEventQueue:
    @settings(max_examples=200, deadline=None)
    @given(
        plan=st.lists(
            st.tuples(
                # Sub-second, longer, and whole-second delays
                # (same-instant ties).
                st.one_of(
                    st.floats(0.0, 0.9),
                    st.floats(1.0, 120.0),
                    st.sampled_from([0.0, 1.0, 30.0, 31.0]),
                ),
                # Delays the callback schedules from inside the run,
                # including zero (the current instant).
                st.lists(
                    st.one_of(
                        st.floats(0.0, 0.9), st.sampled_from([0.0, 1.0, 30.0])
                    ),
                    max_size=3,
                ),
                # Pending events the callback cancels (indices into the
                # pending list, taken modulo its length).
                st.lists(st.integers(0, 10**6), max_size=4),
                # Cancelled before the run starts.
                st.booleans(),
            ),
            min_size=1,
            max_size=25,
        ),
        # Far-out filler that one callback cancels in bulk mid-run; above
        # COMPACT_MIN_CANCELLED the bulk cancel compacts the heap while
        # the loop is running.
        filler=st.integers(0, 250),
        purge_at=st.floats(0.0, 120.0),
    )
    def test_firing_order_is_time_then_scheduling_order(self, plan, filler, purge_at):
        # Events fire exactly in a stable sort by (time, scheduling
        # order), skipping every cancelled one.
        compactions = []  # simulated time of each compaction

        class CountingSimulator(Simulator):
            def drain_cancelled(self):
                compactions.append(self.now)
                super().drain_cancelled()

        sim = CountingSimulator()
        scheduled = []  # (time, scheduling order) of every event
        handles = {}  # entry -> Event, for entries not yet fired or cancelled
        cancelled = set()
        fired = []
        purged = []

        def schedule(delay, followups=(), cancels=()):
            entry = (sim.now + delay, len(scheduled))
            scheduled.append(entry)
            handles[entry] = sim.schedule(delay, fire, entry, followups, cancels)
            return entry

        def cancel(entry):
            handles.pop(entry).cancel()
            cancelled.add(entry)

        def fire(entry, followups, cancels):
            assert sim.now == entry[0]
            del handles[entry]
            fired.append(entry)
            for delay in followups:
                schedule(delay)
            for index in cancels:
                if handles:
                    cancel(sorted(handles)[index % len(handles)])
            assert sim.pending_events == len(handles) + (not purged)

        def purge():
            purged.append(sim.now)
            for entry in filler_entries:
                if entry in handles:
                    cancel(entry)

        for delay, followups, cancels, cancel_now in plan:
            entry = schedule(delay, followups, cancels)
            if cancel_now:
                cancel(entry)
        filler_entries = [schedule(200.0 + i) for i in range(filler)]
        sim.schedule(purge_at, purge)
        assert sim.pending_events == len(handles) + 1
        assert sim.cancelled_events == len(cancelled)

        sim.run_until(1000.0)  # past every event
        assert fired == sorted(set(scheduled) - cancelled)
        assert sim.pending_events == 0
        assert sim.cancelled_events == 0
        if filler > max(Simulator.COMPACT_MIN_CANCELLED, len(scheduled) - filler):
            # The bulk cancel alone tips the compaction rule mid-run.
            assert any(t <= purged[0] for t in compactions)

    def test_callback_scheduling_at_the_current_instant_fires(self):
        # An event scheduled *during* the run at the current instant
        # fires after its already-queued same-instant sibling.
        sim = Simulator()
        fired = []
        sim.schedule(40.0, lambda: sim.schedule(0.0, fired.append, "same-instant"))
        sim.schedule(40.0, fired.append, "sibling")
        sim.run()
        assert fired == ["sibling", "same-instant"]

    def test_cancelled_far_events_never_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(90.0, fired.append, "dead")
        sim.schedule(91.0, fired.append, "live")
        handle.cancel()
        assert sim.cancelled_events == 1
        sim.run()
        assert fired == ["live"]
        assert sim.cancelled_events == 0

    def test_periodic_timer_fires_on_period(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_periodic(30.0, lambda: fired.append(sim.now))
        sim.run_until(100.0)
        timer.cancel()
        assert fired == [30.0, 60.0, 90.0]

    def test_drain_cancelled_compacts_far_events(self):
        sim = Simulator()
        handles = [sim.schedule(100.0 + i, lambda: None) for i in range(10)]
        for handle in handles[:6]:
            handle.cancel()
        sim.drain_cancelled()
        assert sim.pending_events == 4
        assert sim.cancelled_events == 0
        fired = sim.run()
        assert fired == 4


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_run_until_executes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, 3)
        sim.run_until(3.0)
        assert fired == [3]

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_run_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        count = sim.run(max_events=4)
        assert count == 4
        assert sim.pending_events == 6


class TestPeriodicTimer:
    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_periodic(2.0, lambda: fired.append(sim.now))
        sim.run_until(7.0)
        assert fired == [2.0, 4.0, 6.0]
        timer.cancel()

    def test_periodic_first_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(5.0, lambda: fired.append(sim.now), first_delay=1.0)
        sim.run_until(12.0)
        assert fired == [1.0, 6.0, 11.0]

    def test_cancel_stops_timer(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
        sim.run_until(3.5)
        timer.cancel()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_periodic(1.0, lambda: (fired.append(sim.now), timer.cancel()))
        sim.run_until(5.0)
        assert fired == [1.0]

    def test_invalid_period_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)


class TestSimClock:
    def test_hour_of_day_at_epoch(self):
        clock = SimClock()
        assert clock.hour_of_day(0.0) == 0.0

    def test_hour_of_day_wraps(self):
        clock = SimClock()
        assert clock.hour_of_day(25 * 3600.0) == pytest.approx(1.0)

    def test_epoch_offset(self):
        clock = SimClock(epoch_weekday=2, epoch_hour=9.0)
        assert clock.hour_of_day(0.0) == pytest.approx(9.0)
        assert clock.day_of_week(0.0) == 2

    def test_day_of_week_cycles(self):
        clock = SimClock()
        assert clock.day_of_week(0.0) == 0
        assert clock.day_of_week(6 * 86400.0) == 6
        assert clock.day_of_week(7 * 86400.0) == 0

    def test_is_weekend(self):
        clock = SimClock()
        assert not clock.is_weekend(4 * 86400.0)  # Friday
        assert clock.is_weekend(5 * 86400.0)  # Saturday
        assert clock.is_weekend(6 * 86400.0)  # Sunday

    def test_seconds_until_hour_future(self):
        clock = SimClock()
        assert clock.seconds_until_hour(0.0, 6.0) == pytest.approx(6 * 3600.0)

    def test_seconds_until_hour_past_wraps_to_tomorrow(self):
        clock = SimClock()
        t = 12 * 3600.0
        assert clock.seconds_until_hour(t, 6.0) == pytest.approx(18 * 3600.0)

    def test_seconds_until_hour_now_is_full_day(self):
        clock = SimClock()
        assert clock.seconds_until_hour(6 * 3600.0, 6.0) == pytest.approx(86400.0)

    def test_invalid_epoch_rejected(self):
        with pytest.raises(ValueError):
            SimClock(epoch_weekday=9)
        with pytest.raises(ValueError):
            SimClock(epoch_hour=25.0)
