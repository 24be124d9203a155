"""Tests for per-endsystem availability models."""

import numpy as np
import pytest

from repro.core.availability_model import (
    PERIODIC_THRESHOLD,
    AvailabilityModel,
    AvailabilityPrediction,
)
from repro.core.metadata import EndsystemMetadata
from repro.proto import codec
from repro.sim import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimClock


class TestLearning:
    def test_down_durations_bucketed(self):
        model = AvailabilityModel()
        model.record_down_duration(3600.0)
        assert model.down_counts.sum() == 1

    def test_nonpositive_duration_ignored(self):
        model = AvailabilityModel()
        model.record_down_duration(0.0)
        model.record_down_duration(-5.0)
        assert model.down_counts.sum() == 0

    def test_up_events_by_hour(self):
        model = AvailabilityModel()
        model.record_up_event(8.7)
        model.record_up_event(8.1)
        model.record_up_event(20.0)
        assert model.up_hour_counts[8] == 2
        assert model.up_hour_counts[20] == 1
        assert model.observations == 3

    def test_learn_from_schedule(self):
        model = AvailabilityModel()
        starts = np.array([0.0, 10 * 3600.0, 30 * 3600.0])
        ends = np.array([5 * 3600.0, 20 * 3600.0, 40 * 3600.0])
        model.learn_from_schedule(starts, ends, SimClock(), until=1e9)
        assert model.observations == 3
        assert model.down_counts.sum() == 2  # two observed gaps

    def test_learn_respects_until(self):
        model = AvailabilityModel()
        starts = np.array([0.0, 86400.0])
        ends = np.array([3600.0, 90000.0])
        model.learn_from_schedule(starts, ends, SimClock(), until=1000.0)
        assert model.observations == 1


class TestClassification:
    def test_periodic_when_concentrated(self):
        model = AvailabilityModel()
        for _ in range(20):
            model.record_up_event(9.0)
        assert model.peak_to_mean() == pytest.approx(24.0)
        assert model.is_periodic()

    def test_not_periodic_when_uniform(self):
        model = AvailabilityModel()
        for hour in range(24):
            model.record_up_event(float(hour))
        assert model.peak_to_mean() == pytest.approx(1.0)
        assert not model.is_periodic()

    def test_threshold_is_paper_value(self):
        # Peak-to-mean must exceed 2 (paper §3.2.1): a mild concentration
        # (peak exactly 2x the mean) must NOT classify as periodic.
        assert PERIODIC_THRESHOLD == 2.0
        model = AvailabilityModel()
        for hour in range(24):
            model.record_up_event(float(hour))
        model.record_up_event(9.0)  # peak 2, mean 25/24 -> ratio 1.92
        assert model.peak_to_mean() < 2.0
        assert not model.is_periodic()

    def test_empty_model_not_periodic(self):
        assert not AvailabilityModel().is_periodic()


class TestPeriodicPrediction:
    def test_predicts_modal_hour(self):
        model = AvailabilityModel()
        for _ in range(50):
            model.record_up_event(9.0)
        clock = SimClock()
        now = 2 * SECONDS_PER_HOUR  # 02:00
        prediction = model.predict(now, down_since=0.0, clock=clock)
        expected = now + clock.seconds_until_hour(now, 9.5)
        assert prediction.expected_time() == pytest.approx(expected)

    def test_distribution_over_hours(self):
        model = AvailabilityModel()
        for _ in range(30):
            model.record_up_event(8.0)
        for _ in range(10):
            model.record_up_event(13.0)
        prediction = model.predict(0.0, 0.0, SimClock())
        assert len(prediction.times) == 2
        assert prediction.weights.sum() == pytest.approx(1.0)
        assert prediction.weights.max() == pytest.approx(0.75)


class TestDurationPrediction:
    def test_conditional_on_elapsed(self):
        model = AvailabilityModel()
        for _ in range(10):
            model.record_down_duration(600.0)  # 10 minutes
        for _ in range(10):
            model.record_down_duration(8 * SECONDS_PER_HOUR)
        # Down for an hour already: the 10-minute outcomes are ruled out.
        prediction = model.predict(
            now=3600.0, down_since=0.0, clock=SimClock()
        )
        assert prediction.expected_time() > 3600.0
        assert all(t > 3600.0 for t in prediction.times)

    def test_fallback_when_no_data(self):
        model = AvailabilityModel()
        prediction = model.predict(100.0, 0.0, SimClock())
        assert len(prediction.times) == 1
        assert prediction.times[0] > 100.0

    def test_fallback_when_elapsed_exceeds_history(self):
        model = AvailabilityModel()
        model.record_down_duration(60.0)
        prediction = model.predict(
            now=SECONDS_PER_DAY, down_since=0.0, clock=SimClock()
        )
        assert prediction.times[0] >= SECONDS_PER_DAY

    def test_times_never_in_past(self):
        model = AvailabilityModel()
        model.record_down_duration(60.0)
        model.record_down_duration(120.0)
        prediction = model.predict(now=90.0, down_since=0.0, clock=SimClock())
        assert all(t > 90.0 for t in prediction.times)


class TestSnapshot:
    def test_roundtrip(self):
        model = AvailabilityModel()
        model.record_up_event(9.0)
        model.record_down_duration(100.0)
        clone = AvailabilityModel.from_snapshot(model.snapshot())
        assert np.array_equal(clone.up_hour_counts, model.up_hour_counts)
        assert np.array_equal(clone.down_counts, model.down_counts)

    def test_snapshot_is_independent_copy(self):
        model = AvailabilityModel()
        snapshot = model.snapshot()
        model.record_up_event(5.0)
        assert snapshot["up_hour_counts"].sum() == 0

    def test_wire_size_is_48_bytes(self):
        # Paper Table 1: a = 48 bytes — all a summary-less record costs.
        bare = EndsystemMetadata(
            owner=1, summaries={}, row_counts={}, availability=AvailabilityModel()
        )
        assert codec.metadata_size(bare) == codec.AVAILABILITY == 48


class TestPrediction:
    def test_point_prediction(self):
        prediction = AvailabilityPrediction.point(123.0)
        assert prediction.expected_time() == 123.0
