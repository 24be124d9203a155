"""Tests for completeness predictors."""

import numpy as np
import pytest

from repro.core.predictor import CompletenessPredictor, log_bucket_edges
from repro.proto import codec


class TestBucketing:
    def test_edges_log_spaced(self):
        edges = log_bucket_edges(10, 1000.0)
        ratios = edges[1:] / edges[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_edges_span(self):
        edges = log_bucket_edges(10, 86400.0)
        assert edges[0] == pytest.approx(1.0)
        assert edges[-1] == pytest.approx(86400.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            log_bucket_edges(0, 100.0)
        with pytest.raises(ValueError):
            log_bucket_edges(10, 0.5)


class TestAccumulation:
    def test_immediate_rows(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_immediate(100.0)
        assert predictor.expected_total == 100.0
        assert predictor.cumulative_at(0.0) == 100.0

    def test_delayed_rows_appear_later(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_at_delay(3600.0, 50.0)
        assert predictor.cumulative_at(0.0) == 0.0
        assert predictor.cumulative_at(86400.0) == 50.0

    def test_beyond_horizon_counted_in_total(self):
        predictor = CompletenessPredictor(16, 3600.0)
        predictor.add_at_delay(10 * 3600.0, 10.0)
        assert predictor.expected_total == 10.0
        assert predictor.cumulative_at(3600.0) == 0.0

    def test_distribution_spreads_mass(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_distribution(
            np.array([60.0, 3600.0]), np.array([0.5, 0.5]), 100.0
        )
        assert predictor.expected_total == pytest.approx(100.0)
        mid = predictor.cumulative_at(600.0)
        assert 40.0 <= mid <= 60.0

    def test_unnormalized_weights(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_distribution(np.array([10.0]), np.array([7.0]), 30.0)
        assert predictor.expected_total == pytest.approx(30.0)

    def test_unknown_endsystems_tracked(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_unknown()
        assert predictor.unknown_endsystems == 1
        assert predictor.endsystems == 1

    def test_zero_rows_counts_endsystem(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_at_delay(100.0, 0.0)
        assert predictor.endsystems == 1
        assert predictor.expected_total == 0.0


class TestMonotonicity:
    def test_cumulative_is_nondecreasing(self, rng):
        predictor = CompletenessPredictor(32, 14 * 86400.0)
        predictor.add_immediate(500.0)
        for _ in range(100):
            predictor.add_at_delay(float(rng.uniform(1, 10 * 86400)), float(rng.uniform(0, 50)))
        delays = np.logspace(0, 6.1, 60)
        series = predictor.series(delays)
        assert (np.diff(series) >= -1e-9).all()

    def test_completeness_bounded(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_immediate(10.0)
        predictor.add_at_delay(3600.0, 10.0)
        assert 0.0 <= predictor.completeness_at(0.0) <= 1.0
        assert predictor.completeness_at(86400.0) == pytest.approx(1.0)


class TestMerge:
    def test_merge_adds_everything(self):
        a = CompletenessPredictor(16, 86400.0)
        a.add_immediate(10.0)
        b = CompletenessPredictor(16, 86400.0)
        b.add_at_delay(100.0, 5.0)
        b.add_unknown()
        merged = a.merge(b)
        assert merged.expected_total == pytest.approx(15.0)
        assert merged.endsystems == 3
        assert merged.unknown_endsystems == 1

    def test_merge_does_not_mutate(self):
        a = CompletenessPredictor(16, 86400.0)
        a.add_immediate(10.0)
        b = CompletenessPredictor(16, 86400.0)
        b.add_immediate(20.0)
        a.merge(b)
        assert a.expected_total == 10.0

    def test_merge_incompatible_bucketing_rejected(self):
        a = CompletenessPredictor(16, 86400.0)
        b = CompletenessPredictor(32, 86400.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_associative(self):
        parts = []
        for delay in (0.0, 60.0, 3600.0):
            p = CompletenessPredictor(16, 86400.0)
            if delay == 0.0:
                p.add_immediate(10.0)
            else:
                p.add_at_delay(delay, 10.0)
            parts.append(p)
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert left.expected_total == right.expected_total
        assert np.allclose(left.bucket_rows, right.bucket_rows)


class TestInverse:
    def test_time_to_completeness_immediate(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_immediate(100.0)
        assert predictor.time_to_completeness(0.9) == 0.0

    def test_time_to_completeness_interpolates(self):
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_immediate(80.0)
        predictor.add_at_delay(3600.0, 20.0)
        t = predictor.time_to_completeness(0.95)
        # The answer is quantized to the log bucket containing 3600 s.
        edges = predictor.edges
        bucket = int(np.searchsorted(edges, 3600.0, side="left")) - 1
        assert edges[bucket] <= t <= edges[bucket + 1]

    def test_unreachable_fraction_is_inf(self):
        predictor = CompletenessPredictor(16, 3600.0)
        predictor.add_immediate(50.0)
        predictor.beyond_rows = 50.0
        assert predictor.time_to_completeness(0.99) == float("inf")

    def test_invalid_fraction(self):
        predictor = CompletenessPredictor(16, 3600.0)
        with pytest.raises(ValueError):
            predictor.time_to_completeness(1.5)


class TestWireSize:
    def test_constant_size(self):
        small = CompletenessPredictor(16, 86400.0)
        big = CompletenessPredictor(16, 86400.0)
        for delay in range(1000):
            big.add_at_delay(float(delay), 1.0)
        assert codec.predictor_size(small) == codec.predictor_size(big)

    def test_config_factory(self):
        predictor = CompletenessPredictor(24, 3600.0)
        assert len(predictor.bucket_rows) == 24
        assert predictor.edges[-1] == pytest.approx(3600.0)
