"""Smoke tests for the packet-level overhead harness (small scale)."""

import pytest

from repro.core.deployment import Deployment
from repro.harness.overhead import run_overhead_experiment
from repro.net.stats import CATEGORY_MAINTENANCE, CATEGORY_OVERLAY, CATEGORY_QUERY


@pytest.fixture(scope="module")
def result():
    return run_overhead_experiment(
        Deployment(population=60, horizon=2 * 3600.0, seed=1, num_profiles=10),
        inject_after=1200.0,
        sample_checkpoints=(60.0, 1800.0),
    )


class TestOverheadRun:
    def test_all_categories_present(self, result):
        for table in (result.tx_by_category, result.rx_by_category):
            assert set(table) >= {
                CATEGORY_OVERLAY,
                CATEGORY_MAINTENANCE,
                CATEGORY_QUERY,
            }

    def test_rates_positive_and_sane(self, result):
        assert 0 < result.mean_tx < 10_000
        assert 0 < result.mean_rx < 10_000

    def test_tx_rx_totals_balance(self, result):
        # Every sent byte is received (accounting happens at send time).
        assert result.mean_tx == pytest.approx(result.mean_rx, rel=0.01)

    def test_predictor_latency_seconds(self, result):
        assert result.predictor_latency is not None
        assert 0.0 < result.predictor_latency < 30.0

    def test_completeness_progression(self, result):
        assert len(result.completeness) == 2
        assert result.completeness[0][1] <= result.completeness[1][1]
        assert result.completeness[1][1] <= result.ground_truth_rows

    def test_samples_shape(self, result):
        # 60 endsystems x 2 hourly buckets.
        assert len(result.tx_samples) == 120


class TestBuildTrace:
    def test_farsite(self):
        trace = Deployment("farsite", population=50, horizon=3600.0, seed=1).trace_set()
        assert len(trace) == 50

    def test_gnutella(self):
        trace = Deployment("gnutella", population=50, horizon=3600.0, seed=1).trace_set()
        assert len(trace) == 50

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Deployment("bittorrent", population=10, horizon=100.0)

    def test_query_at_or_past_the_horizon_rejected(self):
        with pytest.raises(ValueError, match="at or past the end"):
            run_overhead_experiment(Deployment(population=10, horizon=900.0))
