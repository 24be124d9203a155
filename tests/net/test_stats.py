"""Tests for bandwidth accounting."""

import numpy as np
import pytest

from repro.core.deployment import Deployment
from repro.net.stats import BandwidthAccounting, cdf, percentile


@pytest.fixture
def accounting() -> BandwidthAccounting:
    return BandwidthAccounting(bucket_seconds=3600.0)


class TestRecording:
    def test_tx_rx_both_sides(self, accounting):
        accounting.record(10.0, "a", "b", 100, "query")
        assert accounting.total_tx == 100
        assert accounting.total_rx == 100
        assert accounting.per_endsystem_totals("tx") == {"a": 100}
        assert accounting.per_endsystem_totals("rx") == {"b": 100}

    def test_categories_separated(self, accounting):
        accounting.record(0.0, "a", "b", 10, "query")
        accounting.record(0.0, "a", "b", 20, "maintenance")
        totals = accounting.totals_by_category("tx")
        assert totals == {"query": 10, "maintenance": 20}

    def test_timeseries_bucketing(self, accounting):
        accounting.record(100.0, "a", "b", 10, "query")
        accounting.record(3700.0, "a", "b", 30, "query")
        series = accounting.timeseries("tx")["query"]
        assert series == {0: 10, 1: 30}

    def test_record_local_one_sided(self, accounting):
        accounting.record_local(0.0, "a", tx_bytes=50, rx_bytes=70, category="overlay")
        assert accounting.per_endsystem_totals("tx") == {"a": 50}
        assert accounting.per_endsystem_totals("rx") == {"a": 70}

    def test_tx_by_kind(self, accounting):
        accounting.record(0.0, "a", "b", 10, "query", "SW_VERTEX_REPL")
        accounting.record(0.0, "b", "a", 20, "query", "SW_VERTEX_REPL")
        accounting.record_local(0.0, "a", 5, 5, "overlay", "heartbeat")
        accounting.record(0.0, "a", "b", 7, "query")
        assert accounting.tx_by_kind == {
            "SW_VERTEX_REPL": 30, "heartbeat": 5, "other": 7,
        }

    def test_invalid_bucket_rejected(self):
        with pytest.raises(ValueError):
            BandwidthAccounting(bucket_seconds=0.0)

    def test_unknown_category_rejected(self, accounting):
        with pytest.raises(ValueError, match="unknown traffic category"):
            accounting.record(0.0, "a", "b", 10, "gossip")
        with pytest.raises(ValueError, match="unknown traffic category"):
            accounting.record_local(0.0, "a", 5, 5, "Query")  # case-sensitive
        # Nothing was recorded by the rejected calls.
        assert accounting.total_tx == 0
        assert accounting.total_rx == 0

    def test_all_known_categories_accepted(self, accounting):
        from repro.net.stats import ALL_CATEGORIES

        for category in ALL_CATEGORIES:
            accounting.record(0.0, "a", "b", 1, category)
            accounting.record_local(0.0, "a", 1, 1, category)
        assert accounting.totals_by_category("tx") == {
            category: 2.0 for category in ALL_CATEGORIES
        }


class TestSamples:
    def test_endsystem_hour_samples_include_zeros(self, accounting):
        accounting.record(100.0, "a", "b", 3600, "query")
        samples = accounting.endsystem_hour_samples(["a", "b", "c"], 0, 2, "tx")
        # 3 endsystems x 2 buckets = 6 samples; only one is non-zero.
        assert len(samples) == 6
        assert np.count_nonzero(samples) == 1
        assert samples.max() == pytest.approx(1.0)  # 3600 B over 3600 s

    def test_mean_rate(self, accounting):
        accounting.record(0.0, "a", "b", 500, "query")
        assert accounting.mean_rate_per_endsystem(100.0, "tx") == 5.0
        assert accounting.mean_rate_per_endsystem(0.0, "tx") == 0.0


class TestHelpers:
    def test_cdf_shape(self):
        values, fractions = cdf(np.array([3.0, 1.0, 2.0]))
        assert list(values) == [1.0, 2.0, 3.0]
        assert fractions[-1] == 1.0

    def test_cdf_empty(self):
        values, fractions = cdf(np.array([]))
        assert len(values) == 0

    def test_percentile(self):
        samples = np.arange(101, dtype=float)
        assert percentile(samples, 99) == pytest.approx(99.0)
        assert percentile(np.array([]), 99) == 0.0


def test_tx_by_kind_sums_to_total_tx():
    """Every sent byte of a run is charged to exactly one message kind."""
    run = Deployment("always_on", population=25, horizon=600.0, num_profiles=8).run(
        [(120.0, "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80")]
    )
    bandwidth = run.system.metrics_snapshot()["bandwidth"]
    by_kind = bandwidth["tx_by_kind"]
    assert sum(by_kind.values()) == bandwidth["total_tx"] > 0
    # Route envelopes count under the kind they carry.
    assert "P_ROUTE" not in by_kind
    assert {"heartbeat", "SW_RESULT_SUBMIT", "SW_VERTEX_REPL"} <= set(by_kind)
