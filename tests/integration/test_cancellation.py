"""Tests for explicit query cancellation (§2)."""

import pytest

from repro.core.deployment import Deployment
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 4 * 3600.0


@pytest.fixture
def system(small_dataset):
    built = Deployment(
        trace="always_on", population=20, horizon=HORIZON, seed=23,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    built.run_until(90.0)
    return built


class TestCancellation:
    def test_tombstones_spread(self, system):
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 30.0)
        system.cancel_query(query)
        # Direct leafset gossip plus the periodic active-query exchange.
        system.run_until(system.sim.now + 20 * 60.0)
        cancelled_on = sum(
            1 for node in system.nodes if query.query_id in node.cancelled_queries
        )
        assert cancelled_on >= 15

    def test_cancelled_query_not_redistributed(self, system):
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 30.0)
        system.cancel_query(query)
        system.run_until(system.sim.now + 60.0)
        # A node that learned the tombstone refuses to execute it again.
        knower = next(
            node for node in system.nodes if query.query_id in node.cancelled_queries
        )
        knower._contributed.discard(query.query_id)
        knower.execute_and_submit(query)
        assert query.query_id not in knower._contributed

    def test_continuous_query_stops_on_cancel(self, system):
        origin, query = system.inject_query(
            QUERY_HTTP_BYTES, continuous_period=60.0
        )
        system.run_until(system.sim.now + 90.0)
        system.cancel_query(query)
        system.run_until(system.sim.now + 10 * 60.0)
        # After tombstones spread, leaf versions stop advancing.
        versions = {
            node.node_id: node.aggregator._leaf_versions.get(query.query_id, 0)
            for node in system.nodes
        }
        system.run_until(system.sim.now + 10 * 60.0)
        after = {
            node.node_id: node.aggregator._leaf_versions.get(query.query_id, 0)
            for node in system.nodes
        }
        stalled = sum(1 for key in versions if after[key] == versions[key])
        assert stalled >= 18

    def test_other_queries_unaffected(self, system):
        origin_a, query_a = system.inject_query(QUERY_HTTP_BYTES)
        origin_b, query_b = system.inject_query(
            "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"
        )
        system.run_until(system.sim.now + 30.0)
        system.cancel_query(query_a)
        system.run_until(system.sim.now + 60.0)
        status = system.status_of(query_b)
        truth = system.ground_truth_rows("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
        assert status.rows_processed == truth
