"""Integration tests for the continuous-query extension + live updates."""

import numpy as np
import pytest

from repro.core.deployment import Deployment
from repro.traces import AvailabilitySchedule, TraceSet
from repro.workload.live import LiveAnemoneFeed

HORIZON = 3 * 3600.0
SQL = "SELECT COUNT(*), SUM(Bytes) FROM Flow WHERE SrcPort = 80"


@pytest.fixture(scope="module")
def live_system(small_dataset):
    system = Deployment(
        trace="always_on", population=24, horizon=HORIZON, seed=13,
        dataset=small_dataset, startup_stagger=20.0, private_databases=True,
    ).build()
    system.run_until(120.0)
    feed = LiveAnemoneFeed(
        system, np.random.default_rng(14), rows_per_hour=400.0, period=120.0
    )
    return system, feed


class TestContinuousQuery:
    def test_result_tracks_live_inserts(self, live_system):
        system, feed = live_system
        origin, query = system.inject_query(SQL, continuous_period=180.0)
        system.run_until(system.sim.now + 120.0)
        first = system.status_of(query).result.values()[0]

        system.run_until(system.sim.now + 1800.0)
        later_status = system.status_of(query)
        later = later_status.result.values()[0]
        assert feed.rows_inserted > 0
        assert later > first  # new HTTP rows appeared in the answer

    def test_result_matches_current_ground_truth(self, live_system):
        system, feed = live_system
        origin, query = system.inject_query(SQL, continuous_period=120.0)
        system.run_until(system.sim.now + 1200.0)
        feed.stop()
        # Let the last round of re-executions propagate fully.
        system.run_until(system.sim.now + 600.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(SQL)
        assert status.rows_processed == pytest.approx(truth, rel=0.02)

    def test_contributions_stay_exactly_once(self, live_system):
        system, _ = live_system
        origin, query = system.inject_query(SQL, continuous_period=120.0)
        system.run_until(system.sim.now + 900.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(SQL)
        # Despite dozens of re-submissions per endsystem, versioned
        # contributions never double-count: the result can lag behind the
        # live truth but never exceed it.
        assert status.rows_processed <= truth


class TestLiveFeed:
    def test_requires_private_databases(self, small_dataset):
        system = Deployment(
            trace="always_on", population=1, horizon=100.0, seed=1,
            dataset=small_dataset,
        ).build()
        with pytest.raises(ValueError):
            LiveAnemoneFeed(system, np.random.default_rng(0))

    def test_inserts_only_into_online_nodes(self, small_dataset):
        horizon = 3600.0
        schedules = [
            AvailabilitySchedule.always_on(horizon),
            AvailabilitySchedule.always_off(horizon),
        ]
        system = Deployment(
            trace=TraceSet(schedules, horizon), population=2, seed=2,
            dataset=small_dataset, startup_stagger=5.0, private_databases=True,
        ).build()
        system.run_until(10.0)
        before = [node.database.total_rows("Flow") for node in system.nodes]
        LiveAnemoneFeed(
            system, np.random.default_rng(3), rows_per_hour=600.0, period=60.0
        )
        system.run_until(1800.0)
        after = [node.database.total_rows("Flow") for node in system.nodes]
        offline_index = next(
            i for i, node in enumerate(system.nodes) if not node.pastry.online
        )
        online_index = 1 - offline_index
        assert after[offline_index] == before[offline_index]
        assert after[online_index] > before[online_index]
