"""Unit tests for the live update feed."""

import numpy as np
import pytest

from repro.core.deployment import Deployment
from repro.workload.live import LiveAnemoneFeed

HORIZON = 2 * 3600.0


@pytest.fixture
def live_setup(small_dataset):
    system = Deployment(
        trace="always_on", population=6, horizon=HORIZON, seed=81,
        dataset=small_dataset, startup_stagger=5.0, private_databases=True,
    ).build()
    system.run_until(30.0)
    return system


class TestLiveFeed:
    def test_rows_accumulate(self, live_setup):
        system = live_setup
        before = sum(node.database.total_rows("Flow") for node in system.nodes)
        feed = LiveAnemoneFeed(
            system, np.random.default_rng(1), rows_per_hour=600.0, period=60.0
        )
        system.run_until(system.sim.now + 1800.0)
        after = sum(node.database.total_rows("Flow") for node in system.nodes)
        assert after - before == feed.rows_inserted
        assert feed.rows_inserted > 0

    def test_rates_are_heavy_tailed(self, live_setup):
        feed = LiveAnemoneFeed(
            live_setup, np.random.default_rng(2), rows_per_hour=100.0, level_sigma=1.5
        )
        assert feed._rates.max() > 3 * feed._rates.min()

    def test_stop_halts_inserts(self, live_setup):
        system = live_setup
        feed = LiveAnemoneFeed(
            system, np.random.default_rng(3), rows_per_hour=600.0, period=60.0
        )
        system.run_until(system.sim.now + 300.0)
        feed.stop()
        inserted = feed.rows_inserted
        system.run_until(system.sim.now + 600.0)
        assert feed.rows_inserted == inserted

    def test_rows_have_valid_schema_values(self, live_setup):
        system = live_setup
        LiveAnemoneFeed(
            system, np.random.default_rng(4), rows_per_hour=600.0, period=60.0
        )
        system.run_until(system.sim.now + 600.0)
        node = system.nodes[0]
        table = node.database.table("Flow")
        assert (table.column("Bytes") >= 64).all()
        assert (table.column("Packets") >= 1).all()

    def test_generation_bumped_for_delta_pushes(self, live_setup):
        system = live_setup
        node = system.nodes[0]
        generation = node.database.generation
        LiveAnemoneFeed(
            system, np.random.default_rng(5), rows_per_hour=2000.0, period=30.0
        )
        system.run_until(system.sim.now + 300.0)
        assert node.database.generation > generation


class TestDeploymentFeed:
    def spec(self, small_dataset, **fields):
        return Deployment(
            trace="always_on", population=6, horizon=HORIZON, seed=81,
            dataset=small_dataset, startup_stagger=5.0, **fields,
        )

    def test_read_only_by_default(self, small_dataset):
        system = self.spec(small_dataset).build()
        assert system.live_feed is None
        assert not system.private_databases

    def test_the_spec_attaches_a_feed_on_private_databases(self, small_dataset):
        system = self.spec(small_dataset, live_feed=True).build()
        assert system.private_databases
        before = sum(node.database.total_rows("Flow") for node in system.nodes)
        system.run_until(HORIZON)
        after = sum(node.database.total_rows("Flow") for node in system.nodes)
        assert system.live_feed.rows_inserted > 0
        assert after - before == system.live_feed.rows_inserted

    def test_the_feed_draws_from_seed_plus_two(self, small_dataset):
        system = self.spec(small_dataset, live_feed=True).build()
        expected = 10.0 * np.random.default_rng(81 + 2).lognormal(0.0, 1.0, size=6)
        assert np.array_equal(system.live_feed._rates, expected)
