"""Integration tests for the metadata replication service."""

import pytest

from repro.core.deployment import Deployment
from repro.traces import AvailabilitySchedule, TraceSet
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 6 * 3600.0


@pytest.fixture(scope="module")
def replicated_system(small_dataset):
    system = Deployment(
        trace="always_on", population=30, horizon=HORIZON, seed=3,
        dataset=small_dataset, startup_stagger=20.0,
    ).build()
    system.run_until(120.0)
    return system


class TestReplication:
    def test_every_node_pushed_metadata(self, replicated_system):
        # After joining, each node pushes to its k closest neighbours; with
        # 30 nodes and k=8, every node should hold several records.
        held = [len(node.metadata_store) for node in replicated_system.nodes]
        assert min(held) >= 1
        assert sum(held) >= 30 * 4  # at least half the pushes landed

    def test_replicas_are_the_closest_nodes(self, replicated_system):
        system = replicated_system
        ids = sorted(node.node_id for node in system.nodes)
        for node in system.nodes[:10]:
            # The nodes holding this node's metadata should be ring-near it.
            position = ids.index(node.node_id)
            neighbours = {
                ids[(position + offset) % len(ids)]
                for offset in (-4, -3, -2, -1, 1, 2, 3, 4)
            }
            holders = {
                other.node_id
                for other in system.nodes
                if node.node_id in other.metadata_store
            }
            assert holders, f"nobody holds metadata for {node.node_id:x}"
            assert holders & neighbours, "metadata not on ring neighbours"

    def test_record_versions_monotone(self, replicated_system):
        system = replicated_system
        # Let a periodic push cycle pass and check versions only grow.
        before = {}
        for node in system.nodes:
            for owner in node.metadata_store.owners():
                record = node.metadata_store.get(owner)
                before[(node.node_id, owner)] = record.metadata.version
        system.run_until(system.sim.now + 25 * 60.0)
        for node in system.nodes:
            for owner in node.metadata_store.owners():
                record = node.metadata_store.get(owner)
                key = (node.node_id, owner)
                if key in before:
                    assert record.metadata.version >= before[key]

    def test_estimates_from_replicated_metadata(self, replicated_system):
        """A replica's histogram estimate matches the owner's exact count."""
        system = replicated_system
        from repro.db.sql import parse

        query = parse(QUERY_HTTP_BYTES)
        checked = 0
        for node in system.nodes:
            for owner in node.metadata_store.owners():
                owner_node = system.node_by_id(owner)
                record = node.metadata_store.get(owner)
                exact = owner_node.database.relevant_row_count(query)
                estimate = record.metadata.estimate_rows(query)
                assert estimate == pytest.approx(exact, rel=0.1, abs=5)
                checked += 1
                if checked >= 25:
                    return
        assert checked > 0


class TestDownMarking:
    def test_replicas_observe_owner_failure(self, small_dataset):
        horizon = 2 * 3600.0
        schedules = [AvailabilitySchedule.always_on(horizon) for _ in range(20)]
        # Node 0 goes down at t=1800 and stays down.
        schedules[0] = AvailabilitySchedule.from_intervals([(0.0, 1800.0)], horizon)
        trace = TraceSet(schedules, horizon)
        system = Deployment(
            trace=trace, population=20, seed=4, dataset=small_dataset,
            startup_stagger=20.0,
        ).build()
        system.run_until(1800.0 + 120.0)  # past failure detection
        # Profile assignment shuffles schedules: find the actual victim.
        victims = [node for node in system.nodes if not node.pastry.online]
        assert len(victims) == 1
        victim = victims[0]
        observers = [
            node
            for node in system.nodes[1:]
            if victim.node_id in node.metadata_store
        ]
        assert observers
        marked = [
            node
            for node in observers
            if node.metadata_store.get(victim.node_id).down_since is not None
        ]
        # The leafset neighbours that held the record must have marked it.
        assert marked
        for node in marked:
            down_since = node.metadata_store.get(victim.node_id).down_since
            assert 1800.0 <= down_since <= 1800.0 + 120.0
