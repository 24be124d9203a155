"""Regression tests for aggregation-tree state collection.

The expiry sweep historically leaked two classes of state forever:
vertex state whose query descriptor could not be resolved through
``known_query()`` (the sweep skipped it instead of collecting it), and
*backup* replicas of expired queries (only the primary table was swept,
and ``on_leafset_change`` only reaps primaries).  Both must be
collected, and live state must survive the sweep untouched.
"""

import pytest

from repro.core.deployment import Deployment
from repro.core.aggregation import VertexState
from repro.core.query import QueryDescriptor
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


@pytest.fixture
def system(small_dataset):
    system = Deployment(
        trace="always_on", population=8, horizon=HORIZON, seed=41,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    system.run_until(90.0)
    return system


def inventory(node):
    return list(node.aggregator.vertex_inventory())


class TestExpirySweep:
    def test_unresolvable_descriptor_state_is_collected(self, system):
        node = system.nodes[0]
        agg = node.aggregator
        # Orphaned state: no descriptor was ever registered for query 0xDEAD.
        agg._vertices[(0xDEAD, 0xBEEF)] = VertexState(0xDEAD, 0xBEEF)
        assert node.known_query(0xDEAD) is None
        agg.expire(system.sim.now)
        assert (0xDEAD, 0xBEEF) not in agg._vertices
        assert inventory(node) == []

    def test_backup_state_of_expired_query_is_collected(self, system):
        node = system.nodes[0]
        agg = node.aggregator
        descriptor = QueryDescriptor.create(
            QUERY_HTTP_BYTES, origin=node.node_id,
            injected_at=system.sim.now, lifetime=10.0,
        )
        node.remember_query(descriptor)
        agg._backups[(descriptor.query_id, 0x77)] = (
            0x55, VertexState(descriptor.query_id, 0x77),
        )
        # Before expiry the backup survives the sweep...
        agg.expire(system.sim.now)
        assert agg.backup_count == 1
        # ...after expiry it is collected.
        agg.expire(descriptor.expires_at + 1.0)
        assert agg.backup_count == 0

    def test_orphaned_backup_is_collected(self, system):
        node = system.nodes[0]
        agg = node.aggregator
        agg._backups[(0xF00D, 0x11)] = (0x22, VertexState(0xF00D, 0x11))
        agg.expire(system.sim.now)
        assert agg.backup_count == 0

    def test_cancelled_query_state_is_collected(self, system):
        node = system.nodes[0]
        agg = node.aggregator
        descriptor = QueryDescriptor.create(
            QUERY_HTTP_BYTES, origin=node.node_id,
            injected_at=system.sim.now, lifetime=3600.0,
        )
        node.remember_query(descriptor)
        key = (descriptor.query_id, 0x33)
        agg._vertices[key] = VertexState(*key)
        agg._backups[(descriptor.query_id, 0x44)] = (
            0x55, VertexState(descriptor.query_id, 0x44),
        )
        node.cancel_query(descriptor.query_id)
        agg.expire(system.sim.now)
        assert agg.vertex_count == 0
        assert agg.backup_count == 0

    def test_live_query_state_survives(self, system):
        system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 60.0)
        held_before = sum(len(inventory(node)) for node in system.nodes)
        assert held_before > 0
        for node in system.nodes:
            node.aggregator.expire(system.sim.now)
        held_after = sum(len(inventory(node)) for node in system.nodes)
        assert held_after == held_before

    def test_no_state_survives_query_expiry_anywhere(self, system):
        _, descriptor = system.inject_query(QUERY_HTTP_BYTES, lifetime=120.0)
        system.run_until(system.sim.now + 60.0)
        assert any(inventory(node) for node in system.nodes)
        # Past expiry plus one refresh sweep, every table is clean —
        # primaries AND backups.
        grace = system.config.result_refresh_period
        system.run_until(descriptor.expires_at + 2 * grace)
        for node in system.nodes:
            assert inventory(node) == []
