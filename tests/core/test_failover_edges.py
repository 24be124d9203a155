"""Aggregation failover edge cases.

Two races the replica-group protocol must survive without losing or
double-counting a contribution: a backup promotion colliding with a
leafset handover (the old primary demotes itself, then the new primary
dies before taking over), and an endsystem re-submitting after
``reset_for_rejoin()`` (the persisted leaf target plus versioning must
keep it counted exactly once).
"""

import pytest

from repro.core.deployment import Deployment
from repro.core.aggregation import parent_vertex
from repro.core.query import QueryDescriptor
from repro.db.aggregates import AggregateSpec, AggregateState
from repro.db.executor import QueryResult
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


def count_result(rows: int) -> QueryResult:
    return QueryResult(
        specs=[AggregateSpec("COUNT", None)],
        states=[AggregateState.from_count(rows)],
        row_count=rows,
    )


@pytest.fixture
def system(small_dataset):
    system = Deployment(
        trace="always_on", population=10, horizon=HORIZON, seed=53,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    system.run_until(90.0)
    return system


def plant_vertex(system, node, rows=12):
    """Install one vertex state with a single contribution on ``node``."""
    descriptor = QueryDescriptor.create(
        QUERY_HTTP_BYTES, origin=node.node_id,
        injected_at=system.sim.now, lifetime=3600.0,
    )
    vertex_id = parent_vertex(descriptor.query_id, node.node_id)
    node.aggregator._apply_submission(
        descriptor, vertex_id, node.node_id, 1, count_result(rows)
    )
    key = (descriptor.query_id, vertex_id)
    assert key in node.aggregator._vertices
    return descriptor, key


class TestPromotionVsHandoverRace:
    def test_handover_then_new_primary_dies(self, system, monkeypatch):
        """Demote on handover, promote the backup back when the taker dies."""
        node = system.nodes[0]
        agg = node.aggregator
        descriptor, key = plant_vertex(system, node)
        original_children = dict(agg._vertices[key].children)

        # A closer node joined: we are no longer the primary and hand over.
        monkeypatch.setattr(node.pastry, "is_closest_to", lambda _key: False)
        agg.on_leafset_change()
        assert key not in agg._vertices
        new_primary, retained = agg._backups[key]
        assert retained.children == original_children

        # The new primary dies before the handover settles and the
        # leafset declares us closest again: the backup must be promoted
        # with the contribution intact — counted once, not lost.
        monkeypatch.setattr(node.pastry, "is_closest_to", lambda _key: True)
        agg.on_neighbour_failed(new_primary)
        assert key in agg._vertices
        assert key not in agg._backups
        promoted = agg._vertices[key]
        assert promoted.children == original_children
        assert promoted.merged_result().row_count == 12

    def test_promotion_skipped_when_not_closest(self, system, monkeypatch):
        """A backup whose vertex we do not own stays a backup on failure."""
        node = system.nodes[1]
        agg = node.aggregator
        descriptor, key = plant_vertex(system, node)
        monkeypatch.setattr(node.pastry, "is_closest_to", lambda _key: False)
        agg.on_leafset_change()
        new_primary, _ = agg._backups[key]
        agg.on_neighbour_failed(new_primary)
        assert key in agg._backups
        assert key not in agg._vertices

    def test_dead_primary_of_expired_query_drops_backup(self, system, monkeypatch):
        node = system.nodes[2]
        agg = node.aggregator
        descriptor = QueryDescriptor.create(
            QUERY_HTTP_BYTES, origin=node.node_id,
            injected_at=system.sim.now, lifetime=30.0,
        )
        node.remember_query(descriptor)
        vertex_id = parent_vertex(descriptor.query_id, node.node_id)
        key = (descriptor.query_id, vertex_id)
        from repro.core.aggregation import VertexState

        agg._backups[key] = (0x77, VertexState(descriptor.query_id, vertex_id))
        system.run_until(descriptor.expires_at + 5.0)
        monkeypatch.setattr(node.pastry, "is_closest_to", lambda _key: True)
        agg.on_neighbour_failed(0x77)
        assert key not in agg._backups
        assert key not in agg._vertices


class TestRejoinResubmission:
    def test_leaf_target_survives_reset(self, system, monkeypatch):
        node = system.nodes[3]
        agg = node.aggregator
        descriptor = QueryDescriptor.create(
            QUERY_HTTP_BYTES, origin=node.node_id,
            injected_at=system.sim.now, lifetime=3600.0,
        )
        agg.submit_local_result(descriptor, count_result(5))
        target = agg._leaf_targets[descriptor.query_id]
        agg.reset_for_rejoin()
        assert agg._pending == {}
        assert agg._vertices == {} and agg._backups == {}
        # The persisted leaf target keeps re-submissions exactly-once.
        assert agg._leaf_targets[descriptor.query_id] == target
        agg.submit_local_result(descriptor, count_result(5))
        assert agg._leaf_targets[descriptor.query_id] == target
        assert agg._leaf_versions[descriptor.query_id] == 2

    def test_resubmission_replaces_not_duplicates(self, system, monkeypatch):
        """At the vertex, the rejoin re-submission supersedes by version."""
        node = system.nodes[4]
        agg = node.aggregator
        monkeypatch.setattr(node.pastry, "is_closest_to", lambda _key: True)
        descriptor = QueryDescriptor.create(
            QUERY_HTTP_BYTES, origin=node.node_id,
            injected_at=system.sim.now, lifetime=3600.0,
        )
        # As root-and-leaf, the submission lands in our own root vertex.
        agg.submit_local_result(descriptor, count_result(5))
        key = (descriptor.query_id, descriptor.query_id)
        assert agg._vertices[key].merged_result().row_count == 5
        agg.submit_local_result(descriptor, count_result(5))
        state = agg._vertices[key]
        assert len(state.children) == 1
        assert state.children[node.node_id][0] == 2
        assert state.merged_result().row_count == 5

    def test_full_rejoin_reaches_exact_truth(self, system):
        """End to end: an endsystem bounce never double-counts its rows."""
        _, descriptor = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 90.0)
        truth = system.ground_truth_rows(descriptor.sql, descriptor.now_binding)
        assert system.status_of(descriptor).rows_processed == truth
        # Bounce a non-origin endsystem: down, then back up.
        origin_id = descriptor.origin
        index = next(
            i for i, node in enumerate(system.nodes)
            if node.node_id != origin_id
        )
        system.force_transition(index, goes_up=False)
        system.run_until(system.sim.now + 60.0)
        system.force_transition(index, goes_up=True)
        system.run_until(system.sim.now + 300.0)
        assert system.status_of(descriptor).rows_processed == truth