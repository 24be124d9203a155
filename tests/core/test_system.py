"""Tests for the SeaweedSystem facade."""

import numpy as np
import pytest

from repro.core import SeaweedSystem
from repro.traces import AvailabilitySchedule, TraceSet
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


@pytest.fixture(scope="module")
def system(small_dataset):
    schedules = [AvailabilitySchedule.always_on(HORIZON) for _ in range(12)]
    # One endsystem toggles once, to exercise the online integral.
    schedules[0] = AvailabilitySchedule.from_intervals(
        [(0.0, 1800.0), (3600.0, HORIZON)], HORIZON
    )
    trace = TraceSet(schedules, HORIZON)
    return SeaweedSystem(
        trace, small_dataset, num_endsystems=12, master_seed=6, startup_stagger=10.0
    )


class TestConstruction:
    def test_unique_node_ids(self, system):
        assert len({node.node_id for node in system.nodes}) == 12

    def test_profiles_assigned(self, system):
        assert len(system.profiles) == 12

    def test_node_lookup(self, system):
        node = system.nodes[3]
        assert system.node_by_id(node.node_id) is node

    def test_default_population_is_trace_size(self, small_dataset):
        trace = TraceSet([AvailabilitySchedule.always_on(10.0)] * 5, 10.0)
        built = SeaweedSystem(trace, small_dataset, master_seed=1)
        assert built.num_endsystems == 5

    def test_id_seed_controls_ids_only(self, small_dataset):
        trace = TraceSet([AvailabilitySchedule.always_on(10.0)] * 5, 10.0)
        a = SeaweedSystem(trace, small_dataset, master_seed=1, id_seed=10)
        b = SeaweedSystem(trace, small_dataset, master_seed=1, id_seed=20)
        assert {n.node_id for n in a.nodes} != {n.node_id for n in b.nodes}
        assert list(a.profiles) == list(b.profiles)


class TestRunning:
    def test_online_count_follows_trace(self, system):
        system.run_until(900.0)
        assert system.online_count == 12
        system.run_until(2000.0)
        assert system.online_count == 11
        system.run_until(3700.0)
        assert system.online_count == 12

    def test_online_endsystem_seconds(self, system):
        system.run_until(HORIZON - 10.0)
        integral = system.online_endsystem_seconds(0.0, HORIZON - 10.0)
        # Bounded by the perfect-attendance integral and near the truth:
        # 11 always-on plus one missing for ~1800 s (startup stagger adds
        # a little more downtime at the very start).
        upper = 12 * (HORIZON - 10.0)
        assert 0.9 * (upper - 12 * 1800.0) < integral < upper

    def test_ground_truth_rows(self, system):
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
        direct = sum(
            node.database.execute_sql(QUERY_HTTP_BYTES).row_count
            for node in system.nodes
        )
        assert truth == direct

    def test_inject_from_offline_endsystem_rejected(self, small_dataset):
        horizon = 600.0
        schedules = [
            AvailabilitySchedule.always_on(horizon),
            AvailabilitySchedule.always_off(horizon),
        ]
        trace = TraceSet(schedules, horizon)
        built = SeaweedSystem(
            trace, small_dataset, num_endsystems=2, master_seed=2, startup_stagger=5.0
        )
        built.run_until(60.0)
        offline_index = next(
            i for i, node in enumerate(built.nodes) if not node.pastry.online
        )
        with pytest.raises(RuntimeError):
            built.inject_query(QUERY_HTTP_BYTES, origin_index=offline_index)

    def test_status_of_writes_no_node_state(self, small_dataset):
        trace = TraceSet([AvailabilitySchedule.always_on(HORIZON)] * 12, HORIZON)
        built = SeaweedSystem(
            trace, small_dataset, num_endsystems=12, master_seed=6, startup_stagger=10.0
        )
        built.run_until(120.0)
        origin, descriptor = built.inject_query(QUERY_HTTP_BYTES, origin_index=0)
        built.run_until(400.0)
        root = built.node_by_id(built.overlay.true_closest_online(descriptor.query_id))
        assert root is not origin
        # The root's own view lacks a predictor, so status_of must borrow
        # the originator's.
        root_status = root.query_statuses[descriptor.query_id]
        root_status.predictor = None
        root_status.predictor_ready_at = None

        def views():
            return {
                node.node_id: (status.predictor, status.predictor_ready_at)
                for node in built.nodes
                if (status := node.query_statuses.get(descriptor.query_id)) is not None
            }

        before = views()
        merged = built.status_of(descriptor)
        assert merged.predictor is not None
        assert merged.rows_processed == root_status.rows_processed
        assert views() == before

    def test_status_of_unknown_query_none(self, system, small_dataset):
        from repro.core.query import QueryDescriptor

        ghost = QueryDescriptor.create("SELECT COUNT(*) FROM Flow", 1, 0.0)
        assert system.status_of(ghost) is None
