"""Protocol-efficiency properties the paper claims (§3.3-3.4).

Dissemination touches each endsystem O(1) times; the aggregation tree
has N leaves, bounded depth, and real fan-in (it aggregates rather than
funnelling everything to the root); and per-query traffic is a small
fraction of maintenance traffic (paper: three orders of magnitude at
scale).
"""

import numpy as np
import pytest

from repro.core.deployment import Deployment
from repro.core.aggregation import vertex_chain
from repro.net.stats import CATEGORY_MAINTENANCE, CATEGORY_QUERY
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 4 * 3600.0
COUNT = 48


@pytest.fixture(scope="module")
def queried_system(small_dataset):
    system = Deployment(
        trace="always_on", population=COUNT, horizon=HORIZON, seed=91,
        dataset=small_dataset, startup_stagger=30.0,
    ).build()
    system.run_until(200.0)
    origin, query = system.inject_query(QUERY_HTTP_BYTES)
    system.run_until(system.sim.now + 90.0)
    return system, query


class TestDissemination:
    def test_each_endsystem_processes_query_once(self, queried_system):
        system, query = queried_system
        for node in system.nodes:
            assert query.query_id in node._contributed

    def test_task_count_is_linear_in_population(self, queried_system):
        system, query = queried_system
        tasks = sum(node.disseminator.task_count for node in system.nodes)
        # One in-range task per endsystem plus a bounded number of
        # dead-range/delegation tasks: O(N), not O(N log N).
        assert COUNT <= tasks <= 4 * COUNT

    def test_predictor_exact(self, queried_system):
        system, query = queried_system
        status = system.status_of(query)
        assert status.predictor.endsystems == COUNT


class TestAggregationTree:
    def test_tree_has_interior_aggregation(self, queried_system):
        """More than one vertex exists: the root is not a funnel."""
        system, query = queried_system
        vertices = set()
        for node in system.nodes:
            for (query_id, vertex_id) in node.aggregator._vertices:
                if query_id == query.query_id:
                    vertices.add(vertex_id)
        assert len(vertices) > 1
        assert query.query_id in vertices  # the root vertex exists

    def test_vertex_count_bounded_by_population(self, queried_system):
        system, query = queried_system
        primaries = sum(
            1
            for node in system.nodes
            for (query_id, _) in node.aggregator._vertices
            if query_id == query.query_id
        )
        assert primaries <= COUNT

    def test_leaf_chain_depth_logarithmic(self, queried_system):
        system, query = queried_system
        depths = []
        for node in system.nodes:
            target = node.aggregator._leaf_targets.get(query.query_id)
            if target is None:
                continue
            depths.append(len(vertex_chain(query.query_id, target)))
        assert depths
        # 128/b = 32 levels maximum; the leaf optimization compresses the
        # chain to O(log_16 N) + a few levels of shared suffix.
        assert max(depths) <= 33
        assert np.mean(depths) < 12

    def test_rows_exact_after_settle(self, queried_system):
        system, query = queried_system
        assert system.status_of(query).rows_processed == system.ground_truth_rows(
            QUERY_HTTP_BYTES
        )


class TestTrafficProportions:
    def test_query_traffic_below_maintenance(self, queried_system):
        system, _ = queried_system
        totals = system.accounting.totals_by_category("tx")
        # At tiny N with an active query the gap is smaller than the
        # paper's 1000x at 20,000 endsystems, but maintenance must still
        # dominate.
        assert totals[CATEGORY_QUERY] < totals[CATEGORY_MAINTENANCE]
