"""Failure-injection tests: targeted kills of protocol-critical nodes.

Rather than random churn, these kill exactly the nodes the protocols
depend on — the query root, a vertex primary's neighbourhood — and
assert that the recovery mechanisms (predictor retry, backup promotion,
refresh sweeps) restore the paper's guarantees.
"""

import pytest

from repro.core.deployment import Deployment
from repro.overlay.ids import ring_distance
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 6 * 3600.0


def build_system(small_dataset, count=30, seed=51):
    system = Deployment(
        trace="always_on", population=count, horizon=HORIZON, seed=seed,
        dataset=small_dataset, startup_stagger=20.0,
    ).build()
    system.run_until(150.0)
    return system


class TestRootFailure:
    def test_root_killed_before_predictor_completes(self, small_dataset):
        system = build_system(small_dataset, seed=52)
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        # Kill the root almost immediately: before aggregation finishes.
        root_id = system.overlay.true_closest_online(query.query_id)
        root = system.node_by_id(root_id)
        if root is origin:
            pytest.skip("origin happens to be the root in this seed")
        system.run_until(system.sim.now + 0.2)
        root.go_offline()
        # The originator's retry re-injects; the new root re-disseminates.
        system.run_until(system.sim.now + 120.0)
        status = origin.query_statuses[query.query_id]
        assert status.predictor is not None
        assert status.predictor.endsystems >= 28  # everyone but the victim

    def test_root_killed_after_results_accumulate(self, small_dataset):
        system = build_system(small_dataset, seed=53)
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 60.0)
        root_id = system.overlay.true_closest_online(query.query_id)
        root = system.node_by_id(root_id)
        before = system.status_of(query).rows_processed
        assert before > 0
        root.go_offline()
        # Failure detection -> backup promotion -> refresh sweeps rebuild.
        system.run_until(system.sim.now + 40 * 60.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
        live_truth = truth - root.database.relevant_row_count(
            root.parsed_query(query)
        )
        # The result recovers at least the live population's rows...
        assert status.rows_processed >= 0.95 * live_truth
        # ...and never double-counts.
        assert status.rows_processed <= truth


class TestNeighbourhoodFailure:
    def test_vertex_neighbourhood_wipeout(self, small_dataset):
        """Kill a contributor's entire leafset-side neighbourhood at once.

        This is the correlated-failure case the m backups defend against;
        with the refresh sweep the rows must come back even if the whole
        replica group dies.
        """
        system = build_system(small_dataset, count=36, seed=54)
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 60.0)
        # Kill the 4 nodes closest to the queryId (root + its backups).
        victims = sorted(
            (node for node in system.nodes if node is not origin),
            key=lambda node: ring_distance(node.node_id, query.query_id),
        )[:4]
        for victim in victims:
            victim.go_offline()
        system.run_until(system.sim.now + 45 * 60.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
        dead_rows = sum(
            victim.database.relevant_row_count(victim.parsed_query(query))
            for victim in victims
        )
        assert status is not None
        assert status.rows_processed >= 0.9 * (truth - dead_rows)
        assert status.rows_processed <= truth

    def test_victims_rejoin_and_contribute(self, small_dataset):
        system = build_system(small_dataset, count=24, seed=55)
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 30.0)
        victims = [node for node in system.nodes if node is not origin][:6]
        for victim in victims:
            victim.go_offline()
        system.run_until(system.sim.now + 10 * 60.0)
        for victim in victims:
            victim.go_online(system.overlay.pick_bootstrap(exclude=victim.node_id))
        system.run_until(system.sim.now + 40 * 60.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
        # Everyone was available during the query's lifetime: H_U(0,T) is
        # the full population, so the result converges to the exact total.
        assert status.rows_processed == truth
