"""End-to-end tests of a full Seaweed deployment (no churn).

With every endsystem online throughout, the system must deliver exact
results: the predictor covers every endsystem with the exact row counts,
and the aggregated result equals the ground truth computed directly over
all local databases.
"""

import pytest

from repro.core.deployment import Deployment
from repro.db.executor import execute
from repro.workload import QUERY_HTTP_BYTES, QUERY_SMB_AVG

HORIZON = 4 * 3600.0


@pytest.fixture(scope="module")
def stable_system(small_dataset):
    system = Deployment(
        trace="always_on", population=40, horizon=HORIZON, seed=9,
        dataset=small_dataset, startup_stagger=30.0,
    ).build()
    system.run_until(180.0)
    return system


class TestStableDeployment:
    def test_everyone_joins(self, stable_system):
        assert stable_system.online_count == 40

    def test_leafsets_full(self, stable_system):
        for node in stable_system.nodes:
            assert node.pastry.leafset.is_full()

    def test_query_lifecycle(self, stable_system):
        system = stable_system
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 60.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)

        # Predictor: exact coverage, everything immediate.
        assert status.predictor is not None
        assert status.predictor.endsystems == 40
        assert status.predictor.expected_total == pytest.approx(truth)
        assert status.predictor.immediate_rows == pytest.approx(truth)

        # Predictor latency is seconds, not minutes (paper: 3.1 s at 2k).
        assert status.predictor_ready_at - query.injected_at < 10.0

        # Result: exactly-once contribution from every endsystem.
        assert status.rows_processed == truth

    def test_aggregate_value_matches_direct_computation(self, stable_system):
        system = stable_system
        origin, query = system.inject_query(QUERY_SMB_AVG)
        system.run_until(system.sim.now + 60.0)
        status = system.status_of(query)

        total = 0.0
        count = 0
        for node in system.nodes:
            result = node.database.execute_sql(QUERY_SMB_AVG)
            state = result.states[0]
            total += state.total
            count += state.count
        expected_avg = total / count
        assert status.result.values()[0] == pytest.approx(expected_avg)

    def test_originator_receives_predictor(self, stable_system):
        system = stable_system
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 30.0)
        own_status = origin.query_statuses[query.query_id]
        assert own_status.predictor is not None

    def test_projection_query_returns_rows(self, stable_system):
        system = stable_system
        sql = "SELECT SrcPort, Bytes FROM Flow WHERE Bytes > 1000000"
        origin, query = system.inject_query(sql)
        system.run_until(system.sim.now + 60.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(sql)
        assert truth > 0
        assert status.rows_processed == truth
        assert len(status.result.rows) == truth

    def test_shared_results_are_never_mutated(self, stable_system):
        # Query results travel the simulated tree by reference: a leaf's
        # own result is the very object its vertex, the backups and the
        # root hold.  Any in-place merge would show up here.
        system = stable_system
        for sql in (
            QUERY_HTTP_BYTES,
            QUERY_SMB_AVG,
            "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE Bytes > 1000 GROUP BY SrcPort",
            "SELECT SrcPort, Bytes FROM Flow WHERE SrcPort = 80",
        ):
            system.inject_query(sql)
        system.run_until(system.sim.now + 60.0)
        checked = rows = 0
        for node in system.nodes:
            for descriptor, stored in node._local_results.values():
                # Against a fresh, unmemoized execution: the database's
                # answer memo would hand back ``stored`` itself.
                query = descriptor.parsed
                assert stored == execute(query, node.database.table(query.table))
                checked += 1
                rows += len(stored.rows)
        assert checked >= 4 * len(system.nodes)
        assert rows > 0
