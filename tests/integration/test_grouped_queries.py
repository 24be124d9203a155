"""End-to-end GROUP BY queries through the full deployment.

Per-group partial aggregates travel and merge through the result tree
exactly like flat aggregates; the distributed answer must match a direct
group-by over all endsystem databases.
"""

import pytest

from repro.core.deployment import Deployment
from repro.db.sql import parse

HORIZON = 2 * 3600.0
SQL = "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE Bytes > 1000 GROUP BY App"


@pytest.fixture(scope="module")
def grouped_run(small_dataset):
    system = Deployment(
        trace="always_on", population=24, horizon=HORIZON, seed=17,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    system.run_until(120.0)
    origin, query = system.inject_query(SQL)
    system.run_until(system.sim.now + 60.0)
    return system, query


class TestGroupedQueries:
    def _direct_groups(self, system):
        merged = None
        for node in system.nodes:
            result = node.database.execute(parse(SQL))
            merged = result if merged is None else merged.merge(result)
        return merged.group_values()

    def test_distributed_groups_match_direct(self, grouped_run):
        system, query = grouped_run
        status = system.status_of(query)
        assert status.result is not None
        assert status.result.group_values() == self._direct_groups(system)

    def test_group_totals_consistent_with_flat(self, grouped_run):
        system, query = grouped_run
        status = system.status_of(query)
        groups = status.result.group_values()
        flat_sum, flat_count = status.result.values()
        assert sum(values[0] for values in groups.values()) == pytest.approx(flat_sum)
        assert sum(values[1] for values in groups.values()) == pytest.approx(flat_count)

    def test_predictor_counts_grouped_query_rows(self, grouped_run):
        system, query = grouped_run
        status = system.status_of(query)
        truth = system.ground_truth_rows(SQL)
        assert status.predictor is not None
        assert status.predictor.expected_total == pytest.approx(truth)
        assert status.rows_processed == truth
