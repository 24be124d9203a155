"""The invariants a chaos run must keep, checked where they are enforced.

Exactly-once counting and the end-state checks are the ground-truth
oracle's (:mod:`repro.audit`); predictor monotonicity is the acceptance
rule of :meth:`repro.core.query.QueryStatus.offer_predictor`.
"""

import pytest

from repro.audit import AUDIT_CONTRIBUTION_BOUND
from repro.core.deployment import Deployment
from repro.core.predictor import CompletenessPredictor
from repro.core.query import QueryDescriptor, QueryStatus
from repro.db.executor import QueryResult
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 4 * 3600.0


@pytest.fixture(scope="module")
def stable_system(small_dataset):
    system = Deployment(
        trace="always_on", population=16, horizon=HORIZON, seed=3,
        dataset=small_dataset, startup_stagger=30.0,
    ).build()
    system.run_until(120.0)
    return system


def audited_query(system):
    """Attach a fresh oracle, inject one query and let it complete."""
    oracle = system.enable_audit()
    _, descriptor = system.inject_query(QUERY_HTTP_BYTES)
    system.run_until(system.sim.now + 60.0)
    return oracle, descriptor


class TestExactlyOnce:
    def test_clean_run_has_no_violations(self, stable_system):
        oracle, descriptor = audited_query(stable_system)
        assert oracle.violations == []
        truth = stable_system.ground_truth_rows(
            descriptor.sql, descriptor.now_binding
        )
        assert oracle.audits[descriptor.query_id].last_root_result.row_count == truth

    def test_overcount_in_trace_is_flagged(self, stable_system):
        oracle, descriptor = audited_query(stable_system)
        truth = stable_system.ground_truth_rows(
            descriptor.sql, descriptor.now_binding
        )
        root = stable_system.nodes[0].node_id
        oracle.on_root_result(99.0, root, descriptor, QueryResult(row_count=truth + 1))
        assert len(oracle.violations) == 1
        assert oracle.violations[0].check == AUDIT_CONTRIBUTION_BOUND
        assert oracle.violations[0].query_id == descriptor.query_id
        assert oracle.violations[0].t == 99.0


class TestPredictorMonotonicity:
    @staticmethod
    def _predictor(endsystems):
        predictor = CompletenessPredictor(16, 86400.0)
        for _ in range(endsystems):
            predictor.add_immediate(1.0)
        return predictor

    @staticmethod
    def _status():
        return QueryStatus(
            QueryDescriptor.create(
                sql="SELECT COUNT(*) FROM Flow", origin=42, injected_at=0.0
            )
        )

    def test_increasing_is_fine(self):
        status = self._status()
        offered = [self._predictor(3), self._predictor(5), self._predictor(5)]
        for t, predictor in enumerate(offered, start=1):
            assert status.offer_predictor(predictor, now=float(t))
        assert status.predictor is offered[-1]

    def test_decrease_is_flagged(self):
        status = self._status()
        held = self._predictor(5)
        assert status.offer_predictor(held, now=1.0)
        assert not status.offer_predictor(self._predictor(3), now=2.0)
        assert status.predictor is held
        assert status.predictor.endsystems == 5


class TestRunStandardChecks:
    def test_clean_system_passes_all(self, stable_system):
        oracle, _ = audited_query(stable_system)
        report = oracle.finalize()
        assert report["ok"]
        assert report["violation_count"] == 0
        assert report["violations"] == []
