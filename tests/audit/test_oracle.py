"""The ground-truth oracle: conformance on clean runs, detection on bad ones.

A stable deployment audited end to end must produce zero violations with
the final root aggregate exactly equal to the oracle's truth — and the
oracle must actually *fire* when fed a double-counted or corrupted
result, an unrepaired leafset or vertex state kept past expiry,
otherwise a clean report proves nothing.
"""

import pytest

from repro.audit import (
    AUDIT_CONTRIBUTION_BOUND,
    AUDIT_FINAL_EQUALITY,
    AUDIT_LEAFSET_REPAIRED,
    AUDIT_VALUE_MISMATCH,
    AUDIT_VERTEX_STATE_RELEASED,
)
from repro.core.deployment import Deployment
from repro.db.aggregates import AggregateState
from repro.db.executor import QueryResult
from repro.obs import Observer
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


def build_system(small_dataset, count=16, seed=31, observer=None):
    return Deployment(
        trace="always_on", population=count, horizon=HORIZON, seed=seed,
        dataset=small_dataset, startup_stagger=15.0,
    ).build(observer)


@pytest.fixture(scope="module")
def audited_run(small_dataset):
    observer = Observer()
    system = build_system(small_dataset, observer=observer)
    oracle = system.auditor
    system.run_until(120.0)
    _, descriptor = system.inject_query(QUERY_HTTP_BYTES)
    system.run_until(300.0)
    report = oracle.finalize()
    return system, oracle, descriptor, report


class TestCleanRunConformance:
    def test_no_violations(self, audited_run):
        _, oracle, _, report = audited_run
        assert report["ok"]
        assert report["violations"] == []
        assert oracle.violations == []

    def test_final_root_equals_truth(self, audited_run):
        system, _, descriptor, report = audited_run
        section = report["queries"][format(descriptor.query_id, "032x")]
        truth = system.ground_truth_rows(descriptor.sql, descriptor.now_binding)
        assert section["truth_rows_population"] == truth
        assert section["truth_rows_contributed"] == truth
        assert section["root_rows_final"] == truth
        assert section["contributors"] == len(system.nodes)

    def test_truth_snapshot_covers_every_endsystem(self, audited_run):
        system, oracle, descriptor, _ = audited_run
        audit = oracle.audits[descriptor.query_id]
        assert set(audit.truth_results) == {n.node_id for n in system.nodes}

    def test_calibration_exported(self, audited_run):
        _, _, descriptor, report = audited_run
        section = report["queries"][format(descriptor.query_id, "032x")]
        calibration = section["calibration"]
        assert calibration is not None
        assert calibration["samples"] == section["root_flushes"] > 0
        assert calibration["final_realized"] == pytest.approx(1.0)
        # Everyone is online, so the predictor's claim is near-exact.
        assert abs(calibration["final_error"]) < 0.05

    def test_single_publisher_and_monotone_stream(self, audited_run):
        _, _, descriptor, report = audited_run
        section = report["queries"][format(descriptor.query_id, "032x")]
        assert section["publishers"] == 1
        assert section["row_regressions"] == 0

    def test_finalize_idempotent(self, audited_run):
        _, oracle, _, report = audited_run
        assert oracle.finalize() is report

    def test_audit_does_not_perturb_the_simulation(self, small_dataset):
        plain = build_system(small_dataset, count=12, seed=57)
        plain.auditor = None
        for node in plain.nodes:
            node.auditor = None
        audited = build_system(small_dataset, count=12, seed=57)
        for system in (plain, audited):
            system.run_until(120.0)
        _, d_plain = plain.inject_query(QUERY_HTTP_BYTES)
        _, d_audited = audited.inject_query(QUERY_HTTP_BYTES)
        for system in (plain, audited):
            system.run_until(240.0)
        assert plain.sim.events_processed == audited.sim.events_processed
        assert (
            plain.status_of(d_plain).rows_processed
            == audited.status_of(d_audited).rows_processed
        )


class TestViolationDetection:
    def _fresh_oracle(self, small_dataset, seed):
        observer = Observer()
        system = build_system(small_dataset, count=8, seed=seed, observer=observer)
        oracle = system.auditor
        system.run_until(120.0)
        _, descriptor = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(600.0)
        return system, oracle, descriptor, observer

    def test_double_count_trips_contribution_bound(self, small_dataset):
        system, oracle, descriptor, observer = self._fresh_oracle(small_dataset, 61)
        audit = oracle.audits[descriptor.query_id]
        truth = audit.contributed_truth_rows()
        inflated = QueryResult(row_count=truth + 7)
        oracle.on_root_result(
            system.sim.now, system.nodes[0].node_id, descriptor, inflated
        )
        checks = [violation.check for violation in oracle.violations]
        assert AUDIT_CONTRIBUTION_BOUND in checks
        # The over-count also breaks final equality once finalized.
        report = oracle.finalize()
        assert not report["ok"]
        finals = [v["check"] for v in report["violations"]]
        assert AUDIT_FINAL_EQUALITY in finals
        # The violation reached the metrics registry through the observer.
        snapshot = observer.metrics.snapshot()["counters"]
        assert any(
            "audit.violations_total" in name and snapshot[name] >= 1
            for name in snapshot
        )

    def test_corrupted_aggregate_value_detected(self, small_dataset):
        _, oracle, descriptor, _ = self._fresh_oracle(small_dataset, 67)
        audit = oracle.audits[descriptor.query_id]
        # Tamper with one contributor's recorded truth: same row count,
        # different SUM — the roots's (correct) value no longer matches.
        node_id, (version, result) = next(iter(audit.contributions.items()))
        corrupt = QueryResult(
            specs=list(result.specs),
            states=[
                AggregateState(
                    state.func, state.count, state.total + 1234.0,
                    state.minimum, state.maximum,
                )
                for state in result.states
            ],
            row_count=result.row_count,
        )
        audit.contributions[node_id] = (version, corrupt)
        report = oracle.finalize()
        assert not report["ok"]
        assert AUDIT_VALUE_MISMATCH in [v["check"] for v in report["violations"]]

    def test_second_publisher_and_lower_flush_are_counted(self, small_dataset):
        system, oracle, descriptor, _ = self._fresh_oracle(small_dataset, 73)
        audit = oracle.audits[descriptor.query_id]
        root_id, final = audit.root_flushes[-1][1], audit.last_root_result
        impostor = next(n.node_id for n in system.nodes if n.node_id != root_id)
        # A second node publishes a smaller result, then the root resumes.
        oracle.on_root_result(
            system.sim.now, impostor, descriptor, QueryResult(row_count=1)
        )
        oracle.on_root_result(system.sim.now, root_id, descriptor, final)
        section = oracle.finalize()["queries"][format(descriptor.query_id, "032x")]
        assert section["publishers"] == 2
        assert section["row_regressions"] == 1
        # Measurements, not violations: the final result is still exact.
        assert oracle.violations == []

    def test_unaudited_query_ignored(self, small_dataset):
        system = build_system(small_dataset, count=8, seed=71)
        system.run_until(120.0)
        _, before = system.inject_query(QUERY_HTTP_BYTES)
        oracle = system.enable_audit()
        # Hooks for a query injected before the oracle attached are no-ops.
        oracle.on_root_result(
            system.sim.now, system.nodes[0].node_id, before, QueryResult(row_count=9)
        )
        assert oracle.violations == []
        assert before.query_id not in oracle.audits


class TestAvailabilityTracking:
    def test_transitions_update_eligibility(self, small_dataset):
        system = build_system(small_dataset, count=8, seed=83)
        oracle = system.auditor
        system.run_until(120.0)
        assert oracle.online_now == {n.node_id for n in system.nodes}
        victim = system.nodes[3]
        system.force_transition(3, goes_up=False)
        system.run_until(system.sim.now + 5.0)
        assert victim.node_id not in oracle.online_now
        assert victim.node_id in oracle.ever_online
        assert oracle.transitions >= 1


class TestEndStateChecks:
    def test_leafsets_repaired_after_a_crash(self, small_dataset):
        system = build_system(small_dataset, count=16, seed=3)
        system.run_until(300.0)
        assert system.enable_audit().finalize()["ok"]
        # Straight after a crash its neighbours still list it...
        system.force_transition(3, goes_up=False)
        report = system.enable_audit().finalize()
        assert report["violations"]
        assert {v["check"] for v in report["violations"]} == {AUDIT_LEAFSET_REPAIRED}
        assert all(v["query_id"] is None for v in report["violations"])
        # ...and once repair has run, every leafset is full and all-online.
        system.run_until(600.0)
        assert system.enable_audit().finalize()["ok"]

    def test_vertex_state_released_after_expiry(self, small_dataset, monkeypatch):
        system = build_system(small_dataset, count=16, seed=4)
        system.run_until(120.0)
        _, descriptor = system.inject_query(QUERY_HTTP_BYTES, lifetime=300.0)
        system.run_until(180.0)
        # State held while the query is live is fine.
        assert system.enable_audit().finalize()["ok"]
        holders = [
            node for node in system.nodes
            if any(q == descriptor.query_id for q, _, _ in node.aggregator.vertex_inventory())
        ]
        assert holders
        stuck = holders[0]
        monkeypatch.setattr(stuck.aggregator, "expire", lambda now: None)
        # One full refresh sweep past expiry every other node has dropped it.
        system.run_until(300.0 + 120.0 + system.config.result_refresh_period + 60.0)
        report = system.enable_audit().finalize()
        assert report["violations"]
        for violation in report["violations"]:
            assert violation["check"] == AUDIT_VERTEX_STATE_RELEASED
            assert violation["query_id"] == format(descriptor.query_id, "032x")
            assert format(stuck.node_id, "032x")[:8] in violation["detail"]
