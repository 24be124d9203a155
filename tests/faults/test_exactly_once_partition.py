"""Packet-level exactly-once under a partition that heals mid-query.

The hardest case for exactly-once aggregation: a core-link partition
splits the deployment while a query is being disseminated and results
are being aggregated, retransmission timers fire into the void for
minutes, and then the cut heals and every queued repair path runs at
once.  The aggregated result must climb back to the ground truth —
every endsystem counted — without ever counting anyone twice.
"""

import pytest

from repro.audit import AUDIT_CONTRIBUTION_BOUND
from repro.core.deployment import Deployment
from repro.faults import Duplication, FaultPlan, LinkPartition
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 3600.0


@pytest.fixture(scope="module")
def partitioned_run(small_dataset):
    plan = FaultPlan(
        name="partition-then-heal",
        events=(
            # Cut half the regions away from the other half mid-query...
            LinkPartition(
                start=150.0, heal_at=450.0,
                regions_a=(0, 1, 2, 3), regions_b=(4, 5, 6, 7),
            ),
            # ...while duplicating traffic to stress idempotence too.
            Duplication(start=100.0, end=500.0, rate=0.1, copies=1),
        ),
    )
    deployment = Deployment(
        trace="always_on", population=20, horizon=HORIZON, seed=13,
        dataset=small_dataset, startup_stagger=30.0, fault_plan=plan,
    )
    system, oracle, (descriptor,), _ = deployment.run(
        [(120.0, QUERY_HTTP_BYTES)], until=1500.0
    )
    return system, descriptor, oracle


class TestExactlyOnceUnderPartition:
    def test_partition_actually_dropped_messages(self, partitioned_run):
        system, _, _ = partitioned_run
        assert system.transport.drops_by_reason.get("partition", 0) > 0

    def test_result_recovers_to_exact_ground_truth(self, partitioned_run):
        system, descriptor, _ = partitioned_run
        truth = system.ground_truth_rows(descriptor.sql, descriptor.now_binding)
        status = system.status_of(descriptor)
        assert status is not None
        # Exactly the ground truth: complete recovery, no double counting.
        assert status.rows_processed == truth

    def test_no_root_flush_ever_overcounted(self, partitioned_run):
        _, descriptor, oracle = partitioned_run
        assert oracle.audits[descriptor.query_id].root_flushes
        checks = [violation.check for violation in oracle.violations]
        assert AUDIT_CONTRIBUTION_BOUND not in checks

    def test_all_invariants_hold_after_heal(self, partitioned_run):
        _, _, oracle = partitioned_run
        assert oracle.finalize()["violations"] == []

    def test_leafsets_full_again(self, partitioned_run):
        system, _, _ = partitioned_run
        for node in system.nodes:
            assert node.pastry.leafset.is_full()
