"""A join is retried until it is answered.

Stabilization only probes leafset neighbours, so a node whose join
requests (or replies) were all lost has nobody to probe: unless the
join itself is retried, it stays online with an empty leafset for good.
A partition during the start-up roll-out loses exactly those messages.
"""

from repro.core.deployment import Deployment
from repro.faults import FaultPlan, LinkPartition


def test_every_online_node_joins_after_a_partition_heals():
    plan = FaultPlan(events=(
        LinkPartition(
            start=180.0, heal_at=600.0,
            regions_a=(0, 1, 2, 3), regions_b=(4, 5, 6, 7),
        ),
    ))
    system = Deployment(
        "always_on", population=30, horizon=3600.0, seed=7, num_profiles=30,
        fault_plan=plan,
    ).build()
    system.run_until(3600.0)
    online = [node.pastry for node in system.nodes if node.pastry.online]
    assert len(online) == 30
    assert [pastry.name for pastry in online if not pastry.joined] == []
