"""Built-in chaos scenarios: canned fault plans with deployment shapes.

Each :class:`ChaosScenario` pairs a :class:`~repro.faults.plan.FaultPlan`
with the deployment it should run against (population, duration,
query).  The four built-ins cover the adverse
conditions the paper leans on:

* ``lossy-wan`` — a long window of heavy uniform loss plus WAN-wide
  latency inflation (Fig. 10's hostile-network flavour);
* ``core-partition`` — the core ring is cut between two halves of the
  region set mid-query, then heals (§3.5 leafset repair, §3.3
  exactly-once under retransmission);
* ``flash-crowd-churn`` — two forced crash/restart waves on top of the
  availability trace (Fig. 10's high-churn experiment);
* ``slow-node`` — a fraction of endsystems serve all their traffic with
  extra delay (stragglers; delay-aware prediction's reason to exist).

Scenario durations leave room after the last fault for the repair
machinery (ack-driven retransmission every 10 s, leafset stabilization
every 60 s, refresh sweeps every 15 min) to quiesce, so the oracle's
end-of-run checks measure steady state, not a race.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults.plan import (
    CrashBurst,
    Duplication,
    FaultPlan,
    LatencyInflation,
    LinkPartition,
    MessageLoss,
    SlowNode,
)
from repro.workload.queries import QUERY_HTTP_BYTES


@dataclass(frozen=True)
class ChaosScenario:
    """One named chaos campaign unit: a fault plan plus deployment shape."""

    name: str
    description: str
    plan: FaultPlan
    population: int = 20
    duration: float = 1800.0
    inject_at: float = 120.0
    query_sql: str = QUERY_HTTP_BYTES

    def scaled(self, population: int) -> "ChaosScenario":
        """A copy with a different population (CLI ``--population``)."""
        return replace(self, population=population)


def lossy_wan() -> ChaosScenario:
    """Heavy uniform loss + global latency inflation for ten minutes."""
    plan = FaultPlan(
        name="lossy-wan",
        events=(
            MessageLoss(start=150.0, end=750.0, rate=0.12),
            LatencyInflation(start=150.0, end=750.0, factor=3.0),
            Duplication(start=150.0, end=750.0, rate=0.05, copies=1),
        ),
    )
    return ChaosScenario(
        name="lossy-wan",
        description="12% loss, 3x latency, 5% duplication for 10 minutes",
        plan=plan,
        population=20,
        duration=1500.0,
        inject_at=120.0,
    )


def core_partition() -> ChaosScenario:
    """Cut the core ring between two region halves mid-query, then heal."""
    plan = FaultPlan(
        name="core-partition",
        events=(
            LinkPartition(
                start=180.0,
                heal_at=600.0,
                regions_a=(0, 1, 2, 3),
                regions_b=(4, 5, 6, 7),
            ),
        ),
    )
    return ChaosScenario(
        name="core-partition",
        description="regions 0-3 cut from 4-7 from t=180 to t=600",
        plan=plan,
        population=20,
        duration=1800.0,
        inject_at=120.0,
    )


def flash_crowd_churn() -> ChaosScenario:
    """Two forced crash waves; everyone restarts within minutes."""
    plan = FaultPlan(
        name="flash-crowd-churn",
        events=(
            CrashBurst(at=240.0, fraction=0.25, down_for=180.0, restart_jitter=60.0),
            CrashBurst(at=600.0, fraction=0.20, down_for=240.0, restart_jitter=60.0),
        ),
    )
    return ChaosScenario(
        name="flash-crowd-churn",
        description="25% crash at t=240, 20% at t=600, restart in 3-5 minutes",
        plan=plan,
        population=20,
        duration=1800.0,
        inject_at=120.0,
    )


def slow_node() -> ChaosScenario:
    """A random 15% of endsystems answer slowly for most of the run."""
    plan = FaultPlan(
        name="slow-node",
        events=(
            SlowNode(start=150.0, end=900.0, extra_delay=0.4, fraction=0.15),
        ),
    )
    return ChaosScenario(
        name="slow-node",
        description="15% of endsystems +400ms on all traffic for 12.5 minutes",
        plan=plan,
        population=20,
        duration=1500.0,
        inject_at=120.0,
    )


def builtin_scenarios() -> dict[str, ChaosScenario]:
    """All built-in scenarios, keyed by name."""
    scenarios = (lossy_wan(), core_partition(), flash_crowd_churn(), slow_node())
    return {scenario.name: scenario for scenario in scenarios}
