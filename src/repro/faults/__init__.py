"""Deterministic fault injection and chaos campaigns.

The faults subsystem (DESIGN.md §6.8) turns the packet-level simulator
into a chaos-testing harness:

* :mod:`repro.faults.plan` — fault events (partitions, latency
  inflation, loss, duplication, crash bursts, slow nodes) declared as
  pure data, reproducible from ``(master_seed, plan)``;
* :mod:`repro.faults.injector` — applies a plan to a live
  :class:`~repro.core.system.SeaweedSystem` through transport
  interceptors and dynamic topology link state;
* :mod:`repro.faults.scenarios` / :mod:`repro.faults.campaign` — named
  built-in scenarios and the runner behind the ``chaos`` CLI
  subcommand: every scenario runs under the ground-truth oracle
  (:mod:`repro.audit`), which checks what must survive any fault
  schedule, and emits a deterministic JSON report.

Quick use::

    from repro.faults import builtin_scenarios, run_campaign, report_to_json

    report = run_campaign(master_seed=7)
    print(report_to_json(report))
"""

from repro.faults.campaign import report_to_json, run_campaign, run_scenario
from repro.faults.injector import (
    DROP_FAULT_LOSS,
    DROP_PARTITION,
    DuplicationInterceptor,
    FaultInjector,
    PartitionInterceptor,
    SlowNodeInterceptor,
    WindowLossInterceptor,
)
from repro.faults.plan import (
    CrashBurst,
    Duplication,
    FaultEvent,
    FaultPlan,
    LatencyInflation,
    LinkPartition,
    MessageLoss,
    SlowNode,
)
from repro.faults.scenarios import ChaosScenario, builtin_scenarios

__all__ = [
    "report_to_json",
    "run_campaign",
    "run_scenario",
    "DROP_FAULT_LOSS",
    "DROP_PARTITION",
    "DuplicationInterceptor",
    "FaultInjector",
    "PartitionInterceptor",
    "SlowNodeInterceptor",
    "WindowLossInterceptor",
    "ChaosScenario",
    "builtin_scenarios",
    "CrashBurst",
    "Duplication",
    "FaultEvent",
    "FaultPlan",
    "LatencyInflation",
    "LinkPartition",
    "MessageLoss",
    "SlowNode",
]
