"""The chaos campaign runner: scenarios in, deterministic JSON report out.

A campaign runs one or more :class:`~repro.faults.scenarios.ChaosScenario`
deployments end to end: build a fresh system seeded from
``(master_seed, scenario name)``, attach the scenario's fault plan
through a :class:`~repro.faults.injector.FaultInjector` and the
ground-truth oracle (:mod:`repro.audit`), inject the scenario's query,
run to the scenario horizon, then finalize the oracle.

The report contains only simulation-deterministic quantities (no
wall-clock times), so two campaigns with the same ``(master_seed,
scenarios)`` produce byte-identical JSON — the report itself is the
reproducibility witness.  Query *completeness* under faults is recorded
as a metric but never treated as a violation: losing contributions to an
unhealed fault is the expected behaviour the paper's predictor exists to
quantify, whereas double-counting or stuck repair is a bug.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

import numpy as np

from repro.core.deployment import Deployment
from repro.faults.scenarios import ChaosScenario, builtin_scenarios
from repro.sim.randomness import derive_seed
from repro.workload.anemone import AnemoneDataset, AnemoneParams


def _campaign_dataset(master_seed: int) -> AnemoneDataset:
    """A small shared dataset (seeded from the campaign master seed)."""
    return AnemoneDataset(
        num_profiles=8,
        params=AnemoneParams(flows_per_day=40.0, days=7.0),
        rng=np.random.default_rng(derive_seed(master_seed, "chaos-dataset")),
    )


def run_scenario(
    scenario: ChaosScenario,
    master_seed: int = 0,
    dataset: Optional[AnemoneDataset] = None,
) -> dict:
    """Run one scenario under the oracle and return its report section.

    The section's ``violations`` are the oracle's; its ``"audit"``
    section holds the oracle's per-query measurements (truth, root rows,
    publishers, row regressions, predictor calibration).
    """
    if dataset is None:
        dataset = _campaign_dataset(master_seed)
    seed = derive_seed(master_seed, f"chaos-{scenario.name}")
    deployment = Deployment(
        trace="always_on",
        population=scenario.population,
        horizon=scenario.duration,
        seed=seed,
        dataset=dataset,
        startup_stagger=30.0,
        fault_plan=scenario.plan,
    )
    system, oracle, (descriptor,), _ = deployment.run(
        [(scenario.inject_at, scenario.query_sql)]
    )

    audit = oracle.finalize()
    status = system.status_of(descriptor)
    truth = system.ground_truth_rows(descriptor.sql, descriptor.now_binding)
    rows = status.rows_processed if status is not None else 0
    predictor = status.predictor if status is not None else None
    snapshot = system.metrics_snapshot()
    return {
        "name": scenario.name,
        "description": scenario.description,
        "population": scenario.population,
        "duration": scenario.duration,
        "seed": seed,
        "plan": scenario.plan.to_dict(),
        "faults_injected": (
            system.fault_injector.injected_count
            if system.fault_injector is not None
            else 0
        ),
        "query": {
            "ground_truth_rows": truth,
            "rows_processed": rows,
            "completeness": (rows / truth) if truth else 1.0,
            "predictor_endsystems": (
                predictor.endsystems if predictor is not None else 0
            ),
        },
        "transport": {
            "dropped_loss": snapshot["transport"]["dropped_loss"],
            "dropped_offline": snapshot["transport"]["dropped_offline"],
            "dropped_unregistered": snapshot["transport"]["dropped_unregistered"],
            "drops_by_reason": snapshot["transport"]["drops_by_reason"],
        },
        "online_at_end": system.online_count,
        "violation_count": audit["violation_count"],
        "violations": audit["violations"],
        "audit": {
            key: audit[key]
            for key in ("queries", "endsystems_ever_online", "transitions_observed")
        },
    }


def run_campaign(
    scenarios: Optional[Iterable[ChaosScenario]] = None,
    master_seed: int = 0,
    population: Optional[int] = None,
) -> dict:
    """Run a set of scenarios (default: all built-ins) into one report.

    The report dict is deterministic for a given ``(master_seed,
    scenarios)`` and JSON-serializable as-is; ``population`` overrides
    every scenario's population (the CLI's ``--population``).
    """
    if scenarios is None:
        scenarios = builtin_scenarios().values()
    scenarios = list(scenarios)
    if population is not None:
        scenarios = [scenario.scaled(population) for scenario in scenarios]
    dataset = _campaign_dataset(master_seed)
    sections = {
        scenario.name: run_scenario(scenario, master_seed, dataset=dataset)
        for scenario in scenarios
    }
    total = sum(section["violation_count"] for section in sections.values())
    return {
        "master_seed": master_seed,
        "scenarios": sections,
        "total_violations": total,
        "ok": total == 0,
    }


def report_to_json(report: dict) -> str:
    """Canonical JSON encoding of a campaign report (byte-stable)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
