#!/usr/bin/env python3
"""Watch a query survive a core-link partition (DESIGN.md §6.8).

A 20-endsystem deployment injects a SUM query while the network core is
cut in half: regions 0-3 lose all connectivity to regions 4-7 from
t=150 s to t=600 s, and the query arrives at t=160 s — mid-partition,
so dissemination and aggregation cannot reach the far side.  The script
samples the root's view of the result during and after the cut, showing
the result stuck below the ground truth while the cut holds and climbing
back to *exactly* the ground truth after the heal (every endsystem
counted once, nobody counted twice), with the overlay's leafsets
re-converged — as checked by the ground-truth oracle.

Run with:  PYTHONPATH=src python examples/chaos_partition.py
"""

import numpy as np

from repro.core.deployment import Deployment
from repro.faults import FaultPlan, LinkPartition
from repro.workload import QUERY_HTTP_BYTES
from repro.workload.anemone import AnemoneDataset, AnemoneParams

POPULATION = 20
HORIZON = 2400.0
CUT_AT, HEAL_AT = 150.0, 600.0


def main() -> None:
    plan = FaultPlan(
        name="core-partition",
        events=(
            LinkPartition(
                start=CUT_AT, heal_at=HEAL_AT,
                regions_a=(0, 1, 2, 3), regions_b=(4, 5, 6, 7),
            ),
        ),
    )
    dataset = AnemoneDataset(
        num_profiles=8,
        params=AnemoneParams(flows_per_day=40.0, days=7.0),
        rng=np.random.default_rng(11),
    )
    system = Deployment(
        "always_on", population=POPULATION, horizon=HORIZON, seed=7,
        dataset=dataset, startup_stagger=30.0, fault_plan=plan,
    ).build()
    oracle = system.auditor  # the ground-truth oracle every deployment carries

    system.run_until(160.0)
    _, query = system.inject_query(QUERY_HTTP_BYTES)
    truth = system.ground_truth_rows(query.sql, query.now_binding)
    print(f"query injected at t=160 s, DURING the partition; "
          f"ground truth: {truth} rows across {POPULATION} endsystems")
    print(f"core cut at t={CUT_AT:.0f} s, healed at t={HEAL_AT:.0f} s\n")

    print(f"{'t (s)':>7}  {'rows':>6}  {'complete':>9}  {'partition drops':>15}")
    for t in (200.0, 300.0, 500.0, 700.0, 1000.0, 1500.0, 2100.0):
        system.run_until(t)
        status = system.status_of(query)
        rows = status.rows_processed if status is not None else 0
        drops = system.transport.drops_by_reason.get("partition", 0)
        print(f"{t:7.0f}  {rows:6d}  {rows / truth:9.1%}  {drops:15d}")

    status = system.status_of(query)
    print(f"\nfinal result: {status.rows_processed}/{truth} rows "
          f"({'exactly once' if status.rows_processed == truth else 'INCOMPLETE'})")

    report = oracle.finalize()
    if not report["ok"]:
        for violation in report["violations"]:
            print(f"VIOLATION {violation['check']}: {violation['detail']}")
        raise SystemExit(1)
    print("all conformance checks held: contribution bound, final equality, "
          "leafsets repaired, vertex state released")


if __name__ == "__main__":
    main()
