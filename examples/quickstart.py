#!/usr/bin/env python3
"""Quickstart: a small Seaweed deployment answering a one-shot query.

Builds a 150-endsystem deployment on an enterprise-style availability
trace, injects the paper's HTTP-traffic query, prints the completeness
predictor the user would see, and then watches the incremental result
fill in as unavailable endsystems come back online.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.core.deployment import Deployment
from repro.traces import generate_farsite_trace
from repro.workload import AnemoneDataset, QUERY_HTTP_BYTES

HOURS = 3600.0


def main() -> None:
    # 1. Inputs: who is up when, and what data each endsystem holds.
    trace = generate_farsite_trace(
        150, horizon=60 * HOURS, rng=np.random.default_rng(1)
    )
    dataset = AnemoneDataset(num_profiles=30, rng=np.random.default_rng(2))

    # 2. The deployment: simulator + topology + Pastry overlay + one
    #    Seaweed node per endsystem, driven by the trace, with every
    #    availability model pretrained (stand-in for the learning warmup).
    system = Deployment(trace, population=150, seed=42, dataset=dataset).build()

    # 3. Let the overlay form, then inject a one-shot query from a
    #    random online endsystem.
    system.run_until(30 * HOURS)
    print(f"online endsystems: {system.online_count} / {system.num_endsystems}")
    origin, query = system.inject_query(QUERY_HTTP_BYTES)
    print(f"injected: {query.sql}")
    print(f"queryId:  {query.query_id:032x}")

    # 4. Within seconds, the aggregated completeness predictor arrives.
    system.run_until(30 * HOURS + 30.0)
    status = system.status_of(query)
    predictor = status.predictor
    print(f"\npredictor ready after {status.predictor_ready_at - query.injected_at:.1f} s:")
    print(f"  expected total rows: {predictor.expected_total:,.0f}")
    for delay, label in [(0.0, "immediately"), (HOURS, "within 1 h"),
                         (8 * HOURS, "within 8 h"), (24 * HOURS, "within 24 h")]:
        print(f"  completeness {label:>12}: {predictor.completeness_at(delay):6.1%}")
    eighty = predictor.time_to_completeness(0.95)
    print(f"  time to 95% completeness: {eighty / HOURS:.1f} h")

    # 5. The delay/completeness trade-off in action: incremental results.
    truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
    print(f"\nincremental result (ground truth: {truth:,} rows):")
    for hours in (0.01, 1, 4, 8, 16, 24):
        system.run_until(30 * HOURS + hours * HOURS)
        status = system.status_of(query)
        value = status.result.values()[0] if status.result else None
        print(
            f"  t+{hours:>5.2f} h: rows={status.rows_processed:>8,} "
            f"({status.rows_processed / truth:6.1%})  SUM(Bytes)={value:,.0f}  "
            f"online={system.online_count}"
        )


if __name__ == "__main__":
    main()
