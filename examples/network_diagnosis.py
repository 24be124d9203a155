#!/usr/bin/env python3
"""Network diagnosis: the paper's motivating Anemone scenario.

A network operator notices unexpected SMB traffic and runs a set of
retrospective one-shot queries over the stored Flow tables — exactly
the "why did I get no results from rack 10 between 8:30 and 9:00?"
style of investigation the paper motivates.  The operator uses the
completeness predictor to decide how long each answer is worth waiting
for, then reads the incremental answers.

Run with:  python examples/network_diagnosis.py
"""

from repro.core.deployment import Deployment

HOURS = 3600.0

#: The operator's investigation, in the order they would run it.
INVESTIGATION = [
    ("How much SMB traffic is flowing?",
     "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE App = 'SMB'"),
    ("Is it concentrated in big transfers?",
     "SELECT COUNT(*), AVG(Bytes) FROM Flow WHERE App = 'SMB' AND Bytes > 100000"),
    ("Recent activity only (last 24 h at each endsystem):",
     "SELECT SUM(Bytes) FROM Flow WHERE App = 'SMB' AND ts >= NOW() - 86400"),
    ("Anything touching privileged local ports?",
     "SELECT SUM(Packets) FROM Flow WHERE App = 'SMB' AND LocalPort < 1024"),
]


def main() -> None:
    # A Farsite-like trace drawn from seed 9, 24 profiles from seed 10.
    system = Deployment(
        "farsite", population=120, horizon=30 * HOURS, seed=9, num_profiles=24
    ).build()
    system.run_until(8 * HOURS)  # 08:00 — the operator arrives at work
    print(f"{system.online_count}/{system.num_endsystems} endsystems online\n")

    for question, sql in INVESTIGATION:
        print(f"Q: {question}")
        print(f"   {sql}")
        origin, query = system.inject_query(sql)
        # Give the predictor a few seconds to aggregate.
        system.run_until(system.sim.now + 20.0)
        status = system.status_of(query)
        predictor = status.predictor
        if predictor is not None:
            now_frac = predictor.completeness_at(0.0)
            hour_frac = predictor.completeness_at(HOURS)
            print(
                f"   predictor: {predictor.expected_total:,.0f} relevant rows; "
                f"{now_frac:.0%} now, {hour_frac:.0%} within an hour"
            )
            # The operator's delay/completeness decision: wait an hour
            # only if it buys a meaningfully more complete answer.
            wait = HOURS if hour_frac - now_frac > 0.02 else 60.0
        else:
            wait = 60.0
        system.run_until(system.sim.now + wait)
        status = system.status_of(query)
        if status.result is not None:
            labels = [spec.label for spec in status.result.specs]
            values = status.result.values()
            rendered = ", ".join(
                f"{label} = {value:,.1f}" if value is not None else f"{label} = NULL"
                for label, value in zip(labels, values)
            )
            print(f"   after {wait / 60:.0f} min: {rendered}")
            print(f"   ({status.rows_processed:,} rows processed)\n")
        else:
            print("   no results yet\n")


if __name__ == "__main__":
    main()
