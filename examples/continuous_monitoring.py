#!/usr/bin/env python3
"""Extensions demo: continuous queries over live updates.

Sets up a deployment where endsystems keep generating new flow records
(live updates), then registers a **continuous query** (§3.4 extension)
whose answer tracks the growing data through the persistent result tree.

Run with:  python examples/continuous_monitoring.py
"""

import numpy as np

from repro.core.deployment import Deployment
from repro.workload import AnemoneDataset

HOURS = 3600.0
SQL = "SELECT COUNT(*), SUM(Bytes) FROM Flow WHERE SrcPort = 80"


def main() -> None:
    dataset = AnemoneDataset(num_profiles=10, rng=np.random.default_rng(2))
    system = Deployment(
        "always_on", population=40, horizon=4 * HOURS, seed=11, dataset=dataset,
        startup_stagger=30.0,
        live_feed=True,  # each endsystem keeps appending to its own data
    ).build()
    system.run_until(0.2 * HOURS)

    origin, query = system.inject_query(SQL, continuous_period=300.0)
    print(f"continuous query registered: {SQL}")
    print("time     COUNT(*)      SUM(Bytes)        rows inserted so far")
    for step in range(1, 7):
        system.run_until(0.2 * HOURS + step * 0.5 * HOURS)
        status = system.status_of(query)
        count, total = status.result.values()
        print(
            f"t+{step * 0.5:3.1f} h  {count:>10,.0f}  {total:>14,.0f}   "
            f"{system.live_feed.rows_inserted:>8,}"
        )


if __name__ == "__main__":
    main()
