#!/usr/bin/env python
"""replica_sweep: do replica sets converge on each owner's record after loss?

Runs 28 always-on endsystems (staggered over 25 s) with 3 % message loss
over [0, 1,800] s once per seed, then one metadata push period and a
short settle without loss, and checks that every member of every online
owner's replica set holds the owner's current content epoch.  A push
lost under loss must be repaired by the protocol alone: an
unacknowledged replica gets the full record at the next push, a lost
version-only refresh leaves the held record of the same epoch valid.
Prints the seeds that end with a stale or missing replica record and
exits 1 if there are any.

    PYTHONPATH=src python scripts/replica_sweep.py --seeds 0-49
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.config import SeaweedConfig
from repro.core.deployment import Deployment
from repro.faults import FaultPlan, MessageLoss
from repro.workload.anemone import AnemoneDataset, AnemoneParams

LOSS_END = 1800.0
LOSS_RATE = 0.03
#: After the first post-loss push period: time for the last pushes and
#: their acknowledgements (and any full re-send they trigger) to land.
SETTLE = 10.0


def seed_range(text: str) -> range:
    """``"A-B"`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def stale_replicas(system) -> list[tuple[int, int]]:
    """``(owner, replica)`` pairs where an online owner's replica-set
    member does not hold the owner's current content epoch."""
    stale = []
    for owner in system.nodes:
        if not owner.pastry.online:
            continue
        for replica in owner.pastry.replica_set(owner.config.metadata_replicas):
            record = system.node_by_id(replica).metadata_store.get(owner.node_id)
            if record is None or record.epoch != owner._metadata_epoch:
                stale.append((owner.node_id, replica))
    return stale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-49"))
    args = parser.parse_args()
    until = LOSS_END + SeaweedConfig().summary_push_period + SETTLE
    # The tests' shared small dataset (tests/conftest.py: small_dataset).
    dataset = AnemoneDataset(
        num_profiles=8,
        params=AnemoneParams(flows_per_day=40.0, days=7.0),
        rng=np.random.default_rng(777),
    )
    started = time.perf_counter()
    failed = {}
    for seed in args.seeds:
        system = Deployment(
            trace="always_on", population=28, horizon=until, seed=seed,
            dataset=dataset, startup_stagger=25.0,
            fault_plan=FaultPlan(
                (MessageLoss(start=0.0, end=LOSS_END, rate=LOSS_RATE),)
            ),
        ).build()
        system.run_until(until)
        stale = stale_replicas(system)
        if stale:
            failed[seed] = len(stale)
    print(
        f"{len(args.seeds)} seeds to {until:g} s in "
        f"{time.perf_counter() - started:.1f} s; "
        f"seeds with a replica missing its owner's current record: "
        f"{failed or 'none'}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
