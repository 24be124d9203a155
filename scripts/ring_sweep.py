#!/usr/bin/env python
"""ring_sweep: does a lossy roll-out always end in one overlay ring?

Runs the 28-endsystem scenario of ``tests/integration/test_message_loss.py``
(always-on endsystems staggered over 25 s, 3 % message loss for the
whole run) once per seed, to ``--until`` simulated seconds, and checks
that every online node's clockwise neighbour is the true next online id.
Prints the seeds that end with a split or misjoined ring and exits 1 if
there are any.  Seeds 0-199 take about 15 s on a 2-core machine.

    PYTHONPATH=src python scripts/ring_sweep.py --seeds 0-199
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.deployment import Deployment
from repro.faults import FaultPlan, MessageLoss
from repro.workload.anemone import AnemoneDataset, AnemoneParams

HORIZON = 4 * 3600.0


def seed_range(text: str) -> range:
    """``"A-B"`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-199"))
    parser.add_argument("--until", type=float, default=240.0)
    args = parser.parse_args()
    # The tests' shared small dataset (tests/conftest.py: small_dataset).
    dataset = AnemoneDataset(
        num_profiles=8,
        params=AnemoneParams(flows_per_day=40.0, days=7.0),
        rng=np.random.default_rng(777),
    )
    started = time.perf_counter()
    split = {}
    for seed in args.seeds:
        system = Deployment(
            trace="always_on", population=28, horizon=HORIZON, seed=seed,
            dataset=dataset, startup_stagger=25.0,
            fault_plan=FaultPlan((MessageLoss(start=0.0, end=HORIZON, rate=0.03),)),
        ).build()
        system.run_until(args.until)
        misplaced = system.overlay.misplaced_successors()
        if misplaced:
            split[seed] = len(misplaced)
    print(
        f"{len(args.seeds)} seeds to {args.until:g} s in "
        f"{time.perf_counter() - started:.1f} s; "
        f"seeds with a wrong clockwise neighbour: {split or 'none'}"
    )
    return 1 if split else 0


if __name__ == "__main__":
    sys.exit(main())
