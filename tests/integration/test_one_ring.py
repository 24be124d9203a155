"""The overlay forms one ring, even under message loss.

An online node whose own join is still unanswered has an empty leafset.
When such a node answered a join, the joiner took that empty state and
the two founded a second ring that never merged with the first: with
3 % loss on the 28-endsystem scenario of ``test_message_loss.py``, the
seeds below ended with two disjoint rings at 240 s (seeds 0, 31 and 49
still at 3,600 s).  An unjoined node now ignores a join, and only joined
nodes are offered as bootstraps.  ``scripts/ring_sweep.py`` runs the
same check over many more seeds.
"""

import pytest

from repro.core.deployment import Deployment
from repro.faults import FaultPlan, MessageLoss

HORIZON = 4 * 3600.0
SPLIT_SEEDS = (0, 11, 19, 31, 32, 34, 45, 48, 49, 51, 53, 56)


@pytest.mark.parametrize("seed", SPLIT_SEEDS)
def test_lossy_rollout_ends_in_one_ring(small_dataset, seed):
    system = Deployment(
        trace="always_on", population=28, horizon=HORIZON, seed=seed,
        dataset=small_dataset, startup_stagger=25.0,
        fault_plan=FaultPlan((MessageLoss(start=0.0, end=HORIZON, rate=0.03),)),
    ).build()
    system.run_until(240.0)
    assert system.overlay.online_count == 28
    assert system.overlay.misplaced_successors() == []
