"""Integration test under uniform network message loss.

MSPastry tolerates ~5% message loss (the paper cites an incorrect
delivery rate of 1.6e-5 under such conditions); Seaweed's protocols
layer acks, retries and refresh sweeps on top.  This run injects 3%
loss and checks the end-to-end guarantees still hold.
"""

import pytest

from repro.core.deployment import Deployment
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 4 * 3600.0


@pytest.fixture(scope="module")
def lossy_system(small_dataset):
    system = Deployment(
        trace="always_on", population=28, horizon=HORIZON, seed=61,
        dataset=small_dataset, startup_stagger=25.0, loss_rate=0.03,
    ).build()
    system.run_until(240.0)
    return system


class TestLossyNetwork:
    def test_messages_were_actually_lost(self, lossy_system):
        assert lossy_system.transport.dropped_loss > 0

    def test_overlay_still_converges(self, lossy_system):
        full = sum(
            1 for node in lossy_system.nodes if node.pastry.leafset.is_full()
        )
        assert full >= 26  # at most a straggler or two

    def test_predictor_still_completes(self, lossy_system):
        system = lossy_system
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 90.0)
        status = system.status_of(query)
        assert status.predictor is not None
        assert status.predictor.endsystems >= 26

    def test_results_converge_exactly_once(self, lossy_system):
        system = lossy_system
        origin, query = system.inject_query(
            "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"
        )
        # Loss delays convergence; the refresh sweep repairs the gaps.
        system.run_until(system.sim.now + 40 * 60.0)
        status = system.status_of(query)
        truth = system.ground_truth_rows(
            "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"
        )
        assert status.rows_processed == truth
