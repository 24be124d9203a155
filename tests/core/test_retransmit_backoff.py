"""Capped exponential backoff for result retransmissions.

A submission that stays unacknowledged is re-sent at geometrically
growing intervals up to a cap of 16 sweep periods, so a long partition
costs O(log) retransmits instead of one per period.
"""

import pytest

from repro.core import SeaweedConfig
from repro.core.deployment import Deployment
from repro.core.aggregation import PendingSubmission
from repro.core.query import QueryDescriptor
from repro.db.executor import QueryResult
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


def build(small_dataset, config=None):
    system = Deployment(
        trace="always_on", population=8, horizon=HORIZON, seed=47,
        dataset=small_dataset, startup_stagger=15.0, config=config,
    ).build()
    system.run_until(90.0)
    return system


STUCK_VERTEX = 0x1234


def stuck_submission(system, node, window=600.0, attempts=0):
    """Plant an unackable pending submission and record its re-send times."""
    descriptor = QueryDescriptor.create(
        QUERY_HTTP_BYTES, origin=node.node_id,
        injected_at=system.sim.now, lifetime=2 * window,
    )
    node.remember_query(descriptor)
    agg = node.aggregator
    sends = []

    def record(_descriptor, vertex_id, *_rest):
        if vertex_id == STUCK_VERTEX:
            sends.append(system.sim.now)

    agg._transmit = record
    key = (descriptor.query_id, STUCK_VERTEX, node.node_id)
    agg._pending[key] = PendingSubmission(
        STUCK_VERTEX, node.node_id, 1, QueryResult(), descriptor,
        attempts=attempts,
    )
    agg._ensure_retransmit_timer()
    system.run_until(system.sim.now + window)
    return sends


class TestBackoffBehaviour:
    def test_backoff_grows_geometrically_to_cap(self, small_dataset):
        system = build(small_dataset)
        period = system.config.result_retransmit
        sends = stuck_submission(system, system.nodes[0])
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        # Doubling from two periods up to the 16-period cap, not one
        # re-send per sweep.
        assert gaps == pytest.approx([period * n for n in (2, 4, 8, 16, 16)])

    def test_cap_scales_with_the_period(self, small_dataset):
        # serve_smoke runs result_retransmit=15 s; the cap follows it.
        config = SeaweedConfig(result_retransmit=15.0)
        system = build(small_dataset, config=config)
        sends = stuck_submission(system, system.nodes[0], window=1200.0)
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert max(gaps) == pytest.approx(16 * 15.0)
        assert gaps[-2:] == pytest.approx([240.0, 240.0])

    def test_gap_stays_at_the_cap_however_many_attempts(self, small_dataset):
        # Days into a partition the exponent is in the thousands; the
        # gap must still be the cap (a float power would overflow).
        system = build(small_dataset)
        sends = stuck_submission(system, system.nodes[0], attempts=5000)
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert gaps == pytest.approx([160.0] * len(gaps)) and len(gaps) >= 2

    def test_ack_still_clears_pending_under_backoff(self, small_dataset):
        from repro.proto.messages import ResultAck

        system = build(small_dataset)
        node = system.nodes[0]
        descriptor = QueryDescriptor.create(
            QUERY_HTTP_BYTES, origin=node.node_id,
            injected_at=system.sim.now, lifetime=3600.0,
        )
        agg = node.aggregator
        agg._pending[(descriptor.query_id, 0x9, node.node_id)] = PendingSubmission(
            0x9, node.node_id, 1, QueryResult(), descriptor,
        )
        agg.on_ack(ResultAck(
            query_id=descriptor.query_id, vertex_id=0x9,
            contributor=node.node_id, version=1,
        ))
        assert not agg._pending

    def test_backoff_does_not_break_delivery(self, small_dataset):
        # End to end, a stable system still reaches exact ground truth.
        system = build(small_dataset)
        _, descriptor = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 120.0)
        truth = system.ground_truth_rows(descriptor.sql, descriptor.now_binding)
        assert system.status_of(descriptor).rows_processed == truth
