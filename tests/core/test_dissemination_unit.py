"""Unit tests for dissemination building blocks on a live mini-deployment."""

import pytest

from repro.core.deployment import Deployment
from repro.core.dissemination import Disseminator
from repro.overlay.ids import ID_MASK, in_wrapped_range
from repro.proto.messages import Bcast
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


@pytest.fixture(scope="module")
def mini(small_dataset):
    system = Deployment(
        trace="always_on", population=16, horizon=HORIZON, seed=77,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    system.run_until(120.0)
    return system


class TestRangeIntersect:
    def test_contained_zone(self):
        assert Disseminator._intersect(100, 200, 120, 150) == (120, 150)

    def test_overlap_left(self):
        assert Disseminator._intersect(100, 200, 50, 150) == (100, 150)

    def test_overlap_right(self):
        assert Disseminator._intersect(100, 200, 150, 250) == (150, 200)

    def test_disjoint(self):
        assert Disseminator._intersect(100, 200, 300, 400) is None

    def test_full_range_returns_zone(self):
        assert Disseminator._intersect(7, 7, 10, 20) == (10, 20)

    def test_empty_zone(self):
        assert Disseminator._intersect(100, 200, 150, 150) is None

    def test_wrapped_zone(self):
        lo = ID_MASK - 100
        result = Disseminator._intersect(lo, 200, lo + 50, 100)
        assert result is not None
        start, end = result
        assert in_wrapped_range(start, lo, 200)

    def test_ring_mid_halves_arc(self):
        mid = Disseminator._ring_mid(100, 200)
        assert mid == 150


class TestSplitCoverage:
    def test_exclusive_zones_partition_population(self, mini):
        """Every endsystem ends up answered by exactly one exclusive zone."""
        system = mini
        origin, query = system.inject_query(QUERY_HTTP_BYTES)
        system.run_until(system.sim.now + 30.0)
        status = system.status_of(query)
        assert status.predictor.endsystems == 16

    def test_tasks_cache_replies(self, mini):
        """Re-broadcasting a finished range re-serves the cached predictor."""
        system = mini
        node = system.nodes[0]
        # Find any finished task and replay its broadcast.
        tasks = list(node.disseminator._tasks.values())
        if not tasks:
            pytest.skip("node held no task in this topology")
        task = tasks[0]
        bcast = Bcast(
            descriptor=task.descriptor,
            lo=task.lo,
            hi=task.hi,
            parent=node.node_id,
        )
        before = node.disseminator.task_count
        node.disseminator.on_broadcast(bcast)
        assert node.disseminator.task_count == before  # no duplicate task

    def test_expire_drops_old_tasks(self, mini):
        system = mini
        node = system.nodes[1]
        if node.disseminator.task_count == 0:
            pytest.skip("node held no task")
        node.disseminator.expire(now=float("inf"))
        assert node.disseminator.task_count == 0
