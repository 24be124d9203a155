"""Tests for the OverlayNetwork coordinator."""

import numpy as np
import pytest

from repro.net.stats import CATEGORY_OVERLAY, BandwidthAccounting
from repro.net.topology import corpnet_like
from repro.net.transport import Transport
from repro.overlay.ids import random_id, ring_distance
from repro.overlay.network import OverlayConfig, OverlayNetwork
from repro.sim import SimClock, Simulator


@pytest.fixture
def network():
    sim = Simulator(SimClock())
    rng = np.random.default_rng(30)
    topology = corpnet_like(rng, num_routers=12)
    accounting = BandwidthAccounting()
    transport = Transport(sim, topology, accounting)
    net = OverlayNetwork(sim, transport, OverlayConfig(), rng)
    ids = sorted({random_id(rng) for _ in range(12)})
    nodes = [net.create_node(node_id) for node_id in ids]
    topology.attach_random([node.name for node in nodes], rng)
    return sim, net, nodes, ids, accounting


class TestMembership:
    def test_duplicate_node_id_rejected(self, network):
        _, net, nodes, ids, _ = network
        with pytest.raises(ValueError):
            net.create_node(ids[0])

    def test_pick_bootstrap_empty(self, network):
        _, net, nodes, _, _ = network
        assert net.pick_bootstrap(exclude=0) is None

    def test_pick_bootstrap_excludes(self, network):
        sim, net, nodes, _, _ = network
        nodes[0].go_online(None)
        assert net.pick_bootstrap(exclude=nodes[0].node_id) is None
        nodes[1].go_online(nodes[0])
        # Online but unanswered: it would ignore a join, so not offered.
        assert net.pick_bootstrap(exclude=nodes[0].node_id) is None
        sim.run_until(sim.now + 1.0)
        assert nodes[1].joined
        choice = net.pick_bootstrap(exclude=nodes[0].node_id)
        assert choice is nodes[1]

    def test_online_ids_sorted(self, network):
        sim, net, nodes, ids, _ = network
        for node in nodes:
            node.go_online(net.pick_bootstrap(exclude=node.node_id))
            sim.run_until(sim.now + 0.5)
        assert net.online_ids == ids


class TestGroundTruth:
    def test_true_closest_online(self, network):
        sim, net, nodes, ids, _ = network
        for node in nodes:
            node.go_online(net.pick_bootstrap(exclude=node.node_id))
            sim.run_until(sim.now + 0.5)
        rng = np.random.default_rng(1)
        for _ in range(30):
            key = random_id(rng)
            expected = min(ids, key=lambda c: (ring_distance(c, key), c))
            assert net.true_closest_online(key) == expected

    def test_true_closest_empty(self, network):
        _, net, _, _, _ = network
        assert net.true_closest_online(123) is None


class TestHeartbeats:
    def test_heartbeat_sweep_accounts_bytes(self, network):
        sim, net, nodes, _, accounting = network
        for node in nodes:
            node.go_online(net.pick_bootstrap(exclude=node.node_id))
            sim.run_until(sim.now + 0.5)
        sim.run_until(sim.now + 60.0)
        before = accounting.total_tx
        net.start_heartbeats(accounting)
        sim.run_until(sim.now + 65.0)  # two heartbeat periods
        overlay_bytes = accounting.totals_by_category("tx").get(CATEGORY_OVERLAY, 0.0)
        assert accounting.total_tx > before
        assert overlay_bytes > 0

    def test_stop_heartbeats(self, network):
        sim, net, nodes, _, accounting = network
        nodes[0].go_online(None)
        net.start_heartbeats(accounting)
        net.stop_heartbeats()
        before = accounting.total_tx
        sim.run_until(sim.now + 120.0)
        # Only the node's own stabilizer traffic may appear; the sweep is off.
        assert net._heartbeat_timer is None
