"""Overlay stress test: sustained concurrent churn.

Drives the Pastry layer alone through rapid joins and failures and
checks the ring converges back to the ground truth afterwards — the
substrate property every Seaweed guarantee rests on.
"""

import numpy as np
import pytest

from repro.net.stats import BandwidthAccounting
from repro.net.topology import corpnet_like
from repro.net.transport import Transport
from repro.overlay.ids import random_id, ring_distance
from repro.overlay.network import OverlayConfig, OverlayNetwork
from repro.proto.messages import Cancel
from repro.sim import SimClock, Simulator


@pytest.fixture(scope="module")
def churned():
    sim = Simulator(SimClock())
    rng = np.random.default_rng(99)
    topology = corpnet_like(rng, num_routers=30)
    transport = Transport(sim, topology, BandwidthAccounting())
    network = OverlayNetwork(sim, transport, OverlayConfig(), rng)
    ids = sorted({random_id(rng) for _ in range(60)})
    nodes = {node_id: network.create_node(node_id) for node_id in ids}
    topology.attach_random([node.name for node in nodes.values()], rng)

    # Bring everyone up.
    for node in nodes.values():
        node.go_online(network.pick_bootstrap(exclude=node.node_id))
        sim.run_until(sim.now + 0.5)
    sim.run_until(sim.now + 180.0)

    # Sustained churn: every 20 s, one node flips state.
    flip_order = rng.permutation(ids)
    for index, node_id in enumerate(flip_order[:40]):
        node = nodes[node_id]
        if node.online:
            node.go_offline()
        else:
            node.go_online(network.pick_bootstrap(exclude=node_id))
        sim.run_until(sim.now + 20.0)

    # Quiesce: bring everyone back and let repair finish.
    for node in nodes.values():
        if not node.online:
            node.go_online(network.pick_bootstrap(exclude=node.node_id))
            sim.run_until(sim.now + 2.0)
    sim.run_until(sim.now + 400.0)
    return sim, network, nodes, ids


class TestPostChurnConvergence:
    def test_everyone_back_online(self, churned):
        _, network, nodes, ids = churned
        assert network.online_count == len(ids)

    def test_immediate_neighbours_exact(self, churned):
        _, _, nodes, ids = churned
        wrong = 0
        for index, node_id in enumerate(ids):
            node = nodes[node_id]
            if node.leafset.neighbour_cw() != ids[(index + 1) % len(ids)]:
                wrong += 1
            if node.leafset.neighbour_ccw() != ids[(index - 1) % len(ids)]:
                wrong += 1
        assert wrong == 0

    def test_routing_exact_after_churn(self, churned):
        sim, _, nodes, ids = churned
        deliveries = []
        for node in nodes.values():
            node.set_deliver(
                lambda key, kind, payload, hops, node=node: deliveries.append(
                    (key, node.node_id)
                )
            )
        rng = np.random.default_rng(3)
        node_list = list(nodes.values())
        for _ in range(80):
            source = node_list[int(rng.integers(0, len(node_list)))]
            source.route(random_id(rng), Cancel(query_id=0))
        sim.run_until(sim.now + 10.0)
        assert len(deliveries) == 80
        for key, node_id in deliveries:
            expected = min(ids, key=lambda c: (ring_distance(c, key), c))
            assert node_id == expected

    def test_no_dead_entries_linger(self, churned):
        _, network, nodes, ids = churned
        live = set(ids)
        for node in nodes.values():
            for member in node.leafset.members:
                assert member in live
