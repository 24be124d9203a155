"""Protocol tests for PastryNode: join, routing, repair, death records."""

import numpy as np
import pytest

from repro.net.stats import BandwidthAccounting
from repro.net.topology import corpnet_like
from repro.net.transport import Transport
from repro.obs import MemorySink, Observer
from repro.overlay.ids import random_id, ring_distance
from repro.overlay.network import OverlayConfig, OverlayNetwork
from repro.overlay.node import DEATH_RECORD_TTL, MAX_HOPS
from repro.proto.messages import Cancel, RouteEnvelope
from repro.sim import SimClock, Simulator


def build_overlay(observer=None):
    sim = Simulator(SimClock())
    rng = np.random.default_rng(21)
    topology = corpnet_like(rng, num_routers=20)
    transport = Transport(sim, topology, BandwidthAccounting())
    network = OverlayNetwork(sim, transport, OverlayConfig(), rng, observer)
    ids = sorted({random_id(rng) for _ in range(30)})
    nodes = [network.create_node(node_id) for node_id in ids]
    topology.attach_random([node.name for node in nodes], rng)
    return sim, network, nodes, ids


@pytest.fixture
def overlay():
    return build_overlay()


def bring_all_online(sim, network, nodes, rng=None, settle=240.0):
    order = list(nodes)
    if rng is not None:
        rng.shuffle(order)
    for node in order:
        node.go_online(network.pick_bootstrap(exclude=node.node_id))
        sim.run_until(sim.now + 1.0)
    sim.run_until(sim.now + settle)


class TestJoin:
    def test_all_leafsets_converge(self, overlay):
        sim, network, nodes, ids = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        for index, node_id in enumerate(ids):
            node = network.nodes[node_id]
            assert node.leafset.neighbour_cw() == ids[(index + 1) % len(ids)]
            assert node.leafset.neighbour_ccw() == ids[(index - 1) % len(ids)]

    def test_leafsets_full(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        assert all(node.leafset.is_full() for node in nodes)

    def test_unjoined_node_sends_no_join_reply(self, overlay):
        """Its empty leafset would found a second ring; the joiner's
        retry goes to a joined node instead."""
        sim, network, nodes, _ = overlay
        founder, waiting, joiner = nodes[:3]
        sent = []

        class Recorder:
            def intercept(self, now, src, dst, message):
                sent.append((src, dst, message.kind))

        network.transport.add_interceptor(Recorder())
        waiting.go_online(founder)  # the founder is offline: no answer
        sim.run_until(sim.now + 1.0)
        assert waiting.online and not waiting.joined
        joiner.go_online(waiting)
        sim.run_until(sim.now + 1.0)
        assert (joiner.name, waiting.name, "P_JOIN_REQ") in sent
        assert [s for s in sent if s[0] == waiting.name and s[2] == "P_JOIN_REPLY"] == []
        assert not joiner.joined
        # With no joined node left to ask, the first retry founds the
        # ring and the other joins it.
        sim.run_until(sim.now + 10.0)
        assert waiting.joined and joiner.joined
        assert waiting.leafset.neighbour_cw() == joiner.node_id
        assert joiner.leafset.neighbour_cw() == waiting.node_id
        assert network.misplaced_successors() == []

    def test_online_count_tracks(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes)
        assert network.online_count == 30
        nodes[0].go_offline()
        assert network.online_count == 29


class TestRouting:
    def test_routes_reach_closest_node(self, overlay):
        sim, network, nodes, ids = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        deliveries = []
        for node in nodes:
            node.set_deliver(
                lambda key, kind, payload, hops, node=node: deliveries.append(
                    (key, node.node_id, hops)
                )
            )
        rng = np.random.default_rng(8)
        for _ in range(100):
            source = nodes[int(rng.integers(0, len(nodes)))]
            key = random_id(rng)
            source.route(key, Cancel(query_id=0))
        sim.run_until(sim.now + 10.0)
        assert len(deliveries) == 100
        for key, node_id, _ in deliveries:
            expected = min(ids, key=lambda c: (ring_distance(c, key), c))
            assert node_id == expected

    def test_hop_count_logarithmic(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        hops = []
        for node in nodes:
            node.set_deliver(
                lambda key, kind, payload, h: hops.append(h)
            )
        rng = np.random.default_rng(9)
        for _ in range(60):
            nodes[int(rng.integers(0, len(nodes)))].route(random_id(rng), Cancel(query_id=0))
        sim.run_until(sim.now + 10.0)
        assert np.mean(hops) < 4.0  # log16(30) ~ 1.2 plus slack

    def test_send_direct_single_hop(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes)
        received = []
        nodes[5].set_deliver(
            lambda key, kind, payload, hops: received.append((kind, payload, hops))
        )
        nodes[0].send_direct(nodes[5].node_id, Cancel(query_id=1))
        sim.run_until(sim.now + 1.0)
        assert received == [(Cancel.KIND, Cancel(query_id=1), 0)]

    def test_send_direct_to_self_is_deferred_delivery(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes)
        received = []
        nodes[0].set_deliver(lambda *args: received.append(args))
        nodes[0].send_direct(nodes[0].node_id, Cancel(query_id=1))
        assert received == []  # not synchronous
        sim.run_until(sim.now + 0.1)
        assert len(received) == 1


class TestFailure:
    def test_route_around_dead_node(self, overlay):
        sim, network, nodes, ids = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        victim = nodes[10]
        victim.go_offline()
        # Route to a key the victim would have owned; retries must find
        # the new closest live node.
        key = victim.node_id
        deliveries = []
        for node in nodes:
            node.set_deliver(
                lambda k, kind, payload, hops, node=node: deliveries.append(
                    node.node_id
                )
            )
        nodes[0].route(key, Cancel(query_id=0))
        sim.run_until(sim.now + 5.0)
        assert len(deliveries) == 1
        live = [i for i in ids if i != victim.node_id]
        expected = min(live, key=lambda c: (ring_distance(c, key), c))
        assert deliveries[0] == expected

    def test_failure_detector_repairs_leafsets(self, overlay):
        sim, network, nodes, ids = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        victim = nodes[7]
        victim.go_offline()
        # After the detection delay plus repair exchange, no live node
        # should list the victim.
        sim.run_until(sim.now + 120.0)
        for node in nodes:
            if node.online:
                assert victim.node_id not in node.leafset

    def test_death_record_blocks_resurrection(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes)
        node = nodes[0]
        ghost = nodes[1].node_id
        node.note_dead(ghost)
        assert node.is_recorded_dead(ghost)
        node.note_alive(ghost)
        assert not node.is_recorded_dead(ghost)

    def test_death_record_expires(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes)
        node = nodes[0]
        node.note_dead(12345)
        sim.run_until(sim.now + DEATH_RECORD_TTL + 1.0)
        assert not node.is_recorded_dead(12345)

    def test_rejoin_after_failure(self, overlay):
        sim, network, nodes, ids = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        victim = nodes[4]
        victim.go_offline()
        sim.run_until(sim.now + 100.0)
        victim.go_online(network.pick_bootstrap(exclude=victim.node_id))
        sim.run_until(sim.now + 240.0)
        index = ids.index(victim.node_id)
        assert victim.leafset.neighbour_cw() == ids[(index + 1) % len(ids)]

    def test_replica_set_size(self, overlay):
        sim, network, nodes, ids = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        replicas = nodes[0].replica_set(4)
        assert len(replicas) == 4
        # They are the actually-closest other nodes.
        expected = sorted(
            (i for i in ids if i != nodes[0].node_id),
            key=lambda c: (ring_distance(c, nodes[0].node_id), c),
        )[:4]
        assert set(replicas) == set(expected)


class TestRouteCache:
    def test_cached_decisions_match_computed(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        rng = np.random.default_rng(99)
        node = nodes[5]
        for _ in range(50):
            key = random_id(rng)
            first = node._next_hop(key)       # populates the memo
            assert node._next_hop(key) == first  # memo hit
            assert first == node._compute_next_hop(key)

    def test_mutation_invalidates_cache(self, overlay):
        sim, network, nodes, _ = overlay
        bring_all_online(sim, network, nodes, np.random.default_rng(3))
        node = nodes[5]
        victim = node.leafset.neighbour_cw()
        key = victim  # routes straight to the neighbour while it lives
        assert node._next_hop(key) == victim
        node.routing_table.remove(victim)
        node.leafset.remove(victim)
        # The stale decision must not survive the leafset change.
        assert node._next_hop(key) != victim
        assert node._next_hop(key) == node._compute_next_hop(key)


class TestHopCapDrop:
    """A route envelope arriving at the hop cap is dropped and traced."""

    @staticmethod
    def drop_at_cap(observer):
        """Hand nodes[0] a capped envelope for its only leafset member."""
        _, network, nodes, _ = build_overlay(observer)
        node, peer = nodes[:2]
        node.leafset.add(peer.node_id)
        envelope = RouteEnvelope(
            key=peer.node_id, app_payload=Cancel(query_id=0), app_size=24,
            hops=MAX_HOPS,
        )
        node._route_envelope(envelope, "query")
        return network, node, peer

    def test_one_trace_event_with_the_diagnosis(self):
        sink = MemorySink()
        network, node, peer = self.drop_at_cap(Observer(trace_sink=sink))
        assert network.routing_drops == 1
        (event,) = sink.of_kind("routing_drop")
        assert event["node"] == node.name
        assert event["key"] == peer.name
        assert event["app_kind"] == Cancel.KIND
        assert event["next_hop"] == peer.name
        assert event["leafset"] == [peer.name]

    def test_untraced_drop_still_counts(self):
        # No observer: counted, nothing to emit to.
        network, _, _ = self.drop_at_cap(None)
        assert network.observer is None
        assert network.routing_drops == 1
        # Observer without a sink: the attribute is the count, and no
        # counter mirrors it.
        observer = Observer()
        assert observer.sink is None
        network, _, _ = self.drop_at_cap(observer)
        assert network.routing_drops == 1
        assert "overlay.routing_drops_total" not in observer.metrics.snapshot()["counters"]
