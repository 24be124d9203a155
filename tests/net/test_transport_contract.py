"""The transport contract, checked on both carriers.

Everything above :meth:`Transport.carry` is one implementation, so the
simulator's :class:`Transport` and the live :class:`AsyncioTransport`
(here with every node hosted locally: no socket is opened) must deliver
the same messages and count the same drops for the same sends.  Each
case runs on both and asserts the same literal outcome.  The last case
also crosses the wire on the live carrier (a second transport over
loopback TCP): the typed hop-ack id has to survive the codec.
"""

import asyncio

import pytest

from repro.net.topology import Topology
from repro.net.transport import Decision, Message, Transport
from repro.overlay.ids import id_to_hex
from repro.overlay.network import OverlayServices
from repro.proto.messages import Cancel, RouteAck, RouteEnvelope
from repro.serve.scheduler import AsyncioScheduler
from repro.serve.transport import AsyncioTransport
from repro.sim import Simulator


class SimWorld:
    #: Topology latency a -> b: two LAN hops plus half the 10 ms RTT.
    latency = 0.001 + 0.005 + 0.001
    #: Simulated delivery times are exact.
    slack = 1e-9

    def __init__(self):
        self.scheduler = Simulator()
        topology = Topology(2, [(0, 1, 0.010)], lan_delay=0.001)
        topology.attach("a", 0)
        topology.attach("b", 1)
        topology.attach("c", 1)
        self.transport = Transport(self.scheduler, topology)

    def advance(self, seconds):
        self.scheduler.run_until(self.scheduler.now + seconds)

    def host_elsewhere(self, name):
        """The transport hosting ``name``, away from "a": the same one."""
        self.transport.topology.attach(name, 1)
        return self.transport

    def close(self):
        pass


class LiveWorld:
    latency = 0.0
    #: A loop timer never fires early; how late is the machine's business.
    slack = 30.0
    #: Protocol seconds per wall second, so the delays below cost ~0.1 s.
    time_scale = 20.0

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.scheduler = AsyncioScheduler(loop=self.loop, time_scale=self.time_scale)
        self.transport = AsyncioTransport(self.scheduler, {})
        self.elsewhere = None

    def advance(self, seconds):
        self.loop.run_until_complete(asyncio.sleep(seconds / self.time_scale))

    def host_elsewhere(self, name):
        """The transport hosting ``name``: a second one, over loopback TCP."""
        self.elsewhere = AsyncioTransport(self.scheduler, {})
        here = self.loop.run_until_complete(self.transport.start())
        there = self.loop.run_until_complete(self.elsewhere.start())
        self.transport.directory[name] = there
        self.elsewhere.directory["a"] = here
        return self.elsewhere

    def close(self):
        if self.elsewhere is None:
            assert self.transport.messages_sent == 0  # loop-back only, no socket
        else:
            assert self.transport.messages_sent > 0  # crossed the wire
            self.loop.run_until_complete(self.elsewhere.drain_and_close())
        self.loop.run_until_complete(self.transport.drain_and_close())
        self.loop.close()


@pytest.fixture(params=[SimWorld, LiveWorld], ids=["sim", "live"])
def world(request):
    world = request.param()
    #: (protocol time, kind) of every message "b" receives.
    world.received = []
    world.transport.register(
        "b", lambda dst, msg: world.received.append((world.scheduler.now, msg.kind))
    )
    world.transport.set_online("b", True)
    yield world
    world.close()


class Always:
    """Interceptor returning one fixed decision."""

    def __init__(self, decision):
        self.decision = decision

    def intercept(self, now, src, dst, message):
        return self.decision


def drop_counters(transport):
    return {
        "offline": transport.dropped_offline,
        "unregistered": transport.dropped_unregistered,
        "unknown_kind": transport.dropped_unknown_kind,
    }


NO_DROPS = {"offline": 0, "unregistered": 0, "unknown_kind": 0}


def send(world, dst="b"):
    """Send one Cancel from "a"; returns the protocol time of the send."""
    sent_at = world.scheduler.now
    world.transport.send("a", dst, Message.of(Cancel(query_id=1)))
    return sent_at


def assert_delivered(world, sent_at, delays):
    """One delivery per entry of ``delays`` (s after the carrier's own
    latency), in order, none early, none later than the world's slack."""
    assert [kind for _, kind in world.received] == [Cancel.KIND] * len(delays)
    for (time, _), delay in zip(world.received, delays):
        earliest = sent_at + world.latency + delay
        assert earliest - 1e-9 <= time <= earliest + world.slack


def test_delivery_is_never_inline(world):
    sent_at = send(world)
    assert world.received == []
    world.advance(1.0)
    assert_delivered(world, sent_at, [0.0])
    assert world.transport.drops_by_reason == {}
    assert drop_counters(world.transport) == NO_DROPS


def test_offline_destination(world):
    world.transport.set_online("b", False)
    send(world)
    world.advance(1.0)
    assert world.received == []
    assert world.transport.drops_by_reason == {"offline": 1}
    assert drop_counters(world.transport) == {**NO_DROPS, "offline": 1}


def test_destination_goes_down_mid_flight(world):
    send(world)
    world.transport.set_online("b", False)  # crashes before delivery
    world.advance(1.0)
    assert world.received == []
    assert world.transport.drops_by_reason == {"offline": 1}


def test_unregistered_destination(world):
    # "c" is up but never registered a handler: a distinct failure mode
    # (host up, service absent) with its own counter.
    world.transport.set_online("c", True)
    send(world, dst="c")
    world.advance(1.0)
    assert world.received == []
    assert world.transport.drops_by_reason == {"unregistered": 1}
    assert drop_counters(world.transport) == {**NO_DROPS, "unregistered": 1}


def test_unknown_kind(world):
    world.transport.count_unknown_kind("b", "BOGUS")
    assert world.transport.drops_by_reason == {"unknown_kind": 1}
    assert drop_counters(world.transport) == {**NO_DROPS, "unknown_kind": 1}


def test_interceptor_drop_with_reason_loss(world):
    # The reason a MessageLoss fault event drops with: the transport has
    # no loss model, so it has no counter of its own for it either.
    world.transport.add_interceptor(Always(Decision(drop_reason="fault_loss")))
    send(world)
    world.advance(1.0)
    assert world.received == []
    assert world.transport.drops_by_reason == {"fault_loss": 1}
    assert drop_counters(world.transport) == NO_DROPS


def test_interceptor_drop_with_custom_reason(world):
    world.transport.add_interceptor(Always(Decision(drop_reason="partition")))
    send(world)
    world.advance(1.0)
    assert world.received == []
    assert world.transport.drops_by_reason == {"partition": 1}
    # Custom reasons do not pollute the transport's own counters.
    assert drop_counters(world.transport) == NO_DROPS


def test_extra_delay_accumulates_across_interceptors(world):
    world.transport.add_interceptor(Always(Decision(extra_delay=0.5)))
    world.transport.add_interceptor(Always(Decision(extra_delay=1.0)))
    sent_at = send(world)
    world.advance(2.0)
    assert_delivered(world, sent_at, [1.5])
    assert world.transport.drops_by_reason == {}


def test_duplicates_are_spaced_by_duplicate_delay(world):
    world.transport.add_interceptor(
        Always(Decision(duplicates=2, duplicate_delay=1.0))
    )
    sent_at = send(world)
    world.advance(3.0)
    assert_delivered(world, sent_at, [0.0, 1.0, 2.0])
    assert world.transport.drops_by_reason == {}


def test_hop_ack_answers_the_typed_ack_id(world):
    """A forwarded envelope carrying ``ack_id=7`` is answered by
    ``RouteAck(msg_id=7)``; a direct one (``ack_id=None``) by nothing."""
    node_id = 0xB0B
    name = id_to_hex(node_id)
    node = OverlayServices(
        world.scheduler, world.host_elsewhere(name)
    ).create_node(node_id)
    delivered = []
    node.set_deliver(lambda key, kind, payload, hops: delivered.append(payload))
    node.go_online(None)
    answers = []
    world.transport.register("a", lambda dst, msg: answers.append(msg.payload))
    world.transport.set_online("a", True)

    direct = RouteEnvelope(
        key=node_id, app_payload=Cancel(query_id=1), app_size=24, direct=True
    )
    forwarded = RouteEnvelope(
        key=node_id, app_payload=Cancel(query_id=2), app_size=24, hops=1, ack_id=7
    )
    for envelope in (direct, forwarded):
        # From inside the scheduler: the live carrier opens its peer
        # connection on the running loop.
        world.scheduler.schedule(
            0.0, world.transport.send, "a", name, Message.of(envelope)
        )
    for _ in range(100):
        world.advance(1.0)
        if answers:
            break
    world.advance(1.0)
    node.go_offline()
    assert delivered == [Cancel(query_id=1), Cancel(query_id=2)]
    assert answers == [RouteAck(msg_id=7)]
