"""Tests for the message transport.

What must hold on the live carrier too (offline, unregistered and
interceptor drops, injected delay, duplication) is in
``test_transport_contract.py``; this module keeps what only the
simulated carrier has: topology latency, loss rates, accounting.
"""

import numpy as np
import pytest

from repro.net.stats import BandwidthAccounting
from repro.net.topology import Topology
from repro.net.transport import (
    DECISION_DROP_LOSS,
    Decision,
    Message,
    Transport,
    UniformLossInterceptor,
)
from repro.proto import codec
from repro.proto.messages import Cancel, LeafsetState
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    topology = Topology(2, [(0, 1, 0.010)], lan_delay=0.001)
    topology.attach("a", 0)
    topology.attach("b", 1)
    accounting = BandwidthAccounting(bucket_seconds=60.0)
    transport = Transport(sim, topology, accounting)
    return sim, transport, accounting


class TestDelivery:
    def test_message_delivered_after_latency(self, setup):
        sim, transport, _ = setup
        received = []
        transport.register("b", lambda dst, msg: received.append((sim.now, msg)))
        transport.set_online("a", True)
        transport.set_online("b", True)
        transport.send("a", "b", Message.of(Cancel(query_id=1)))
        sim.run()
        assert len(received) == 1
        time, message = received[0]
        assert time == pytest.approx(0.001 + 0.005 + 0.001)
        assert message.kind == Cancel.KIND
        assert message.src == "a"


class TestAccounting:
    def test_bytes_recorded_with_header(self, setup):
        sim, transport, accounting = setup
        transport.register("b", lambda dst, msg: None)
        transport.set_online("b", True)
        state = LeafsetState(members=list(range(6)))  # 96 body bytes
        transport.send("a", "b", Message.of(state, "query"))
        sim.run()
        assert accounting.total_tx == 96 + codec.HEADER
        assert accounting.totals_by_category("tx") == {"query": 96 + codec.HEADER}

    def test_bytes_recorded_even_when_dropped(self, setup):
        sim, transport, accounting = setup
        transport.set_online("b", False)
        transport.send("a", "b", Message.of(Cancel(query_id=1)))
        sim.run()
        assert accounting.total_tx > 0  # the sender still used the wire


class TestLoss:
    def test_loss_rate_applied(self):
        sim = Simulator()
        topology = Topology(1, [(0, 0, 0.0)], lan_delay=0.001)
        topology.attach("a", 0)
        topology.attach("b", 0)
        transport = Transport(
            sim,
            topology,
            loss_rate=0.5,
            loss_rng=np.random.default_rng(0),
        )
        received = []
        transport.register("b", lambda dst, msg: received.append(msg))
        transport.set_online("b", True)
        for _ in range(400):
            transport.send("a", "b", Message.of(Cancel(query_id=1)))
        sim.run()
        assert 130 < len(received) < 270  # ~50% with slack
        assert transport.dropped_loss == 400 - len(received)
        assert transport.drops_by_reason == {"loss": transport.dropped_loss}

    def test_uniform_loss_is_an_interceptor(self):
        sim = Simulator()
        topology = Topology(1, [(0, 0, 0.0)])
        transport = Transport(
            sim, topology, loss_rate=0.3, loss_rng=np.random.default_rng(0)
        )
        assert len(transport.interceptors) == 1
        assert isinstance(transport.interceptors[0], UniformLossInterceptor)

    def test_no_loss_means_empty_chain(self, setup):
        _, transport, _ = setup
        assert transport.interceptors == ()

    def test_loss_requires_rng(self):
        sim = Simulator()
        topology = Topology(1, [(0, 0, 0.0)])
        with pytest.raises(ValueError):
            Transport(sim, topology, loss_rate=0.1)

    def test_invalid_loss_rate(self):
        sim = Simulator()
        topology = Topology(1, [(0, 0, 0.0)])
        with pytest.raises(ValueError):
            Transport(sim, topology, loss_rate=1.5, loss_rng=np.random.default_rng(0))


class _Always:
    """Test interceptor returning a fixed decision for matching kinds."""

    def __init__(self, decision, kind=None):
        self.decision = decision
        self.kind = kind
        self.seen = 0

    def intercept(self, now, src, dst, message):
        self.seen += 1
        if self.kind is not None and message.kind != self.kind:
            return None
        return self.decision


class TestInterceptors:
    def test_drop_wins_over_later_interceptors(self, setup):
        sim, transport, _ = setup
        transport.register("b", lambda dst, msg: None)
        transport.set_online("b", True)
        late = _Always(Decision(extra_delay=1.0))
        transport.add_interceptor(_Always(DECISION_DROP_LOSS))
        transport.add_interceptor(late)
        transport.send("a", "b", Message.of(Cancel(query_id=1)))
        sim.run()
        assert transport.dropped_loss == 1
        assert late.seen == 0  # chain stops at the drop

    def test_remove_interceptor(self, setup):
        sim, transport, _ = setup
        received = []
        transport.register("b", lambda dst, msg: received.append(msg))
        transport.set_online("b", True)
        dropper = _Always(DECISION_DROP_LOSS)
        transport.add_interceptor(dropper)
        transport.remove_interceptor(dropper)
        transport.remove_interceptor(dropper)  # second removal is a no-op
        transport.send("a", "b", Message.of(Cancel(query_id=1)))
        sim.run()
        assert len(received) == 1

    def test_invalid_decision_rejected(self):
        with pytest.raises(ValueError):
            Decision(extra_delay=-1.0)
        with pytest.raises(ValueError):
            Decision(duplicates=-1)
