"""Acknowledged metadata replication (paper §3.2).

A replica that stores an owner-online push acknowledges the record's
content epoch.  Every later push, periodic or after a replica-set
change, then sends such a replica only the new version (a
``MetaRefresh``); every other replica gets the full record (a
``MetaPush``) at every push until it acknowledges.  New content (a
rejoin or a database write) starts a new epoch, which nobody has
acknowledged yet.
"""

import pytest

from repro.core.deployment import Deployment
from repro.faults import FaultPlan, MessageLoss
from repro.proto.messages import MetaAck, MetaPush, MetaRefresh, RouteEnvelope

HORIZON = 3600.0
#: A window that drops (almost surely) every message sent in it.
LOSS_AT = 200.0


def build(small_dataset, fault_plan=None):
    system = Deployment(
        trace="always_on", population=16, horizon=HORIZON, seed=5,
        dataset=small_dataset, startup_stagger=15.0, private_databases=True,
        fault_plan=fault_plan,
    ).build()
    system.run_until(120.0)
    return system


def record_sends(monkeypatch, node):
    """Record every ``(destination, message)`` that ``node`` sends."""
    sent = []
    send = node.send_app

    def recording(dst_id, app, category=None):
        sent.append((dst_id, app))
        send(dst_id, app, category)

    monkeypatch.setattr(node, "send_app", recording)
    return sent


def pushes(sent):
    """``{replica: message class}`` of the metadata pushes in ``sent``."""
    return {
        dst: type(app) for dst, app in sent if isinstance(app, (MetaPush, MetaRefresh))
    }


def settled_owner(system):
    """An owner whose whole replica set has acknowledged its epoch."""
    for node in system.nodes:
        replicas = node.pastry.replica_set(node.config.metadata_replicas)
        if replicas and set(replicas) <= node._acked_replicas:
            return node, replicas
    raise AssertionError("no owner has a fully acknowledged replica set")


def write_one_row(node):
    table = node.database.table("Flow")
    node.database.insert(
        "Flow", {column.name: table.column(column.name)[0] for column in table.schema}
    )


def holds_current(system, owner, replica):
    record = system.node_by_id(replica).metadata_store.get(owner.node_id)
    return (
        record is not None
        and record.metadata.version == owner._metadata_version
        and record.epoch == owner._metadata_epoch
    )


class TestRefresh:
    def test_acknowledged_replicas_get_the_version_only(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        owner, replicas = settled_owner(system)
        sent = record_sends(monkeypatch, owner)
        owner.push_metadata()
        assert pushes(sent) == {replica: MetaRefresh for replica in replicas}
        system.run_until(system.sim.now + 2.0)
        assert all(holds_current(system, owner, replica) for replica in replicas)

    def test_negative_ack_brings_the_full_record(self, small_dataset, monkeypatch):
        system = build(small_dataset)
        owner, replicas = settled_owner(system)
        lost = replicas[0]
        system.node_by_id(lost).metadata_store.drop(owner.node_id)
        replica_sent = record_sends(monkeypatch, system.node_by_id(lost))
        sent = record_sends(monkeypatch, owner)
        owner.push_metadata()
        system.run_until(system.sim.now + 2.0)
        assert [
            app for _dst, app in replica_sent
            if isinstance(app, MetaAck) and not app.held
        ] == [MetaAck(replica=lost, epoch=owner._metadata_epoch, held=False)]
        resent = [app for dst, app in sent if dst == lost]
        assert [type(app) for app in resent] == [MetaRefresh, MetaPush]
        assert resent[1].metadata.version == owner._metadata_version
        assert holds_current(system, owner, lost)
        assert lost in owner._acked_replicas


class TestPeriodicPush:
    def test_acknowledged_replicas_get_the_version_only(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        owner, replicas = settled_owner(system)
        unacknowledged = replicas[0]
        owner._acked_replicas.discard(unacknowledged)
        sent = record_sends(monkeypatch, owner)
        owner._periodic_push()
        assert pushes(sent) == {
            replica: MetaPush if replica == unacknowledged else MetaRefresh
            for replica in replicas
        }
        system.run_until(system.sim.now + 2.0)
        assert all(holds_current(system, owner, replica) for replica in replicas)
        assert unacknowledged in owner._acked_replicas

    def test_after_a_database_write_it_is_full_to_every_replica(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        owner, replicas = settled_owner(system)
        write_one_row(owner)
        sent = record_sends(monkeypatch, owner)
        owner._periodic_push()
        assert pushes(sent) == {replica: MetaPush for replica in replicas}
        system.run_until(system.sim.now + 2.0)
        assert all(holds_current(system, owner, replica) for replica in replicas)

    def test_a_replica_that_lost_the_record_gets_it_after_its_negative_ack(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        owner, replicas = settled_owner(system)
        lost = replicas[-1]
        system.node_by_id(lost).metadata_store.drop(owner.node_id)
        sent = record_sends(monkeypatch, owner)
        owner._periodic_push()
        system.run_until(system.sim.now + 2.0)
        resent = [type(app) for dst, app in sent if dst == lost]
        assert resent == [MetaRefresh, MetaPush]
        assert holds_current(system, owner, lost)
        assert lost in owner._acked_replicas


class TestNewContent:
    def test_database_write_sends_the_full_record_to_every_replica(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        owner, replicas = settled_owner(system)
        epoch = owner._metadata_epoch
        write_one_row(owner)
        sent = record_sends(monkeypatch, owner)
        owner.push_metadata()
        assert pushes(sent) == {replica: MetaPush for replica in replicas}
        assert owner._metadata_epoch == owner._metadata_version > epoch
        system.run_until(system.sim.now + 2.0)
        assert all(holds_current(system, owner, replica) for replica in replicas)

    def test_rejoin_sends_the_full_record_to_every_replica(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        owner, _ = settled_owner(system)
        epoch = owner._metadata_epoch
        owner.go_offline()
        system.run_until(system.sim.now + 5.0)
        owner.go_online(system.overlay.pick_bootstrap(exclude=owner.node_id))
        system.run_until(system.sim.now + 1.0)
        assert owner.pastry.joined
        replicas = owner.pastry.replica_set(owner.config.metadata_replicas)
        assert replicas and set(replicas) & owner._acked_replicas
        sent = record_sends(monkeypatch, owner)
        owner.push_metadata()
        assert pushes(sent) == {replica: MetaPush for replica in replicas}
        assert owner._metadata_epoch > epoch


def test_lost_full_push_is_resent_at_the_next_push(small_dataset, monkeypatch):
    plan = FaultPlan((MessageLoss(start=LOSS_AT, end=LOSS_AT + 1e-3, rate=0.999999),))
    system = build(small_dataset, fault_plan=plan)
    system.run_until(LOSS_AT - 1.0)
    owner, replicas = settled_owner(system)
    write_one_row(owner)
    sent = record_sends(monkeypatch, owner)
    system.sim.schedule_at(LOSS_AT, owner.push_metadata)
    system.run_until(LOSS_AT + 2.0)
    assert pushes(sent) == {replica: MetaPush for replica in replicas}
    assert system.transport.drops_by_reason["fault_loss"] >= len(replicas)
    assert not any(holds_current(system, owner, replica) for replica in replicas)
    assert owner._acked_replicas == set()
    # Nobody acknowledged the new epoch: the next refresh is full again.
    sent.clear()
    owner.push_metadata()
    assert pushes(sent) == {replica: MetaPush for replica in replicas}
    system.run_until(system.sim.now + 2.0)
    assert all(holds_current(system, owner, replica) for replica in replicas)
    assert set(replicas) <= owner._acked_replicas


@pytest.mark.parametrize("acknowledged", [False, True])
def test_every_replica_holds_the_owner_record_after_a_push(small_dataset, acknowledged):
    """Whichever form the push takes, each replica ends on the same record."""
    system = build(small_dataset)
    owner, replicas = settled_owner(system)
    if not acknowledged:
        owner._acked_replicas.clear()  # the push goes out in full
    owner.push_metadata()
    system.run_until(system.sim.now + 2.0)
    for replica in replicas:
        record = system.node_by_id(replica).metadata_store.get(owner.node_id)
        assert record.metadata == owner._last_metadata
        assert record.down_since is None


def test_lost_refresh_leaves_the_record_valid_until_the_next_push(
    small_dataset, monkeypatch
):
    plan = FaultPlan((
        MessageLoss(
            start=LOSS_AT, end=LOSS_AT + 1e-3, rate=0.999999,
            kinds=("SW_META_REFRESH",),
        ),
    ))
    system = build(small_dataset, fault_plan=plan)
    system.run_until(LOSS_AT - 1.0)
    owner, replicas = settled_owner(system)
    held_version = owner._metadata_version
    sent = record_sends(monkeypatch, owner)
    system.sim.schedule_at(LOSS_AT, owner._periodic_push)
    system.run_until(LOSS_AT + 2.0)
    assert pushes(sent) == {replica: MetaRefresh for replica in replicas}
    assert system.transport.drops_by_reason["fault_loss"] >= len(replicas)
    for replica in replicas:
        # The replica missed the version, not the content: its record of
        # the owner's epoch is still whole and still marks the owner up.
        record = system.node_by_id(replica).metadata_store.get(owner.node_id)
        assert record.epoch == owner._metadata_epoch
        assert record.metadata.version == held_version < owner._metadata_version
        assert record.down_since is None
    assert set(replicas) <= owner._acked_replicas
    sent.clear()
    owner._periodic_push()
    assert pushes(sent) == {replica: MetaRefresh for replica in replicas}
    system.run_until(system.sim.now + 2.0)
    assert all(holds_current(system, owner, replica) for replica in replicas)


class AckCensus:
    """Counts full owner-online pushes of an epoch the receiving replica
    had already acknowledged, from the messages on the wire."""

    #: An ack sent this long before a push has surely arrived.
    ACK_IN_FLIGHT = 1.0

    def __init__(self):
        self.acked_at = {}  # (owner, replica, epoch) -> when the ack left
        self.redundant = 0
        self.refreshes = 0

    def intercept(self, now, src, dst, message):
        envelope = message.payload
        if not isinstance(envelope, RouteEnvelope):
            return None
        app = envelope.app_payload
        if isinstance(app, MetaAck) and app.held:
            self.acked_at.setdefault((envelope.key, app.replica, app.epoch), now)
        elif isinstance(app, MetaRefresh):
            self.refreshes += 1
        elif isinstance(app, MetaPush) and app.owner_online:
            acked = self.acked_at.get((app.metadata.owner, envelope.key, app.epoch))
            if acked is not None and acked < now - self.ACK_IN_FLIGHT:
                self.redundant += 1
        return None


def test_read_only_pushes_never_resend_an_acknowledged_record(small_dataset):
    """Census over two push periods of a read-only deployment: once a
    replica has acknowledged an owner's epoch, the owner never sends it
    that content in full again."""
    system = Deployment(
        trace="always_on", population=16, horizon=HORIZON, seed=5,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    census = AckCensus()
    system.transport.add_interceptor(census)
    system.run_until(120.0 + 2 * system.config.summary_push_period)
    assert census.acked_at and census.refreshes > 0
    assert census.redundant == 0
