"""Incremental vertex replication (paper §3.4; DESIGN.md §5.4).

A vertex primary numbers each replication of its state (``seq``).  A
backup that was sent the state's chain gets only the child entry that
just changed (a delta); any other backup gets the whole table.  A backup
applies a delta only on top of the same primary's previous ``seq`` and
otherwise answers :class:`VertexNack`, which the primary answers at once
with the whole table.
"""

from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import ResultAggregator
from repro.core.deployment import Deployment
from repro.core.query import QueryDescriptor
from repro.db.aggregates import AggregateSpec, AggregateState
from repro.db.executor import QueryResult
from repro.faults import FaultPlan, MessageLoss
from repro.proto import codec
from repro.proto.messages import VertexNack, VertexRepl
from repro.workload import QUERY_HTTP_BYTES

HORIZON = 2 * 3600.0


def count_result(rows: int) -> QueryResult:
    return QueryResult(
        specs=[AggregateSpec("COUNT", None)],
        states=[AggregateState.from_count(rows)],
        row_count=rows,
    )


def build(small_dataset, fault_plan=None):
    system = Deployment(
        trace="always_on", population=10, horizon=HORIZON, seed=53,
        dataset=small_dataset, startup_stagger=15.0, fault_plan=fault_plan,
    ).build()
    system.run_until(90.0)
    return system


def record_sends(system, monkeypatch):
    """Log every ``(time, src, dst, message)`` a node sends by id."""
    sent = []
    for node in system.nodes:
        def send_app(dst_id, app, category=None, _node=node, _orig=node.send_app):
            sent.append((system.sim.now, _node.node_id, dst_id, app))
            _orig(dst_id, app, category)
        monkeypatch.setattr(node, "send_app", send_app)
    return sent


def open_vertex(system, node):
    """A query and a vertex that ``node`` is primary for (its own id)."""
    descriptor = QueryDescriptor.create(
        QUERY_HTTP_BYTES, origin=node.node_id,
        injected_at=system.sim.now, lifetime=3600.0,
    )
    return descriptor, (descriptor.query_id, node.node_id)


def submit(node, descriptor, key, contributor, version=1, rows=5):
    node.aggregator._apply_submission(
        descriptor, key[1], contributor, version, count_result(rows)
    )


def repls_to(sent, dst, key):
    return [
        message for _t, _src, to, message in sent
        if to == dst and isinstance(message, VertexRepl)
        and (message.descriptor.query_id, message.vertex_id) == key
    ]


def assert_in_sync(system, primary_node, backup_id, key):
    primary = primary_node.aggregator._vertices[key]
    held_by, held = system.node_by_id(backup_id).aggregator._backups[key]
    assert held_by == primary_node.node_id
    assert held.children == primary.children
    assert held.children_size == primary.children_size
    assert held.children_size == codec.vertex_children_size(held.children.values())
    assert held.seq == primary.seq


class TestDeltaReplication:
    def test_synced_backup_gets_one_entry_per_update(self, small_dataset, monkeypatch):
        system = build(small_dataset)
        sent = record_sends(system, monkeypatch)
        node = system.nodes[0]
        descriptor, key = open_vertex(system, node)
        for contributor in range(1, 9):
            submit(node, descriptor, key, contributor, rows=contributor)
        system.run_until(system.sim.now + 5.0)

        backups = node.pastry.replica_set(node.config.vertex_backups)
        assert len(backups) == node.config.vertex_backups
        for backup_id in backups:
            repls = repls_to(sent, backup_id, key)
            assert [repl.full for repl in repls] == [True] + [False] * 7
            assert [repl.seq for repl in repls] == list(range(1, 9))
            assert all(len(repl.children) == 1 for repl in repls)
            assert_in_sync(system, node, backup_id, key)
        assert not any(isinstance(m, VertexNack) for *_rest, m in sent)

    def test_dropped_delta_draws_a_nack_and_the_full_table(
        self, small_dataset, monkeypatch
    ):
        loss = MessageLoss(start=100.0, end=101.0, rate=0.999, kinds=("SW_VERTEX_REPL",))
        system = build(small_dataset, FaultPlan((loss,)))
        sent = record_sends(system, monkeypatch)
        node = system.nodes[0]
        descriptor, key = open_vertex(system, node)
        submit(node, descriptor, key, 1)
        submit(node, descriptor, key, 2)
        system.run_until(100.5)
        submit(node, descriptor, key, 3)  # its deltas are lost
        system.run_until(102.0)
        backups = node.pastry.replica_set(node.config.vertex_backups)
        for backup_id in backups:
            assert system.node_by_id(backup_id).aggregator._backups[key][1].seq == 2

        submit(node, descriptor, key, 4)  # a delta no backup can apply
        system.run_until(103.0)
        nacks = [
            (t, src) for t, src, dst, m in sent
            if isinstance(m, VertexNack) and dst == node.node_id
        ]
        assert sorted(src for _t, src in nacks) == sorted(backups)
        for backup_id in backups:
            repair = repls_to(sent, backup_id, key)[-1]
            # The whole table at once, not on the next update.
            assert repair.full and repair.seq == 4
            assert sorted(repair.children) == [1, 2, 3, 4]
            assert_in_sync(system, node, backup_id, key)

    def test_new_backup_set_member_gets_the_full_table(
        self, small_dataset, monkeypatch
    ):
        system = build(small_dataset)
        sent = record_sends(system, monkeypatch)
        node = system.nodes[0]
        descriptor, key = open_vertex(system, node)
        for contributor in (1, 2, 3):
            submit(node, descriptor, key, contributor)
        system.run_until(system.sim.now + 2.0)

        old = node.pastry.replica_set(node.config.vertex_backups)
        newcomer = next(
            other.node_id for other in system.nodes
            if other is not node and other.node_id not in old
        )
        kept = old[:-1]
        monkeypatch.setattr(
            node.pastry, "replica_set", lambda _m: kept + [newcomer]
        )
        submit(node, descriptor, key, 4)
        system.run_until(system.sim.now + 2.0)

        joined = repls_to(sent, newcomer, key)
        assert len(joined) == 1 and joined[0].full
        assert sorted(joined[0].children) == [1, 2, 3, 4]
        for backup_id in kept:
            assert not repls_to(sent, backup_id, key)[-1].full
        assert len(repls_to(sent, old[-1], key)) == 3
        for backup_id in kept + [newcomer]:
            assert_in_sync(system, node, backup_id, key)


def test_promotion_after_deltas_reaches_the_exact_final(small_dataset):
    """The root primary dies after its backups took deltas only; the
    promoted backup completes the query exactly, with the oracle clean.

    In this deployment the node next closest to the query id is one of
    the root's backups, so a backup is what takes over.  Backups are the
    primary's own replica set, so that does not hold everywhere (seed 61:
    all three sit on the far side, and no backup promotes)."""
    system = Deployment(
        trace="always_on", population=16, horizon=HORIZON, seed=62,
        dataset=small_dataset, startup_stagger=15.0,
    ).build()
    system.run_until(120.0)
    _origin, descriptor = system.inject_query(QUERY_HTTP_BYTES)
    key = (descriptor.query_id, descriptor.query_id)

    def root_primary():
        return next(
            (
                node for node in system.nodes
                if key in node.aggregator._vertices and node.pastry.online
            ),
            None,
        )

    def synced_backups(root):
        """The root's backups, if all hold its latest ``seq`` (else None)."""
        state = root.aggregator._vertices[key]
        backups = root.pastry.replica_set(root.config.vertex_backups)
        for backup_id in backups:
            held = system.node_by_id(backup_id).aggregator._backups.get(key)
            if held is None or held[1].seq != state.seq:
                return None
        return backups

    # Stop once the root's backups caught up with a chain of deltas, while
    # contributions are still arriving.
    while system.sim.now < 300.0:
        system.run_until(system.sim.now + 0.1)
        root = root_primary()
        if root is not None and root.aggregator._vertices[key].seq >= 3:
            backups = synced_backups(root)
            if backups is not None:
                break
    else:
        pytest.fail("the root never replicated a chain of deltas")
    children_at_crash = len(root.aggregator._vertices[key].children)

    system.force_transition(system.nodes.index(root), False)
    system.run_until(system.sim.now + 900.0)

    promoted = root_primary()
    assert promoted is not root and promoted.node_id in backups
    assert len(promoted.aggregator._vertices[key].children) > children_at_crash
    report = system.auditor.finalize()
    assert report["ok"], report["violations"]
    (audit,) = report["queries"].values()
    assert audit["root_rows_final"] == audit["truth_rows_contributed"] > 0


# ----------------------------------------------------------------------
# Property: any update/drop/rejoin sequence ends in sync after repair
# ----------------------------------------------------------------------

PRIMARY = 1
CANDIDATES = (2, 3, 4)


class _Net:
    """Synchronous delivery between fake nodes, with per-backup drops."""

    def __init__(self):
        self.queue = deque()
        self.nodes = {}
        self.nacks = 0

    def pump(self, dropped=frozenset()):
        while self.queue:
            dst, message = self.queue.popleft()
            aggregator = self.nodes[dst].aggregator
            if isinstance(message, VertexRepl):
                if dst not in dropped:
                    aggregator.on_replicate(message)
            elif isinstance(message, VertexNack):
                self.nacks += 1
                aggregator.on_nack(message)


class _FakeNode:
    """The slice of a Seaweed node a :class:`ResultAggregator` uses."""

    def __init__(self, net, node_id, members):
        self.node_id = node_id
        self.config = SimpleNamespace(
            vertex_backups=len(CANDIDATES), vertex_forward_delay=1.0,
            overlay=SimpleNamespace(b=4),
        )
        self.pastry = SimpleNamespace(
            online=True,
            is_closest_to=lambda _key: node_id == PRIMARY,
            replica_set=lambda _m: list(members),
        )
        self.scheduler = SimpleNamespace(now=0.0, schedule=lambda *_a: None)
        self._obs = None
        self.auditor = None
        self._queries = {}
        self._net = net
        self.aggregator = ResultAggregator(self)
        net.nodes[node_id] = self

    def remember_query(self, descriptor):
        self._queries[descriptor.query_id] = descriptor

    def known_query(self, query_id):
        return self._queries.get(query_id)

    def send_app(self, dst_id, app, category=None):
        self._net.queue.append((dst_id, app))


steps = st.lists(
    st.tuples(
        st.sampled_from(["update", "rejoin"]),
        st.integers(0, 5),                                    # contributor
        st.sets(st.sampled_from(CANDIDATES)),                 # dropped at
        st.sets(st.sampled_from(CANDIDATES), min_size=1),     # backup set
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(steps=steps, final_members=st.sets(st.sampled_from(CANDIDATES), min_size=1))
def test_backups_converge_after_nack_repair(steps, final_members):
    net = _Net()
    members = []
    primary = _FakeNode(net, PRIMARY, members)
    for candidate in CANDIDATES:
        _FakeNode(net, candidate, [])
    descriptor = QueryDescriptor.create(
        QUERY_HTTP_BYTES, origin=PRIMARY, injected_at=0.0, lifetime=3600.0
    )
    key = (descriptor.query_id, 99)
    versions = {}

    def update(contributor):
        versions[contributor] = versions.get(contributor, 0) + 1
        primary.aggregator._apply_submission(
            descriptor, 99, contributor, versions[contributor],
            count_result(contributor * 7 + versions[contributor]),
        )

    for action, contributor, dropped, backup_set in steps:
        members[:] = sorted(backup_set)
        if action == "rejoin":
            net.nodes[min(dropped | backup_set)].aggregator.reset_for_rejoin()
            continue
        update(contributor)
        net.pump(dropped)

    # One last update, nothing dropped: every backup repairs through NACKs.
    members[:] = sorted(final_members)
    update(0)
    net.pump()
    state = primary.aggregator._vertices[key]
    assert state.children_size == codec.vertex_children_size(state.children.values())
    for backup_id in final_members:
        held_by, held = net.nodes[backup_id].aggregator._backups[key]
        assert held_by == PRIMARY
        assert held.children == state.children
        assert held.children_size == state.children_size
        assert held.seq == state.seq


def test_a_primary_answers_a_delta_with_a_nack():
    """Two nodes that both believe they are primary: a delta from one to
    the other is merged and NACKed, and the full table follows."""
    net = _Net()
    first = _FakeNode(net, PRIMARY, [2])
    second = _FakeNode(net, 2, [PRIMARY])
    second.pastry.is_closest_to = lambda _key: True
    descriptor = QueryDescriptor.create(
        QUERY_HTTP_BYTES, origin=PRIMARY, injected_at=0.0, lifetime=3600.0
    )
    key = (descriptor.query_id, 99)
    first.aggregator._apply_submission(descriptor, 99, 10, 1, count_result(3))
    net.pump()
    second.aggregator._apply_submission(descriptor, 99, 20, 1, count_result(4))
    net.queue.clear()
    first.aggregator._apply_submission(descriptor, 99, 11, 1, count_result(5))
    net.pump()
    assert net.nacks == 1
    assert sorted(second.aggregator._vertices[key].children) == [10, 11, 20]


@pytest.mark.parametrize("full", [True, False])
def test_sender_sets_children_size(full):
    """A full table carries the state's size, a delta its entry's."""
    net = _Net()
    primary = _FakeNode(net, PRIMARY, [2])
    _FakeNode(net, 2, [])
    descriptor = QueryDescriptor.create(
        QUERY_HTTP_BYTES, origin=PRIMARY, injected_at=0.0, lifetime=3600.0
    )
    primary.aggregator._apply_submission(descriptor, 99, 10, 1, count_result(3))
    if not full:
        net.pump()
        primary.aggregator._apply_submission(descriptor, 99, 11, 1, count_result(5))
    (_dst, repl), = list(net.queue)
    assert repl.full is full
    assert repl.children_size == codec.vertex_children_size(repl.children.values())
