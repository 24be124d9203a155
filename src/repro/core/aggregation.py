"""The result aggregation tree (paper §3.4).

Results are aggregated up a tree embedded in the Pastry namespace, unique
per queryId.  Tree vertices are namespace keys (*vertexIds*); the parent
of a vertex is computed by the deterministic function ``V``::

    V(queryId, vertexId) = PREFIX(vertexId, 128/b - (len+1))
                         + SUFFIX(queryId, len+1)

where ``len`` is the length of the match between queryId and vertexId at
the suffix end: each application replaces one more low-order digit of the
vertexId with the queryId's, so repeated application converges to the
queryId itself (the root) while keeping a vertex's high-order digits —
and therefore its namespace position — close to its subtree's leaves.
That locality is what makes the paper's leaf optimization work: an
endsystem keeps applying ``V`` to its own id while it is still the
numerically closest node to the result, and submits to the first vertex
it does not own, giving a tree with N leaves and O(log N) depth.

Each interior vertex is a replica group: the primary (the live node
closest to the vertexId) holds the per-child result list, replicates it
to m backups before acknowledging, and forwards a new aggregate upward
when children change.  Contributions are keyed and versioned, so
retransmissions and primary failovers never double-count — the
exactly-once property of §2.3.

Replication is incremental: each replication of a state is numbered
(``seq``), a backup that was sent the state's chain gets only the child
entry that just changed, and any other backup the whole table.  A backup
applies a delta only on top of the same primary's previous ``seq``;
otherwise it answers :class:`~repro.proto.messages.VertexNack` and the
primary re-sends the whole table at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.query import QueryDescriptor
from repro.db.executor import QueryResult
from repro.overlay.ids import common_suffix_len, replace_suffix
from repro.proto import codec
from repro.proto.messages import ResultAck, ResultSubmit, VertexNack, VertexRepl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import SeaweedNode

MAX_VERTEX_LEVELS = 64  # loop guard; the chain length is bounded by 128/b

#: Retransmit backoff: the gap between re-sends of one unacknowledged
#: submission grows by this factor per attempt, capped at
#: ``RETRANSMIT_CAP_PERIODS`` times ``SeaweedConfig.result_retransmit``.
#: Integers, so the power cannot overflow however long a submission waits.
RETRANSMIT_BACKOFF_FACTOR = 2
RETRANSMIT_CAP_PERIODS = 16


def parent_vertex(query_id: int, vertex_id: int, b: int = 4) -> int:
    """One application of the paper's ``V``: the parent of ``vertex_id``.

    Raises ValueError at the root (``vertex_id == query_id``), which has
    no parent.
    """
    if vertex_id == query_id:
        raise ValueError("the root vertex (queryId) has no parent")
    matched = common_suffix_len(query_id, vertex_id, b)
    return replace_suffix(vertex_id, query_id, matched + 1, b)


def vertex_chain(query_id: int, start_id: int, b: int = 4) -> list[int]:
    """The full chain of vertexIds from ``start_id`` up to the root."""
    chain = [start_id]
    current = start_id
    while current != query_id:
        current = parent_vertex(query_id, current, b)
        chain.append(current)
        if len(chain) > MAX_VERTEX_LEVELS:
            raise RuntimeError("vertex chain failed to converge")
    return chain


def leaf_vertex(
    query_id: int, own_id: int, is_closest: Callable[[int], bool], b: int = 4
) -> int:
    """The vertex an endsystem submits its result to (leaf optimization).

    Applies ``V`` starting from the endsystem's own id until it produces a
    vertexId the endsystem is *not* the numerically closest node to.
    Returns the queryId itself if the endsystem owns the whole chain
    (i.e. it is the root).
    """
    current = own_id
    for _ in range(MAX_VERTEX_LEVELS):
        if current == query_id:
            return current
        current = parent_vertex(query_id, current, b)
        if not is_closest(current):
            return current
    raise RuntimeError("vertex chain failed to converge")


@dataclass
class VertexState:
    """A primary's (or backup's) state for one tree vertex.

    Results are held by reference — in the simulator the very objects
    other nodes hold — which is safe because nothing mutates a
    :class:`QueryResult` in place: :meth:`QueryResult.merge` builds a
    new one.
    """

    query_id: int
    vertex_id: int
    #: {contributor key: (version, result)} — contributor keys are
    #: endsystem ids for leaf submissions and child vertexIds for interior.
    children: dict[int, tuple[int, QueryResult]] = field(default_factory=dict)
    #: ``codec.vertex_children_size(children.values())``, kept up to date
    #: as children change so a replication never re-sums it.
    children_size: int = 0
    #: Version counter for this vertex's own upward submissions.
    up_version: int = 0
    #: Whether an upward forward is pending (coalescing flag).
    forward_scheduled: bool = False
    #: Number of this state's latest replication (a backup: of the latest
    #: one it applied).
    seq: int = 0
    #: Primary only: the backups that were sent every replication of
    #: this state since they joined the backup set (they get deltas).
    synced: set[int] = field(default_factory=set)

    def update_child(self, contributor: int, version: int, result: QueryResult) -> bool:
        """Install a child result if newer.  Returns True if state changed."""
        existing = self.children.get(contributor)
        if existing is None:
            self.children_size += codec.ID
        elif existing[0] >= version:
            return False
        else:
            self.children_size -= codec.result_size(existing[1])
        self.children[contributor] = (version, result)
        self.children_size += codec.result_size(result)
        return True

    def adopt_children(self, message: VertexRepl) -> None:
        """Take a replicated full child table (and its size) as this state's."""
        self.children = dict(message.children)
        self.children_size = message.children_size

    def merged_result(self) -> Optional[QueryResult]:
        """Fold all child results into one (exactly-once by construction)."""
        merged: Optional[QueryResult] = None
        for _, result in self.children.values():
            merged = result if merged is None else merged.merge(result)
        return merged


@dataclass
class PendingSubmission:
    """An unacknowledged upward submission, retransmitted until acked."""

    vertex_id: int
    contributor: int
    version: int
    result: QueryResult
    descriptor: QueryDescriptor
    #: Retransmissions so far.
    attempts: int = 0
    #: Earliest time the next retransmit may fire.
    next_retry_at: float = 0.0


class ResultAggregator:
    """The result-tree protocol engine living inside one Seaweed node."""

    def __init__(self, node: "SeaweedNode") -> None:
        self.node = node
        #: States where this node believes it is the primary.
        self._vertices: dict[tuple[int, int], VertexState] = {}
        #: Replicated states held as a backup: {(query, vertex): (primary, state)}.
        self._backups: dict[tuple[int, int], tuple[int, VertexState]] = {}
        #: Unacked submissions keyed by (query, vertex, contributor).
        self._pending: dict[tuple[int, int, int], PendingSubmission] = {}
        #: The leaf vertex chosen per query — persisted so re-submissions
        #: (after rejoin or repair) always target the SAME vertex, which
        #: is what makes contributions exactly-once (paper: "persists
        #: that vertexId with the query").
        self._leaf_targets: dict[int, int] = {}
        #: Monotone version per query for this endsystem's own leaf
        #: submissions; newer versions overwrite at the vertex, which is
        #: how continuous queries refresh their contribution.
        self._leaf_versions: dict[int, int] = {}
        self._retransmit_timer = None
        #: Highest replication ``seq`` this node has sent.  A state that
        #: becomes primary here continues from it, so its chain never
        #: reuses a ``seq`` an earlier chain of this node left at a backup.
        self._seq_high = 0

    # ------------------------------------------------------------------
    # Leaf path
    # ------------------------------------------------------------------

    def submit_local_result(
        self, descriptor: QueryDescriptor, result: QueryResult
    ) -> None:
        """Submit this endsystem's own result into the tree."""
        b = self.node.config.overlay.b
        target = self._leaf_targets.get(descriptor.query_id)
        if target is None:
            target = leaf_vertex(
                descriptor.query_id,
                self.node.node_id,
                self.node.pastry.is_closest_to,
                b=b,
            )
            self._leaf_targets[descriptor.query_id] = target
        version = self._leaf_versions.get(descriptor.query_id, 0) + 1
        self._leaf_versions[descriptor.query_id] = version
        auditor = self.node.auditor
        if auditor is not None:
            auditor.on_local_contribution(
                self.node.scheduler.now, self.node.node_id, descriptor, version, result
            )
        if target == descriptor.query_id and self.node.pastry.is_closest_to(target):
            # We are the root: feed our contribution into the root vertex.
            self._apply_submission(
                descriptor, target, self.node.node_id, version, result
            )
            return
        self._send_submission(descriptor, target, self.node.node_id, version, result)

    def _send_submission(
        self,
        descriptor: QueryDescriptor,
        vertex_id: int,
        contributor: int,
        version: int,
        result: QueryResult,
    ) -> None:
        key = (descriptor.query_id, vertex_id, contributor)
        self._pending[key] = PendingSubmission(
            vertex_id, contributor, version, result, descriptor
        )
        self._transmit(descriptor, vertex_id, contributor, version, result)
        self._ensure_retransmit_timer()

    def _transmit(
        self,
        descriptor: QueryDescriptor,
        vertex_id: int,
        contributor: int,
        version: int,
        result: QueryResult,
    ) -> None:
        self.node.pastry.route(
            vertex_id,
            ResultSubmit(
                descriptor=descriptor,
                vertex_id=vertex_id,
                contributor=contributor,
                submitter=self.node.node_id,
                version=version,
                result=result,
            ),
        )

    def _ensure_retransmit_timer(self) -> None:
        if self._retransmit_timer is None or self._retransmit_timer.cancelled:
            self._retransmit_timer = self.node.scheduler.schedule_periodic(
                self.node.config.result_retransmit, self._retransmit_sweep
            )

    def _retransmit_sweep(self) -> None:
        if not self.node.pastry.online:
            return
        period = self.node.config.result_retransmit
        now = self.node.scheduler.now
        expired = []
        for key, pending in self._pending.items():
            if now > pending.descriptor.expires_at:
                expired.append(key)
                continue
            # Capped exponential backoff: the sweep runs every period,
            # but a pending submission is only re-sent once its due time
            # passes, so a long partition costs O(log) retransmits per
            # submission instead of one per period (no retransmit storm
            # at heal time).
            if now < pending.next_retry_at:
                continue
            pending.attempts += 1
            pending.next_retry_at = now + period * min(
                RETRANSMIT_BACKOFF_FACTOR ** pending.attempts,
                RETRANSMIT_CAP_PERIODS,
            )
            self._transmit(
                pending.descriptor,
                pending.vertex_id,
                pending.contributor,
                pending.version,
                pending.result,
            )
        for key in expired:
            del self._pending[key]
        if not self._pending and self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None

    # ------------------------------------------------------------------
    # Primary path
    # ------------------------------------------------------------------

    def on_submit(self, message: ResultSubmit) -> None:
        """Handle a routed RESULT_SUBMIT delivered to this node."""
        descriptor = message.descriptor
        vertex_id = message.vertex_id
        if self.node.scheduler.now > descriptor.expires_at:
            return
        if not self.node.pastry.is_closest_to(vertex_id):
            # Stale routing: push it onward; the overlay will converge.
            self.node.pastry.route(vertex_id, message)
            return
        self._apply_submission(
            descriptor,
            vertex_id,
            message.contributor,
            message.version,
            message.result,
        )
        # Acknowledge to the submitting node (direct send by id).
        self.node.send_app(
            message.submitter,
            ResultAck(
                query_id=descriptor.query_id,
                vertex_id=vertex_id,
                contributor=message.contributor,
                version=message.version,
            ),
        )

    def _apply_submission(
        self,
        descriptor: QueryDescriptor,
        vertex_id: int,
        contributor: int,
        version: int,
        result: QueryResult,
    ) -> None:
        key = (descriptor.query_id, vertex_id)
        # Register the descriptor: a primary can be handed a submission
        # for a query it never saw disseminated (it joined late), and
        # expiry sweeps resolve descriptors through known_query().
        self.node.remember_query(descriptor)
        state = self._vertices.get(key)
        if state is None:
            # Adopt any backup state we hold for this vertex (failover).
            backed = self._backups.pop(key, None)
            state = backed[1] if backed is not None else VertexState(
                descriptor.query_id, vertex_id
            )
            self._take_primary(key, state)
        changed = state.update_child(contributor, version, result)
        if not changed:
            return
        self._replicate(descriptor, state, contributor)
        self._after_state_change(descriptor, key)

    def _take_primary(self, key: tuple[int, int], state: VertexState) -> None:
        """Install ``state`` as ours: a new chain no backup was sent yet."""
        state.seq = max(state.seq, self._seq_high)
        state.synced = set()
        self._vertices[key] = state

    def _forward_up(self, descriptor: QueryDescriptor, key: tuple[int, int]) -> None:
        state = self._vertices.get(key)
        if state is None or not self.node.pastry.online:
            return
        state.forward_scheduled = False
        merged = state.merged_result()
        if merged is None:
            return
        state.up_version += 1
        obs = self.node._obs
        if obs is not None:
            obs.aggregation_flush(
                self.node.scheduler.now, descriptor.query_id, state.vertex_id,
                self.node.node_id, False, state.up_version, merged.row_count,
            )
        parent = parent_vertex(
            descriptor.query_id, state.vertex_id, self.node.config.overlay.b
        )
        self._send_submission(
            descriptor, parent, state.vertex_id, state.up_version, merged
        )

    def _replicate(
        self,
        descriptor: QueryDescriptor,
        state: VertexState,
        changed: Optional[int] = None,
    ) -> None:
        """Replicate vertex state to the m closest leafset members.

        A synced backup gets only the ``changed`` child's entry; every
        other backup (all of them when ``changed`` is None) the table.
        """
        backups = self.node.pastry.replica_set(self.node.config.vertex_backups)
        state.seq += 1
        self._seq_high = max(self._seq_high, state.seq)
        full = delta = None
        for backup in backups:
            if changed is not None and backup in state.synced:
                if delta is None:
                    entry = state.children[changed]
                    delta = VertexRepl(
                        descriptor=descriptor,
                        vertex_id=state.vertex_id,
                        primary=self.node.node_id,
                        up_version=state.up_version,
                        children={changed: entry},
                        children_size=codec.ID + codec.result_size(entry[1]),
                        seq=state.seq,
                        full=False,
                    )
                self.node.send_app(backup, delta)
            else:
                if full is None:
                    full = self._full_repl(descriptor, state, self.node.node_id)
                self.node.send_app(backup, full)
        state.synced = set(backups)

    @staticmethod
    def _full_repl(
        descriptor: QueryDescriptor, state: VertexState, primary: int
    ) -> VertexRepl:
        """The whole table of ``state`` at its current ``seq``."""
        return VertexRepl(
            descriptor=descriptor,
            vertex_id=state.vertex_id,
            primary=primary,
            up_version=state.up_version,
            children=dict(state.children),
            children_size=state.children_size,
            seq=state.seq,
            full=True,
        )

    def on_ack(self, message: ResultAck) -> None:
        """Handle a RESULT_ACK: stop retransmitting that submission."""
        key = (message.query_id, message.vertex_id, message.contributor)
        self._pending.pop(key, None)

    def on_replicate(self, message: VertexRepl) -> None:
        """Handle a VERTEX_REPL: adopt as primary or store as backup.

        If we are now the node closest to the vertexId (e.g. the old
        primary is handing the group over after our join), we take over
        as primary; otherwise we hold the state as a backup for failover.
        A delta that does not extend the chain we hold from its primary
        is answered with a :class:`VertexNack`.
        """
        descriptor = message.descriptor
        vertex_id = message.vertex_id
        key = (descriptor.query_id, vertex_id)
        self.node.remember_query(descriptor)
        existing = self._vertices.get(key)
        held = self._backups.get(key)
        if not message.full and (
            existing is not None
            or held is None
            or held[0] != message.primary
            or held[1].seq != message.seq - 1
        ):
            self.node.send_app(
                message.primary,
                VertexNack(
                    query_id=descriptor.query_id,
                    vertex_id=vertex_id,
                    backup=self.node.node_id,
                ),
            )
            if existing is None:
                return
        if existing is not None:
            # We were (or believe we are) the primary; merge children.
            existing.up_version = max(existing.up_version, message.up_version)
            changed = False
            for contributor, (version, result) in message.children.items():
                if existing.update_child(contributor, version, result):
                    changed = True
            if changed:
                self._after_state_change(descriptor, key)
            return
        if message.full:
            state = VertexState(descriptor.query_id, vertex_id)
            state.adopt_children(message)
        else:
            state = held[1]
            for contributor, (version, result) in message.children.items():
                state.update_child(contributor, version, result)
        state.up_version = message.up_version
        state.seq = message.seq
        if self.node.pastry.is_closest_to(vertex_id) and message.primary != self.node.node_id:
            self._backups.pop(key, None)
            self._take_primary(key, state)
            self._after_state_change(descriptor, key)
            return
        self._backups[key] = (message.primary, state)

    def on_nack(self, message: VertexNack) -> None:
        """Handle a VERTEX_NACK: send the backup the whole table at once."""
        key = (message.query_id, message.vertex_id)
        state = self._vertices.get(key)
        descriptor = self.node.known_query(message.query_id)
        if state is None or descriptor is None:
            return
        self.node.send_app(
            message.backup, self._full_repl(descriptor, state, self.node.node_id)
        )

    def _after_state_change(
        self, descriptor: QueryDescriptor, key: tuple[int, int]
    ) -> None:
        """Propagate a state change: root update or scheduled upward forward."""
        state = self._vertices[key]
        if state.vertex_id == descriptor.query_id:
            merged = state.merged_result()
            if merged is not None:
                obs = self.node._obs
                if obs is not None:
                    obs.aggregation_flush(
                        self.node.scheduler.now, descriptor.query_id, state.vertex_id,
                        self.node.node_id, True, state.up_version, merged.row_count,
                    )
                self.node.on_root_result(descriptor, merged)
            return
        if not state.forward_scheduled:
            state.forward_scheduled = True
            self.node.scheduler.schedule(
                self.node.config.vertex_forward_delay,
                self._forward_up,
                descriptor,
                key,
            )

    def on_leafset_change(self) -> None:
        """Hand over any vertex group whose closest node is no longer us.

        The paper keeps the invariant that the primary is always the node
        with the id closest to the vertexId; when a join inserts a closer
        node, the old primary transfers its state to it.
        """
        for key, state in list(self._vertices.items()):
            if self.node.pastry.is_closest_to(state.vertex_id):
                continue
            descriptor = self.node.known_query(key[0])
            if descriptor is None:
                del self._vertices[key]
                continue
            new_primary = self.node.pastry.leafset.closest(
                state.vertex_id, include_owner=False
            )
            self.node.send_app(
                new_primary, self._full_repl(descriptor, state, new_primary)
            )
            # Demote ourselves to backup for the group.
            del self._vertices[key]
            self._backups[key] = (new_primary, state)

    def on_neighbour_failed(self, dead_id: int) -> None:
        """Promote backup states whose primary died and we now own."""
        for key, (primary, state) in list(self._backups.items()):
            if primary != dead_id:
                continue
            if not self.node.pastry.is_closest_to(state.vertex_id):
                continue
            descriptor = self.node.known_query(key[0])
            if descriptor is None or self.node.scheduler.now > descriptor.expires_at:
                del self._backups[key]
                continue
            del self._backups[key]
            self._take_primary(key, state)
            self._replicate(descriptor, state)
            self._after_state_change(descriptor, key)

    def expire(self, now: float) -> None:
        """Drop state belonging to expired, cancelled, or unknown queries.

        Both the primary and the backup tables are swept.  State whose
        query descriptor cannot be resolved through ``known_query()`` is
        unservable — no expiry time, no re-replication target — and every
        code path that installs state also registers its descriptor, so
        a ``None`` descriptor means the state is orphaned and must be
        collected rather than kept forever.
        """
        for table in (self._vertices, self._backups):
            stale = []
            for key in table:
                descriptor = self.node.known_query(key[0])
                if (
                    descriptor is None
                    or now > descriptor.expires_at
                    or self.node.is_cancelled(key[0])
                ):
                    stale.append(key)
            for key in stale:
                del table[key]

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        """Number of vertices this node is currently primary for."""
        return len(self._vertices)

    @property
    def backup_count(self) -> int:
        """Number of vertex states held as a backup."""
        return len(self._backups)

    def vertex_inventory(self):
        """Yield ``(query_id, vertex_id, role)`` for every held state.

        ``role`` is ``"primary"`` or ``"backup"``.  Used by the
        ground-truth oracle to find state kept past its query's expiry.
        """
        for query_id, vertex_id in self._vertices:
            yield query_id, vertex_id, "primary"
        for query_id, vertex_id in self._backups:
            yield query_id, vertex_id, "backup"

    def reset_for_rejoin(self) -> None:
        """Clear volatile protocol state when the endsystem restarts.

        Leaf targets survive: the paper persists the chosen vertexId with
        the query, so a restarted endsystem re-submits to the same vertex
        and is still counted exactly once.
        """
        self._vertices.clear()
        self._backups.clear()
        self._pending.clear()
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
