"""A Pastry node: prefix routing, leafset maintenance, join protocol.

Implements the MSPastry behaviours Seaweed relies on:

* key-based routing (``route``) with the standard rule — deliver via the
  leafset when the key is in the leafset span, otherwise forward to the
  routing-table entry with a longer prefix, otherwise to any known node
  numerically closer to the key;
* per-hop acknowledgements with timeout-driven eviction of dead routing
  entries and re-forwarding (MSPastry's lazy repair);
* the join protocol: route a join request to the joiner's own id, seed the
  joiner with routing state from the path and the leafset of the closest
  node, then announce to the new leafset members;
* leafset repair when the failure detector reports a dead neighbour.

The application above (Seaweed) registers a deliver upcall and may also
send single-hop messages directly to known nodes (e.g. replica-set
members), exactly as the paper's metadata push does.

All overlay wire traffic is typed (:mod:`repro.proto.messages`) and
dispatched through a registry-driven :class:`repro.proto.registry.
Dispatcher`; unknown kinds are counted by the transport instead of being
silently ignored.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.transport import Message
from repro.overlay.ids import hex_to_id, id_to_hex, ring_distance
from repro.overlay.leafset import Leafset
from repro.overlay.routing_table import RoutingTable
from repro.proto.messages import (
    JoinReply,
    JoinRequest,
    LeafsetAnnounce,
    LeafsetProbe,
    LeafsetState,
    ProtoMessage,
    RouteAck,
    RouteEnvelope,
)
from repro.proto.registry import Dispatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.network import OverlayServices

#: Timeout before a forwarded hop is declared dead and rerouted.
HOP_ACK_TIMEOUT = 0.5
#: Maximum hop count before a routed message is dropped (loop guard).
MAX_HOPS = 64
#: Join retry: resend the join if no reply arrived within this window.
JOIN_RETRY_TIMEOUT = 4.0
#: How long a node remembers that a peer was observed dead.  Gossip
#: cannot resurrect a dead entry within this window; any message
#: received *from* the peer clears the record immediately.
DEATH_RECORD_TTL = 90.0

DeliverUpcall = Callable[[int, str, Any, int], None]

#: Route-cache miss sentinel (``None`` means "deliver locally").
_MISS: object = object()


class PastryNode:
    """One overlay node; lives on a single endsystem."""

    def __init__(self, node_id: int, network: "OverlayServices") -> None:
        self.node_id = node_id
        self.name = id_to_hex(node_id)
        self.network = network
        self.leafset = Leafset(node_id, size=network.config.leafset_size)
        self.routing_table = RoutingTable(node_id, b=network.config.b)
        self.online = False
        self._deliver_upcall: Optional[DeliverUpcall] = None
        self._neighbour_change_upcall: Optional[Callable[[], None]] = None
        self._neighbour_failed_upcall: Optional[Callable[[int], None]] = None
        self._next_msg_id = 0
        self._pending_acks: set[int] = set()
        self._stabilize_timer = None
        self._joined = False
        # Next-hop memo: {destination key: decision}.  Valid only while
        # the (routing_table, leafset) version pair is unchanged — every
        # input of _compute_next_hop is covered by those two counters.
        self._route_cache: dict[int, Optional[int]] = {}
        self._route_cache_versions: Optional[tuple[int, int]] = None
        # Death records: {node_id: observation time}.  Entries suppress
        # gossip-driven resurrection of dead peers for a TTL.
        self._death_records: dict[int, float] = {}
        self._dispatch = Dispatcher(on_unknown=self._on_unknown_kind)
        self._dispatch.on(RouteEnvelope, self._handle_route)
        self._dispatch.on(RouteAck, self._handle_route_ack)
        self._dispatch.on(JoinRequest, self._handle_join_req)
        self._dispatch.on(JoinReply, self._handle_join_reply)
        self._dispatch.on(LeafsetAnnounce, self._handle_leafset_announce)
        self._dispatch.on(LeafsetState, self._handle_leafset_state)
        self._dispatch.on(LeafsetProbe, self._handle_leafset_probe)
        network.transport.register(self.name, self._on_message)

    # ------------------------------------------------------------------
    # Application interface (KBR API)
    # ------------------------------------------------------------------

    def set_deliver(self, upcall: DeliverUpcall) -> None:
        """Register the application deliver upcall: ``fn(key, kind, payload, hops)``."""
        self._deliver_upcall = upcall

    def set_neighbour_change(self, upcall: Callable[[], None]) -> None:
        """Register a callback fired whenever the leafset changes."""
        self._neighbour_change_upcall = upcall

    def set_neighbour_failed(self, upcall: Callable[[int], None]) -> None:
        """Register a callback fired when a neighbour is declared dead."""
        self._neighbour_failed_upcall = upcall

    def route(
        self, key: int, app: ProtoMessage, category: Optional[str] = None
    ) -> None:
        """Route a typed application message to the live node closest to ``key``.

        ``category`` defaults to the message class's accounting category.
        """
        if category is None:
            category = app.CATEGORY
        envelope = RouteEnvelope(
            key=key,
            app_payload=app,
            app_size=app.body_size(),
            hops=0,
            origin=self.node_id,
        )
        # Defer even the first hop so that a route that terminates locally
        # never re-enters the caller synchronously.
        self.network.scheduler.schedule(0.0, self._route_envelope, envelope, category)

    def send_direct(
        self, dst_id: int, app: ProtoMessage, category: Optional[str] = None
    ) -> None:
        """Send a typed application message in a single hop to a known node.

        Used for replica-set pushes and tree-internal traffic where the
        destination id is already known; no ack, the application layer is
        responsible for retransmission.  ``category`` defaults to the
        message class's accounting category.
        """
        if dst_id == self.node_id:
            if self._deliver_upcall is not None:
                # Deferred: synchronous self-delivery would re-enter the
                # calling protocol machine.
                self.network.scheduler.schedule(
                    0.0, self._deliver_upcall, dst_id, app.KIND, app, 0
                )
            return
        if category is None:
            category = app.CATEGORY
        envelope = RouteEnvelope(
            key=dst_id,
            app_payload=app,
            app_size=app.body_size(),
            hops=0,
            origin=self.node_id,
            direct=True,
        )
        self.network.transport.send(
            self.name, id_to_hex(dst_id), Message.of(envelope, category)
        )

    def replica_set(self, k: int) -> list[int]:
        """The ``k`` leafset members numerically closest to this node's id.

        This is the paper's metadata replica set: "the k numerically
        closest endsystems to x".
        """
        members = sorted(
            self.leafset.members,
            key=lambda member: (ring_distance(member, self.node_id), member),
        )
        return members[:k]

    @property
    def joined(self) -> bool:
        """Online, and the join has been answered (or needed no bootstrap).

        ``online`` is set the moment :meth:`go_online` runs; the leafset
        is only seeded once a ``JoinReply`` arrives.
        """
        return self.online and self._joined

    def is_closest_to(self, key: int) -> bool:
        """Whether this node believes it is the live node closest to ``key``.

        Judged against the local leafset — exact when the leafset is
        accurate, which the repair protocol maintains.
        """
        return self.leafset.closest(key) == self.node_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def go_online(self, bootstrap: Optional["PastryNode"]) -> None:
        """Bring the node up and (re)join the overlay via ``bootstrap``."""
        self.online = True
        self._death_records.clear()
        self.leafset = Leafset(self.node_id, size=self.network.config.leafset_size)
        self.routing_table = RoutingTable(self.node_id, b=self.network.config.b)
        # The fresh state objects restart their version counters, which
        # could collide with the memoized pair — drop the memo outright.
        self._route_cache.clear()
        self._route_cache_versions = None
        self.network.transport.set_online(self.name, True)
        self._joined = False
        if bootstrap is not None and bootstrap.node_id != self.node_id:
            self._send_join(bootstrap)
            self.network.scheduler.schedule(
                JOIN_RETRY_TIMEOUT, self._check_join, self.leafset
            )
        else:
            self._joined = True
        self.network.on_node_online(self)
        self._start_stabilizer()

    def _send_join(self, bootstrap: "PastryNode") -> None:
        self.routing_table.add(bootstrap.node_id)
        request = JoinRequest(joiner=self.node_id, path=[])
        self.network.transport.send(
            self.name, bootstrap.name, Message.of(request)
        )

    def _check_join(self, leafset: Leafset) -> None:
        """Retry the join until a JOIN_REPLY populates the leafset.

        Retried for as long as the node stays online and unanswered:
        stabilization only probes leafset neighbours, so a node whose
        joins were all lost (say, behind a partition) has nobody to
        probe, and nothing else would ever seed its leafset.  Each retry
        goes to a freshly picked joined node.  ``leafset``
        is the one :meth:`go_online` made; a later rejoin replaces it,
        which ends this retry chain in favour of the rejoin's own.
        """
        if not self.online or self._joined or leafset is not self.leafset:
            return
        bootstrap = self.network.pick_bootstrap(exclude=self.node_id)
        if bootstrap is None:
            # No joined node is left to answer: found the ring, as a node
            # that comes up with nobody to join through does.
            self._joined = True
            return
        self._send_join(bootstrap)
        self.network.scheduler.schedule(JOIN_RETRY_TIMEOUT, self._check_join, leafset)

    def go_offline(self) -> None:
        """Take the node down (fail-stop: no goodbye messages)."""
        self.online = False
        self.network.transport.set_online(self.name, False)
        if self._stabilize_timer is not None:
            self._stabilize_timer.cancel()
            self._stabilize_timer = None
        self.network.on_node_offline(self)

    def _start_stabilizer(self) -> None:
        """Periodic leafset exchange with the immediate ring neighbours.

        MSPastry piggybacks leafset state on heartbeats; we run the
        equivalent exchange on its own timer with a randomized phase.
        """
        period = self.network.config.stabilize_period
        first = period * (0.5 + 0.5 * ((self.node_id >> 32) % 1000) / 1000.0)
        self._stabilize_timer = self.network.scheduler.schedule_periodic(
            period, self._stabilize, first_delay=first
        )

    def _stabilize(self) -> None:
        if not self.online:
            return
        targets = {self.leafset.neighbour_cw(), self.leafset.neighbour_ccw()}
        targets.discard(None)
        for target in targets:
            self.network.transport.send(
                self.name, id_to_hex(target), Message.of(LeafsetProbe())
            )

    # ------------------------------------------------------------------
    # Death records
    # ------------------------------------------------------------------

    def note_dead(self, node_id: int) -> None:
        """Record direct evidence that ``node_id`` is down."""
        self._death_records[node_id] = self.network.scheduler.now

    def note_alive(self, node_id: int) -> None:
        """Clear any death record: we heard from the node directly."""
        self._death_records.pop(node_id, None)

    def is_recorded_dead(self, node_id: int) -> bool:
        """Whether a death record for ``node_id`` is still fresh."""
        observed = self._death_records.get(node_id)
        if observed is None:
            return False
        if self.network.scheduler.now - observed > DEATH_RECORD_TTL:
            del self._death_records[node_id]
            return False
        return True

    def _live_only(self, ids):
        """Filter out ids with fresh death records (gossip hygiene)."""
        return [node_id for node_id in ids if not self.is_recorded_dead(node_id)]

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------

    def _route_envelope(self, envelope: RouteEnvelope, category: str) -> None:
        key = envelope.key
        if envelope.hops >= MAX_HOPS:
            self.network.routing_drops += 1
            observer = self.network.observer
            if observer is not None and observer.sink is not None:
                observer.routing_drop(
                    self.network.scheduler.now, self.node_id, key,
                    envelope.app_kind, self._compute_next_hop(key),
                    self.leafset.members,
                )
            return
        next_hop = self._next_hop(key)
        if next_hop is None or next_hop == self.node_id:
            self._deliver(envelope)
            return
        self._forward_with_ack(next_hop, envelope, category)

    #: Bound on the per-node next-hop memo (cleared wholesale when full).
    ROUTE_CACHE_MAX = 4096

    def _next_hop(self, key: int) -> Optional[int]:
        """Cached Pastry routing decision; None means deliver locally.

        Cached per exact destination key, not per digit prefix: a
        leafset-covered key resolves to the numerically closest member,
        which two keys sharing any digit prefix need not agree on, so
        prefix-level caching would corrupt near-ring routing.  The memo
        is dropped whenever either routing input mutates (version
        counters) — see DESIGN.md §6.10.
        """
        versions = (self.routing_table.version, self.leafset.version)
        cache = self._route_cache
        if versions != self._route_cache_versions:
            cache.clear()
            self._route_cache_versions = versions
        else:
            hit = cache.get(key, _MISS)
            if hit is not _MISS:
                return hit
        decision = self._compute_next_hop(key)
        if len(cache) >= self.ROUTE_CACHE_MAX:
            cache.clear()
        cache[key] = decision
        return decision

    def _compute_next_hop(self, key: int) -> Optional[int]:
        """Standard Pastry routing decision; None means deliver locally."""
        if key == self.node_id:
            return None
        if self.leafset.covers(key):
            closest = self.leafset.closest(key)
            return None if closest == self.node_id else closest
        entry = self.routing_table.lookup(key)
        if entry is not None:
            return entry
        # Rare case: no exact routing entry; pick any known node strictly
        # closer to the key than we are.
        own_distance = ring_distance(self.node_id, key)
        best: Optional[int] = None
        best_distance = own_distance
        for candidate in list(self.routing_table.closer_candidates(key)) + list(
            self.leafset.members
        ):
            candidate_distance = ring_distance(candidate, key)
            if candidate_distance < best_distance:
                best = candidate
                best_distance = candidate_distance
        return best

    def _forward_with_ack(
        self, next_hop: int, envelope: RouteEnvelope, category: str
    ) -> None:
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        envelope = dataclasses.replace(
            envelope, hops=envelope.hops + 1, ack_id=msg_id
        )
        self.network.transport.send(
            self.name, id_to_hex(next_hop), Message.of(envelope, category)
        )
        self.network.scheduler.schedule(
            HOP_ACK_TIMEOUT, self._on_ack_timeout, next_hop, msg_id, envelope, category
        )
        self._pending_acks.add(msg_id)

    def _on_ack_timeout(
        self, next_hop: int, msg_id: int, envelope: RouteEnvelope, category: str
    ) -> None:
        if msg_id not in self._pending_acks:
            return  # acked in time
        self._pending_acks.discard(msg_id)
        if not self.online:
            return
        # The hop is dead: evict it everywhere and re-route.
        self.note_dead(next_hop)
        self.routing_table.remove(next_hop)
        if self.leafset.remove(next_hop):
            self._repair_leafset()
        self.network.reroutes += 1
        envelope = dataclasses.replace(envelope, hops=max(0, envelope.hops - 1))
        self._route_envelope(envelope, category)

    def _deliver(self, envelope: RouteEnvelope) -> None:
        self.routing_table.add(envelope.origin)
        if self._deliver_upcall is None:
            return
        self._deliver_upcall(
            envelope.key,
            envelope.app_kind,
            envelope.app_payload,
            envelope.hops,
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _on_message(self, _dst: str, message: Message) -> None:
        if not self.online:
            return
        if message.src:
            self.note_alive(hex_to_id(message.src))
        self._dispatch.dispatch(message.kind, message)

    def _on_unknown_kind(self, kind: str, _message: Message) -> None:
        self.network.transport.count_unknown_kind(self.name, kind)

    def _handle_route(self, message: Message) -> None:
        envelope: RouteEnvelope = message.payload
        if envelope.ack_id is not None:
            ack = Message.of(RouteAck(msg_id=envelope.ack_id), message.category)
            self.network.transport.send(self.name, message.src, ack)
        self.routing_table.add(envelope.origin)
        if envelope.direct:
            self._deliver(envelope)
        else:
            self._route_envelope(envelope, message.category)

    def _handle_route_ack(self, message: Message) -> None:
        self._pending_acks.discard(message.payload.msg_id)

    def _handle_join_req(self, message: Message) -> None:
        if not self._joined:
            # Not yet part of a ring: an answer from our empty leafset
            # would found a second one.  The joiner retries elsewhere.
            return
        request: JoinRequest = message.payload
        joiner = request.joiner
        # Route *before* learning the joiner, and never forward the join
        # request to the joiner itself — we must find the node that is
        # closest among the existing members.
        next_hop = self._next_hop(joiner)
        self.routing_table.add(joiner)
        if next_hop is None or next_hop in (self.node_id, joiner):
            # We are the closest live node: reply with our full state.
            reply = JoinReply(
                leafset=self.leafset.members + [self.node_id],
                routing=self.routing_table.entries(),
                path=request.path,
            )
            self.network.transport.send(
                self.name, id_to_hex(joiner), Message.of(reply)
            )
            return
        forwarded = JoinRequest(joiner=joiner, path=request.path + [self.node_id])
        self.network.transport.send(
            self.name, id_to_hex(next_hop), Message.of(forwarded)
        )

    def _handle_join_reply(self, message: Message) -> None:
        self._joined = True
        state: JoinReply = message.payload
        for node_id in self._live_only(state.path):
            self.routing_table.add(node_id)
        for node_id in self._live_only(state.routing):
            self.routing_table.add(node_id)
        live_members = self._live_only(state.leafset)
        changed = self.leafset.merge(live_members)
        for node_id in live_members:
            self.routing_table.add(node_id)
        # Announce ourselves to our leafset so they add us symmetrically.
        for member in self.leafset.members:
            self.network.transport.send(
                self.name,
                id_to_hex(member),
                Message.of(LeafsetAnnounce(joiner=self.node_id)),
            )
        if changed:
            self._notify_neighbour_change()

    def _handle_leafset_announce(self, message: Message) -> None:
        joiner = message.payload.joiner
        self.routing_table.add(joiner)
        changed = self.leafset.add(joiner)
        # Reply with our leafset so the joiner can refine its own.
        reply = LeafsetState(members=self.leafset.members + [self.node_id])
        self.network.transport.send(self.name, message.src, Message.of(reply))
        if changed:
            self._notify_neighbour_change()

    def _handle_leafset_state(self, message: Message) -> None:
        state: LeafsetState = message.payload
        members = self._live_only(m for m in state.members if m != self.node_id)
        changed = self.leafset.merge(members)
        for member in members:
            self.routing_table.add(member)
        if changed:
            self._notify_neighbour_change()

    def _handle_leafset_probe(self, message: Message) -> None:
        prober = hex_to_id(message.src)
        if self.leafset.add(prober):
            self._notify_neighbour_change()
        self.routing_table.add(prober)
        reply = LeafsetState(members=self.leafset.members + [self.node_id])
        self.network.transport.send(self.name, message.src, Message.of(reply))

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def on_neighbour_failed(self, dead_id: int) -> None:
        """Failure-detector notification that ``dead_id`` stopped heartbeating."""
        if not self.online:
            return
        self.note_dead(dead_id)
        self.routing_table.remove(dead_id)
        removed = self.leafset.remove(dead_id)
        if self._neighbour_failed_upcall is not None:
            self._neighbour_failed_upcall(dead_id)
        if removed:
            observer = self.network.observer
            if observer is not None:
                observer.leafset_repair(self.network.scheduler.now, self.node_id, dead_id)
            self._repair_leafset()
            self._notify_neighbour_change()

    def _repair_leafset(self) -> None:
        """Ask the surviving leafset extremes for their members."""
        for extreme in self.leafset.extremes():
            self.network.transport.send(
                self.name, id_to_hex(extreme), Message.of(LeafsetProbe())
            )

    def _notify_neighbour_change(self) -> None:
        self.network.on_leafset_change(self)
        if self._neighbour_change_upcall is not None:
            self._neighbour_change_upcall()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "offline"
        return f"PastryNode({self.name[:8]}…, {state})"
