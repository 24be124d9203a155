"""Query dissemination and completeness-predictor aggregation (paper §3.3).

A query is routed to its root (the live node closest to the queryId),
which starts a divide-and-conquer broadcast over namespace ranges: each
node receiving a range splits it, keeps the half containing itself, and
dispatches the other half toward its midpoint — one Pastry hop in the
common case, since routing state usually contains a live node inside the
subrange.  The recursion bottoms out when a node determines from its
leafset that it is the only live node in its range; it then answers for
itself (exact local row count) and for every unavailable endsystem in the
range whose replicated metadata it holds (histogram row-count estimate +
availability-model next-up prediction).

Per-endsystem completeness predictors aggregate up the broadcast tree at
constant size.  Children acknowledge receipt and heartbeat their parent
while working; a parent that stops hearing from a child reissues the
broadcast for that subrange, and duplicate broadcasts are answered from
cache, keeping contributions exactly-once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.predictor import CompletenessPredictor
from repro.core.query import QueryDescriptor
from repro.overlay.ids import (
    ID_MASK,
    cw_distance,
    in_wrapped_range,
    ring_distance,
    wrapped_midpoint,
    wrapped_range_size,
)
from repro.proto.messages import (
    Bcast,
    BcastAck,
    PredictorResult,
    PredictorUpdate,
    QueryInject,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import SeaweedNode

#: Give up re-dispatching a child subrange after this many attempts.
MAX_CHILD_RETRIES = 3
#: A finished root task older than this is recomputed on a fresh inject
#: rather than served from cache (the ring may have healed since).
STALE_ROOT_TASK_AGE = 20.0


@dataclass
class ChildRange:
    """A delegated subrange the parent is waiting on."""

    lo: int
    hi: int
    dispatched_at: float
    last_heard: float
    retries: int = 0
    done: bool = False
    acked: bool = False
    predictor: Optional[CompletenessPredictor] = None


@dataclass
class BroadcastTask:
    """Per-(query, range) dissemination state at one node."""

    descriptor: QueryDescriptor
    lo: int
    hi: int
    parent: Optional[int]  # None at the root
    created_at: float = 0.0
    children: dict[tuple[int, int], ChildRange] = field(default_factory=dict)
    local_part: Optional[CompletenessPredictor] = None
    done: bool = False
    merged: Optional[CompletenessPredictor] = None
    check_timer: object = None
    heartbeat_timer: object = None

    @property
    def key(self) -> tuple[int, int, int]:
        """Task identity: (queryId, lo, hi)."""
        return (self.descriptor.query_id, self.lo, self.hi)


class Disseminator:
    """The dissemination/prediction protocol engine inside one node."""

    def __init__(self, node: "SeaweedNode") -> None:
        self.node = node
        self._tasks: dict[tuple[int, int, int], BroadcastTask] = {}

    # ------------------------------------------------------------------
    # Injection (originator side)
    # ------------------------------------------------------------------

    def inject(self, descriptor: QueryDescriptor) -> None:
        """Route the query to its root to start dissemination."""
        self.node.remember_query(descriptor)
        self.node.pastry.route(
            descriptor.query_id, QueryInject(descriptor=descriptor)
        )

    def on_inject(self, message: QueryInject) -> None:
        """We are the root: broadcast over the full namespace."""
        descriptor = message.descriptor
        self.node.remember_query(descriptor)
        anchor = descriptor.query_id
        key = (descriptor.query_id, anchor, anchor)
        existing = self._tasks.get(key)
        if existing is not None:
            if not existing.done:
                return  # still aggregating
            age = self.node.scheduler.now - existing.created_at
            if age <= STALE_ROOT_TASK_AGE:
                self._reply(existing)
                return
            # A retried inject against an old result: the overlay state
            # that shaped the original split may have healed since (churn,
            # message loss during convergence), so re-disseminate.  The
            # originator keeps the best predictor it receives.
            self._disarm_timers(existing)
            del self._tasks[key]
        # lo == hi denotes the full namespace range.
        self._start_task(descriptor, anchor, anchor, parent=None)

    # ------------------------------------------------------------------
    # Broadcast handling
    # ------------------------------------------------------------------

    def on_broadcast(self, message: Bcast) -> None:
        """Handle a BCAST for a namespace range."""
        descriptor = message.descriptor
        lo, hi, parent = message.lo, message.hi, message.parent
        self.node.remember_query(descriptor)
        self._ack(descriptor, lo, hi, parent)
        key = (descriptor.query_id, lo, hi)
        task = self._tasks.get(key)
        if task is not None:
            task.parent = parent  # a reissue may come from a new parent
            if task.done:
                self._reply(task)
            return
        if self.node.scheduler.now > descriptor.expires_at:
            return
        if self.node.is_cancelled(descriptor.query_id):
            return
        self._start_task(descriptor, lo, hi, parent)

    def _start_task(
        self, descriptor: QueryDescriptor, lo: int, hi: int, parent: Optional[int]
    ) -> None:
        task = BroadcastTask(descriptor, lo, hi, parent, created_at=self.node.scheduler.now)
        self._tasks[task.key] = task
        me = self.node.node_id
        if in_wrapped_range(me, lo, hi):
            exclusive = self._split_and_dispatch(task)
            task.local_part = self._answer_range(descriptor, exclusive, include_self=True)
            self.node.execute_and_submit(descriptor)
        else:
            # Dead range: answer for the portion we own, hand off the rest.
            owned = self._partition_dead_range(task)
            task.local_part = self._answer_range(descriptor, owned, include_self=False)
        self._maybe_finish(task)
        if not task.done:
            self._arm_timers(task)

    def _split_and_dispatch(self, task: BroadcastTask) -> tuple[int, int]:
        """Binary-split the range, dispatching non-local halves.

        Returns the exclusive zone: the residual range in which this node
        is the only live endsystem.
        """
        me = self.node.node_id
        lo, hi = task.lo, task.hi
        for _ in range(130):  # ceil(log2(2^128)) + slack
            if self._only_live_in(lo, hi):
                break
            mid = wrapped_midpoint(lo, hi)
            if mid == lo:  # range of size 1; cannot split further
                break
            if in_wrapped_range(me, lo, mid):
                self._dispatch_child(task, mid, hi)
                hi = mid
            else:
                self._dispatch_child(task, lo, mid)
                lo = mid
        return lo, hi

    def _only_live_in(self, lo: int, hi: int) -> bool:
        """Whether this node's leafset shows no other live node in [lo, hi)."""
        leafset = self.node.pastry.leafset
        cw = leafset.neighbour_cw()
        ccw = leafset.neighbour_ccw()
        if cw is not None and in_wrapped_range(cw, lo, hi):
            return False
        if ccw is not None and in_wrapped_range(ccw, lo, hi):
            return False
        return True

    def _partition_dead_range(self, task: BroadcastTask) -> tuple[int, int]:
        """We were delivered a range we are outside of (it has no live node).

        Answer for the portion of the range whose ids are numerically
        closest to us (our *ownership zone*, bounded by the midpoints to
        our ring neighbours), and hand the remainder off to the adjacent
        live node on the appropriate side.  Both nodes compute the same
        midpoint, so handoffs move strictly outward and terminate.

        Returns our owned portion; ``(-1, -1)`` means none of the range is
        ours.
        """
        lo, hi = task.lo, task.hi
        me = self.node.node_id
        leafset = self.node.pastry.leafset
        cw = leafset.neighbour_cw()
        ccw = leafset.neighbour_ccw()
        if cw is None and ccw is None:
            return lo, hi  # we are alone in the overlay: answer everything
        zone_lo = self._ring_mid(ccw, me) if ccw is not None else me
        zone_hi = self._ring_mid(me, cw) if cw is not None else me
        owned = self._intersect(lo, hi, zone_lo, zone_hi)
        # Remainder counter-clockwise of our zone belongs toward ccw.
        if ccw is not None:
            before = self._intersect(lo, hi, hi if lo == hi else lo, zone_lo)
            if before is not None and before != (lo, hi):
                self._dispatch_child(task, before[0], before[1], target=ccw)
            elif before == (lo, hi) and owned is None:
                self._dispatch_child(task, lo, hi, target=ccw)
                return (-1, -1)
        # Remainder clockwise of our zone belongs toward cw.
        if cw is not None:
            after = self._intersect(lo, hi, zone_hi, lo if lo == hi else hi)
            if after is not None and after != (lo, hi):
                self._dispatch_child(task, after[0], after[1], target=cw)
            elif after == (lo, hi) and owned is None:
                self._dispatch_child(task, lo, hi, target=cw)
                return (-1, -1)
        if owned is None:
            return (-1, -1)
        return owned

    @staticmethod
    def _ring_mid(a: int, b: int) -> int:
        """Midpoint of the clockwise arc from a to b."""
        return (a + cw_distance(a, b) // 2) & ID_MASK

    @staticmethod
    def _intersect(
        lo: int, hi: int, zone_lo: int, zone_hi: int
    ) -> Optional[tuple[int, int]]:
        """Intersect wrapped ``[lo, hi)`` with wrapped ``[zone_lo, zone_hi)``.

        Returns the sub-arc of ``[lo, hi)`` that lies inside the zone, or
        None if the intersection is empty.  Exact when the intersection is
        a single arc — always true here because the zone is an arc around
        one node and the range is an arc that excludes it or abuts it.
        """
        if zone_lo == zone_hi:
            return None
        if lo == hi:
            return zone_lo, zone_hi
        start = lo if in_wrapped_range(lo, zone_lo, zone_hi) else zone_lo
        if not in_wrapped_range(start, lo, hi):
            return None
        end = hi if in_wrapped_range((hi - 1) & ID_MASK, zone_lo, zone_hi) else zone_hi
        if cw_distance(lo, start) >= cw_distance(lo, end) and start != lo:
            return None
        if wrapped_range_size(start, end) == 0 or not in_wrapped_range(
            start, lo, hi
        ):
            return None
        return start, end

    def _dispatch_child(
        self,
        task: BroadcastTask,
        lo: int,
        hi: int,
        target: Optional[int] = None,
    ) -> None:
        """Send a BCAST for [lo, hi) and start tracking the child."""
        if wrapped_range_size(lo, hi) == 0:
            return
        now = self.node.scheduler.now
        child = ChildRange(lo, hi, dispatched_at=now, last_heard=now)
        task.children[(lo, hi)] = child
        self._transmit_child(task, child, target)

    def _transmit_child(
        self, task: BroadcastTask, child: ChildRange, target: Optional[int] = None
    ) -> None:
        obs = self.node._obs
        if obs is not None:
            obs.dissemination_hop(
                self.node.scheduler.now, task.descriptor.query_id, self.node.node_id,
                child.lo, child.hi, child.retries,
            )
        bcast = Bcast(
            descriptor=task.descriptor,
            lo=child.lo,
            hi=child.hi,
            parent=self.node.node_id,
        )
        if target is None and child.retries == 0:
            target = self._known_node_in(child.lo, child.hi)
        if target is not None:
            self.node.send_app(target, bcast)
        else:
            midpoint = wrapped_midpoint(child.lo, child.hi)
            self.node.pastry.route(midpoint, bcast)

    def _known_node_in(self, lo: int, hi: int) -> Optional[int]:
        """A live-believed node inside the range, from local routing state.

        This is the paper's common case: the divide-and-conquer forward
        reaches the subrange in one hop via the routing table.
        """
        midpoint = wrapped_midpoint(lo, hi)
        best: Optional[int] = None
        best_distance = None
        candidates = list(self.node.pastry.leafset.members)
        candidates.extend(self.node.pastry.routing_table.entries())
        for candidate in candidates:
            if not in_wrapped_range(candidate, lo, hi):
                continue
            distance = ring_distance(candidate, midpoint)
            if best_distance is None or distance < best_distance:
                best, best_distance = candidate, distance
        return best

    # ------------------------------------------------------------------
    # Answering for a range
    # ------------------------------------------------------------------

    def _answer_range(
        self,
        descriptor: QueryDescriptor,
        zone: tuple[int, int],
        include_self: bool,
    ) -> CompletenessPredictor:
        """Build the predictor part for a range this node answers for."""
        predictor = CompletenessPredictor()
        if include_self:
            rows = self.node.local_relevant_rows(descriptor)
            predictor.add_immediate(rows)
        lo, hi = zone
        if lo == -1:
            return predictor
        if lo == hi and not include_self:
            return predictor
        now = self.node.scheduler.now
        for owner in self.node.metadata_store.owners_in_range(lo, hi):
            if owner == self.node.node_id:
                continue
            record = self.node.metadata_store.get(owner)
            if record is None:
                continue
            if record.down_since is None and self.node.believes_online(owner):
                # The owner is (still) up; it will answer for itself.
                continue
            rows = record.metadata.estimate_rows(descriptor.parsed)
            down_since = (
                record.down_since if record.down_since is not None else record.refreshed_at
            )
            prediction = record.metadata.availability.predict(
                now, down_since, self.node.scheduler.clock
            )
            delays = prediction.times - descriptor.injected_at
            predictor.add_distribution(delays, prediction.weights, rows)
        return predictor

    # ------------------------------------------------------------------
    # Replies, heartbeats, retransmission
    # ------------------------------------------------------------------

    def _ack(
        self, descriptor: QueryDescriptor, lo: int, hi: int, parent: Optional[int]
    ) -> None:
        if parent is None or parent == self.node.node_id:
            return
        self.node.send_app(
            parent, BcastAck(query_id=descriptor.query_id, lo=lo, hi=hi)
        )

    def on_ack(self, message: BcastAck) -> None:
        """A child acknowledged / heartbeat: reset its liveness clock."""
        for task in self._tasks.values():
            if task.descriptor.query_id != message.query_id:
                continue
            child = task.children.get((message.lo, message.hi))
            if child is not None:
                child.last_heard = self.node.scheduler.now
                child.acked = True

    def on_predictor(self, message: PredictorUpdate) -> None:
        """A child subtree finished: record its predictor."""
        for task in list(self._tasks.values()):
            if task.descriptor.query_id != message.query_id:
                continue
            child = task.children.get((message.lo, message.hi))
            if child is not None and not child.done:
                child.done = True
                child.predictor = message.predictor
                child.last_heard = self.node.scheduler.now
                self._maybe_finish(task)

    def _maybe_finish(self, task: BroadcastTask) -> None:
        if task.done:
            return
        if any(not child.done for child in task.children.values()):
            return
        merged = task.local_part or CompletenessPredictor()
        for child in task.children.values():
            if child.predictor is not None:
                merged = merged.merge(child.predictor)
        task.merged = merged
        task.done = True
        self._disarm_timers(task)
        self._reply(task)

    def _reply(self, task: BroadcastTask) -> None:
        if task.parent is None:
            # We are the root: hand the aggregated predictor to the query
            # layer and push it to the originator.
            self.node.on_predictor_ready(task.descriptor, task.merged)
            if task.descriptor.origin != self.node.node_id:
                self.node.send_app(
                    task.descriptor.origin,
                    PredictorResult(
                        query_id=task.descriptor.query_id,
                        predictor=task.merged,
                    ),
                )
            return
        self.node.send_app(
            task.parent,
            PredictorUpdate(
                query_id=task.descriptor.query_id,
                lo=task.lo,
                hi=task.hi,
                predictor=task.merged,
            ),
        )

    def _arm_timers(self, task: BroadcastTask) -> None:
        config = self.node.config
        task.check_timer = self.node.scheduler.schedule_periodic(
            config.predictor_heartbeat, lambda: self._check_children(task)
        )
        if task.parent is not None:
            task.heartbeat_timer = self.node.scheduler.schedule_periodic(
                config.predictor_heartbeat,
                lambda: self._ack(task.descriptor, task.lo, task.hi, task.parent),
            )

    def _disarm_timers(self, task: BroadcastTask) -> None:
        for timer in (task.check_timer, task.heartbeat_timer):
            if timer is not None:
                timer.cancel()
        task.check_timer = None
        task.heartbeat_timer = None

    def _check_children(self, task: BroadcastTask) -> None:
        if task.done or not self.node.pastry.online:
            return
        now = self.node.scheduler.now
        timeout = self.node.config.predictor_reply_timeout
        # A child that never even acknowledged receipt is re-dispatched on
        # a much tighter deadline: the first transmission likely went to a
        # stale (dead) routing entry.
        ack_timeout = 2.5 * self.node.config.predictor_heartbeat
        changed = False
        for child in task.children.values():
            if child.done:
                continue
            deadline = timeout if child.acked else ack_timeout
            if now - child.last_heard <= deadline:
                continue
            child.retries += 1
            if child.retries > MAX_CHILD_RETRIES:
                # Give up: treat the subrange as answered-empty.
                child.done = True
                child.predictor = None
                changed = True
            else:
                child.last_heard = now
                self._transmit_child(task, child)
        if changed:
            self._maybe_finish(task)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset_for_rejoin(self) -> None:
        """Drop volatile dissemination state when the endsystem restarts."""
        for task in self._tasks.values():
            self._disarm_timers(task)
        self._tasks.clear()

    def expire(self, now: float) -> None:
        """Drop tasks for expired queries."""
        stale = [
            key
            for key, task in self._tasks.items()
            if now > task.descriptor.expires_at
        ]
        for key in stale:
            self._disarm_timers(self._tasks[key])
            del self._tasks[key]

    def expire_query(self, query_id: int) -> None:
        """Drop all tasks of one (cancelled) query."""
        stale = [key for key in self._tasks if key[0] == query_id]
        for key in stale:
            self._disarm_timers(self._tasks[key])
            del self._tasks[key]

    @property
    def task_count(self) -> int:
        """Number of live dissemination tasks (tests)."""
        return len(self._tasks)
