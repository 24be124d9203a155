"""The Seaweed endsystem: protocol glue for one node.

A :class:`SeaweedNode` couples a Pastry node with the endsystem's local
database and runs the three Seaweed services on top:

* **metadata replication** — proactive pushes of the availability model
  and data summary to the k closest neighbours, re-replication on churn,
  and down-time observation for held records;
* **query dissemination / completeness prediction** — the
  :class:`~repro.core.dissemination.Disseminator`;
* **result aggregation** — the
  :class:`~repro.core.aggregation.ResultAggregator`.

It also implements the lifecycle behaviours of §2: a node that becomes
available (re)joins the overlay, pushes fresh metadata, asks a neighbour
for the list of currently active queries, and contributes its results to
each — which is how incremental results keep arriving for the lifetime of
a query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.oracle import GroundTruthOracle

from repro.core.aggregation import ResultAggregator
from repro.core.availability_model import AvailabilityModel
from repro.core.config import SeaweedConfig
from repro.core.dissemination import Disseminator
from repro.core.metadata import EndsystemMetadata, MetadataStore
from repro.core.predictor import CompletenessPredictor
from repro.core.query import DEFAULT_LIFETIME, QueryDescriptor, QueryStatus
from repro.db.engine import LocalDatabase
from repro.db.executor import QueryResult
from repro.db.sql import ParsedQuery
from repro.obs.observer import Observer
from repro.overlay.ids import ring_distance
from repro.overlay.node import PastryNode
from repro.proto.messages import (
    ActiveReq,
    ActiveResp,
    Bcast,
    BcastAck,
    Cancel,
    MetaPush,
    PredictorResult,
    PredictorUpdate,
    ProtoMessage,
    QueryInject,
    ResultAck,
    ResultSubmit,
    StatusPush,
    VertexRepl,
)
from repro.proto.registry import Dispatcher

#: Settling delay between overlay join and Seaweed-level (re)announcements.
JOIN_SETTLE_DELAY = 1.5
#: Originator: predictor retries before giving up.
PREDICTOR_RETRY_LIMIT = 8


class SeaweedNode:
    """One endsystem running the full Seaweed stack."""

    def __init__(
        self,
        pastry: PastryNode,
        database: LocalDatabase,
        config: SeaweedConfig,
        rng: np.random.Generator,
        observer: Optional["Observer"] = None,
    ) -> None:
        self.pastry = pastry
        self.database = database
        self.config = config
        self.scheduler = pastry.network.scheduler
        self.node_id = pastry.node_id
        self._rng = rng
        #: The observer or None — protocol engines reach it via
        #: ``node._obs`` and guard with a bare ``is not None`` check.
        self._obs = observer
        #: Ground-truth conformance oracle (:mod:`repro.audit`), attached
        #: by ``SeaweedSystem.enable_audit()``.  ``None`` — the default —
        #: keeps every hook to a single attribute check (zero-cost-off).
        self.auditor: Optional["GroundTruthOracle"] = None
        self.availability = AvailabilityModel()
        self.metadata_store = MetadataStore()
        self.disseminator = Disseminator(self)
        self.aggregator = ResultAggregator(self)
        self.known_queries: dict[int, QueryDescriptor] = {}
        self.query_statuses: dict[int, QueryStatus] = {}
        #: Tombstones for explicitly cancelled queries (epidemic spread).
        self.cancelled_queries: set[int] = set()
        self._contributed: set[int] = set()
        self._local_results: dict[int, tuple[QueryDescriptor, QueryResult]] = {}
        self._summary_timer = None
        self._refresh_timer = None
        self._metadata_version = 0
        self._last_down_at: Optional[float] = None
        self._last_replica_set: list[int] = []
        self._dispatch = Dispatcher(on_unknown=self._on_unknown_kind)
        self._dispatch.on(QueryInject, self.disseminator.on_inject)
        self._dispatch.on(Bcast, self.disseminator.on_broadcast)
        self._dispatch.on(BcastAck, self.disseminator.on_ack)
        self._dispatch.on(PredictorUpdate, self.disseminator.on_predictor)
        self._dispatch.on(PredictorResult, self._handle_predictor_result)
        self._dispatch.on(ResultSubmit, self.aggregator.on_submit)
        self._dispatch.on(ResultAck, self.aggregator.on_ack)
        self._dispatch.on(VertexRepl, self.aggregator.on_replicate)
        self._dispatch.on(MetaPush, self._handle_meta_push)
        self._dispatch.on(ActiveReq, self._handle_active_req)
        self._dispatch.on(ActiveResp, self._handle_active_resp)
        self._dispatch.on(StatusPush, self._handle_status)
        self._dispatch.on(Cancel, self._handle_cancel)
        pastry.set_deliver(self._deliver)
        pastry.set_neighbour_change(self._on_leafset_change)
        pastry.set_neighbour_failed(self._on_neighbour_failed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def go_online(self, bootstrap: Optional[PastryNode]) -> None:
        """The endsystem becomes available: join, learn, announce."""
        now = self.scheduler.now
        if self._obs is not None:
            self._obs.endsystem_up(now, self.node_id)
        if self._last_down_at is not None:
            self.availability.record_down_duration(now - self._last_down_at)
            self._last_down_at = None
        self.availability.record_up_event(self.scheduler.clock.hour_of_day(now))
        self._contributed.clear()
        self.disseminator.reset_for_rejoin()
        self.aggregator.reset_for_rejoin()
        self.pastry.go_online(bootstrap)
        self.scheduler.schedule(JOIN_SETTLE_DELAY, self._after_join)

    def go_offline(self) -> None:
        """The endsystem fails or shuts down (fail-stop)."""
        self._last_down_at = self.scheduler.now
        if self._obs is not None:
            self._obs.endsystem_down(self.scheduler.now, self.node_id)
        for timer_name in ("_summary_timer", "_refresh_timer"):
            timer = getattr(self, timer_name)
            if timer is not None:
                timer.cancel()
                setattr(self, timer_name, None)
        self.pastry.go_offline()

    def _after_join(self) -> None:
        if not self.pastry.online:
            return
        self.push_metadata()
        self._request_active_queries()
        period = self.config.summary_push_period
        # Randomized phase avoids system-wide push spikes (paper §4.3).
        first = float(self._rng.uniform(0.0, period))
        self._summary_timer = self.scheduler.schedule_periodic(
            period, self._periodic_push, first_delay=first
        )
        refresh = self.config.result_refresh_period
        self._refresh_timer = self.scheduler.schedule_periodic(
            refresh, self._refresh_results, first_delay=float(self._rng.uniform(0.0, refresh))
        )

    def _refresh_results(self) -> None:
        """Periodic repair sweep: (re-)contribute to every active query.

        Re-submissions are versioned and idempotent at the tree vertices,
        so this only adds rows that were lost to correlated vertex
        failures — and picks up queries this node learned about but has
        not executed yet.
        """
        if not self.pastry.online:
            return
        now = self.scheduler.now
        # Garbage-collect expired queries before repairing live ones, so
        # no vertex or dissemination state outlives a query by more than
        # one sweep (the oracle's "vertex state released" check).
        self.aggregator.expire(now)
        self.disseminator.expire(now)
        # Re-ask a neighbour for active queries: the join-time request may
        # have hit a member that had not heard of a query yet.
        self._request_active_queries()
        for query_id, descriptor in list(self.known_queries.items()):
            if now > descriptor.expires_at or query_id in self.cancelled_queries:
                continue
            if query_id not in self._contributed:
                self.execute_and_submit(descriptor)
            else:
                stored = self._local_results.get(query_id)
                if stored is not None:
                    self.aggregator.submit_local_result(stored[0], stored[1])

    # ------------------------------------------------------------------
    # Metadata replication
    # ------------------------------------------------------------------

    def push_metadata(self) -> None:
        """Push this endsystem's metadata to its replica set."""
        if not self.pastry.online:
            return
        self._metadata_version += 1
        metadata = EndsystemMetadata.build(
            owner=self.node_id,
            database=self.database,
            availability=AvailabilityModel.from_snapshot(self.availability.snapshot()),
            version=self._metadata_version,
        )
        replicas = self.pastry.replica_set(self.config.metadata_replicas)
        self._last_replica_set = replicas
        if self._obs is not None:
            self._obs.metadata_push(self.scheduler.now, self.node_id, len(replicas))
        for replica in replicas:
            self.send_app(replica, MetaPush(metadata=metadata, owner_online=True))

    def _periodic_push(self) -> None:
        """The proactive periodic push (rate p in the analytic model)."""
        if not self.pastry.online:
            return
        self.push_metadata()
        self._rereplicate_held_records()

    def _rereplicate_held_records(self) -> None:
        """Maintain k replicas for dead owners we are responsible for.

        For each held record whose owner we are currently the closest live
        node to, push it to the owner's (approximate) current replica set.
        Versioned stores make duplicates cheap and idempotent.
        """
        for owner in self.metadata_store.owners():
            if owner == self.node_id:
                continue
            record = self.metadata_store.get(owner)
            if record is None or record.down_since is None:
                continue
            if not self.pastry.is_closest_to(owner):
                continue
            candidates = sorted(
                self.pastry.leafset.members,
                key=lambda member: ring_distance(member, owner),
            )[: self.config.metadata_replicas]
            push = MetaPush(
                metadata=record.metadata,
                owner_online=False,
                down_since=record.down_since,
            )
            for candidate in candidates:
                self.send_app(candidate, push)

    def _handle_meta_push(self, message: MetaPush) -> None:
        metadata = message.metadata
        stored = self.metadata_store.store(
            metadata, self.scheduler.now, owner_online=message.owner_online
        )
        if not stored:
            return
        if message.owner_online:
            self.metadata_store.mark_up(metadata.owner)
        elif message.down_since is not None:
            self.metadata_store.mark_down(metadata.owner, message.down_since)

    # ------------------------------------------------------------------
    # Active query distribution
    # ------------------------------------------------------------------

    def _request_active_queries(self) -> None:
        members = self.pastry.leafset.members
        if not members:
            return
        target = members[int(self._rng.integers(0, len(members)))]
        self.send_app(target, ActiveReq(requester=self.node_id))

    def _handle_active_req(self, message: ActiveReq) -> None:
        now = self.scheduler.now
        active = [
            descriptor
            for descriptor in self.known_queries.values()
            if now <= descriptor.expires_at
            and descriptor.query_id not in self.cancelled_queries
        ]
        self.send_app(
            message.requester,
            ActiveResp(active=active, cancelled=list(self.cancelled_queries)),
        )

    def _handle_active_resp(self, message: ActiveResp) -> None:
        for query_id in message.cancelled:  # tombstones first
            self.cancel_query(query_id)
        for descriptor in message.active:
            if descriptor.query_id in self.cancelled_queries:
                continue
            self.remember_query(descriptor)
            if self.scheduler.now <= descriptor.expires_at:
                self.execute_and_submit(descriptor)

    # ------------------------------------------------------------------
    # Query execution and injection
    # ------------------------------------------------------------------

    def inject_query(
        self,
        sql: str,
        now_binding: Optional[float] = None,
        lifetime: float = DEFAULT_LIFETIME,
        continuous_period: Optional[float] = None,
    ) -> QueryDescriptor:
        """Inject a query from this endsystem (the application API).

        ``continuous_period`` turns the one-shot query into a continuous
        one: every endsystem re-executes at that period and pushes an
        updated contribution up the (persistent) result tree — the §3.4
        extension.
        """
        descriptor = QueryDescriptor.create(
            sql,
            origin=self.node_id,
            injected_at=self.scheduler.now,
            now_binding=now_binding,
            lifetime=lifetime,
            continuous_period=continuous_period,
        )
        if self._obs is not None:
            self._obs.query_issued(
                self.scheduler.now, descriptor.query_id, self.node_id, descriptor.sql
            )
        if self.auditor is not None:
            self.auditor.on_query_injected(descriptor)
        self.query_statuses[descriptor.query_id] = QueryStatus(descriptor)
        self.disseminator.inject(descriptor)
        self._schedule_predictor_retry(descriptor, attempt=1)
        return descriptor

    def _schedule_predictor_retry(
        self, descriptor: QueryDescriptor, attempt: int
    ) -> None:
        self.scheduler.schedule(
            self.config.predictor_retry_interval,
            self._predictor_retry,
            descriptor,
            attempt,
        )

    def _predictor_retry(self, descriptor: QueryDescriptor, attempt: int) -> None:
        """Reissue the (idempotent) inject to obtain or refine the predictor.

        Covers root failure during predictor aggregation (the new root
        rebuilds the broadcast tree) and degraded routing state at the
        first attempt (the first refinement passes re-disseminate and the
        originator keeps the best answer).
        """
        if not self.pastry.online:
            return
        status = self.query_statuses.get(descriptor.query_id)
        if status is None:
            return
        refining = attempt <= 3  # a few mandatory refinement passes
        if status.predictor is not None and not refining:
            return
        if attempt > PREDICTOR_RETRY_LIMIT:
            return
        self.disseminator.inject(descriptor)
        self._schedule_predictor_retry(descriptor, attempt + 1)

    def cancel_query(self, query_id: int) -> None:
        """Explicitly cancel a query (paper §2: "until it times out or is
        explicitly canceled").

        Installs a tombstone locally, drops volatile state, and gossips
        the cancellation to the leafset; tombstones also ride the
        active-query exchange, so the whole population stops refreshing
        within one repair cycle.
        """
        if query_id in self.cancelled_queries:
            return
        self.cancelled_queries.add(query_id)
        if self._obs is not None:
            self._obs.query_cancelled(self.scheduler.now, query_id, self.node_id)
        self._local_results.pop(query_id, None)
        self.disseminator.expire_query(query_id)
        if self.pastry.online:
            for member in self.pastry.leafset.members:
                self.send_app(member, Cancel(query_id=query_id))

    def _handle_cancel(self, message: Cancel) -> None:
        self.cancel_query(message.query_id)

    def is_cancelled(self, query_id: int) -> bool:
        """Whether a cancellation tombstone exists for ``query_id``."""
        return query_id in self.cancelled_queries

    def execute_and_submit(self, descriptor: QueryDescriptor) -> None:
        """Run the query locally and submit the result to the tree (once)."""
        if descriptor.query_id in self.cancelled_queries:
            return
        if descriptor.query_id in self._contributed:
            return
        if self.scheduler.now > descriptor.expires_at:
            return
        self._contributed.add(descriptor.query_id)
        result = self.database.execute(descriptor.parsed)
        self._local_results[descriptor.query_id] = (descriptor, result)
        self.aggregator.submit_local_result(descriptor, result)
        if descriptor.continuous_period is not None:
            self.scheduler.schedule(
                descriptor.continuous_period, self._continuous_tick, descriptor
            )

    def _continuous_tick(self, descriptor: QueryDescriptor) -> None:
        """Re-execute a continuous query and push the fresh contribution."""
        if self.scheduler.now > descriptor.expires_at:
            return
        if descriptor.query_id in self.cancelled_queries:
            return
        if self.pastry.online:
            result = self.database.execute(descriptor.parsed)
            self._local_results[descriptor.query_id] = (descriptor, result)
            self.aggregator.submit_local_result(descriptor, result)
        self.scheduler.schedule(
            descriptor.continuous_period, self._continuous_tick, descriptor
        )

    def parsed_query(self, descriptor: QueryDescriptor) -> ParsedQuery:
        """The descriptor's parsed query (parsed once per descriptor)."""
        return descriptor.parsed

    def local_relevant_rows(self, descriptor: QueryDescriptor) -> int:
        """Exact relevant-row count from the local DBMS (available path)."""
        return self.database.relevant_row_count(descriptor.parsed)

    def remember_query(self, descriptor: QueryDescriptor) -> None:
        """Record an active query (rejoining neighbours will ask for these)."""
        if descriptor.query_id not in self.known_queries:
            self.known_queries[descriptor.query_id] = descriptor
            if self.auditor is not None and self.pastry.online:
                self.auditor.on_query_learned(
                    self.scheduler.now, self.node_id, descriptor.query_id
                )

    def known_query(self, query_id: int) -> Optional[QueryDescriptor]:
        """Look up a remembered query descriptor."""
        return self.known_queries.get(query_id)

    def believes_online(self, owner: int) -> bool:
        """Whether this node believes endsystem ``owner`` is currently up."""
        return owner in self.pastry.leafset

    # ------------------------------------------------------------------
    # Root/originator callbacks
    # ------------------------------------------------------------------

    def on_predictor_ready(
        self, descriptor: QueryDescriptor, predictor: CompletenessPredictor
    ) -> None:
        """Called at the root when an aggregated predictor is complete.

        Refinement passes may produce several; keep the most complete one
        (the estimate covering the most endsystems).
        """
        status = self.query_statuses.setdefault(
            descriptor.query_id, QueryStatus(descriptor)
        )
        if status.offer_predictor(predictor, self.scheduler.now) and self._obs is not None:
            self._obs.predictor_update(
                self.scheduler.now, descriptor.query_id, self.node_id,
                "root", predictor.endsystems,
            )

    def on_root_result(
        self, descriptor: QueryDescriptor, merged: QueryResult
    ) -> None:
        """Called at the root whenever the incremental result changes."""
        status = self.query_statuses.setdefault(
            descriptor.query_id, QueryStatus(descriptor)
        )
        status.result = merged
        status.record(self.scheduler.now)
        if self.auditor is not None:
            self.auditor.on_root_result(self.scheduler.now, self.node_id, descriptor, merged)
        if descriptor.origin != self.node_id:
            self.send_app(
                descriptor.origin,
                StatusPush(
                    query_id=descriptor.query_id,
                    result=merged,
                    time=self.scheduler.now,
                ),
            )

    def _handle_status(self, message: StatusPush) -> None:
        descriptor = self.known_queries.get(message.query_id)
        if descriptor is None:
            return
        status = self.query_statuses.setdefault(
            descriptor.query_id, QueryStatus(descriptor)
        )
        status.result = message.result
        status.record(self.scheduler.now)

    def _handle_predictor_result(self, message: PredictorResult) -> None:
        descriptor = self.known_queries.get(message.query_id)
        if descriptor is None:
            return
        status = self.query_statuses.setdefault(
            descriptor.query_id, QueryStatus(descriptor)
        )
        incoming = message.predictor
        if status.offer_predictor(incoming, self.scheduler.now) and self._obs is not None:
            self._obs.predictor_update(
                self.scheduler.now, descriptor.query_id, self.node_id,
                "origin", incoming.endsystems,
            )

    # ------------------------------------------------------------------
    # Overlay hooks and message dispatch
    # ------------------------------------------------------------------

    def send_app(
        self,
        dst_id: int,
        app: ProtoMessage,
        category: Optional[str] = None,
    ) -> None:
        """Single-hop typed application message to a known node id.

        ``category`` defaults to the message class's accounting category.
        """
        self.pastry.send_direct(dst_id, app, category)

    def _deliver(self, key: int, kind: str, payload: Any, hops: int) -> None:
        self._dispatch.dispatch(kind, payload)

    def _on_unknown_kind(self, kind: str, _payload: Any) -> None:
        self.pastry.network.transport.count_unknown_kind(self.pastry.name, kind)

    def _on_leafset_change(self) -> None:
        """New neighbours may mean a new replica set: refresh pushes."""
        if not self.pastry.online:
            return
        self.aggregator.on_leafset_change()
        current = self.pastry.replica_set(self.config.metadata_replicas)
        if set(current) != set(self._last_replica_set):
            # Coalesce: at most one refresh push per settle delay.
            self.scheduler.schedule(JOIN_SETTLE_DELAY, self._refresh_if_changed, current)

    def _refresh_if_changed(self, expected: list[int]) -> None:
        if not self.pastry.online:
            return
        current = self.pastry.replica_set(self.config.metadata_replicas)
        if set(current) != set(self._last_replica_set) and current == expected:
            self.push_metadata()

    def _on_neighbour_failed(self, dead_id: int) -> None:
        """A leafset neighbour stopped heartbeating."""
        self.metadata_store.mark_down(dead_id, self.scheduler.now)
        self.aggregator.on_neighbour_failed(dead_id)
