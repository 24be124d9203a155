"""The Seaweed system facade: a full packet-level deployment in one object.

``SeaweedSystem`` assembles the whole stack — simulator, topology,
transport with bandwidth accounting, Pastry overlay, and one
:class:`~repro.core.node.SeaweedNode` per endsystem — drives endsystem
availability from a :class:`~repro.traces.availability.TraceSet`, and
assigns each endsystem an Anemone data profile, exactly mirroring the
paper's experimental setup (§4.3.1).

This is the public entry point for applications and for the packet-level
experiments (Figs. 9-10).  The *simplified* availability-only simulator
used for the prediction experiments (Figs. 5-8) lives in
:mod:`repro.harness.prediction`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.config import SeaweedConfig
from repro.core.node import SeaweedNode
from repro.core.query import DEFAULT_LIFETIME, QueryDescriptor, QueryStatus
from repro.db.engine import LocalDatabase
from repro.net.stats import BandwidthAccounting
from repro.net.topology import corpnet_like
from repro.net.transport import Transport
from repro.obs.observer import Observer
from repro.overlay.ids import random_id
from repro.overlay.network import OverlayNetwork
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import SimClock, Simulator
from repro.traces.availability import AvailabilitySchedule, TraceSet
from repro.workload.anemone import AnemoneDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.oracle import GroundTruthOracle
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.workload.live import LiveAnemoneFeed


class SeaweedSystem:
    """A complete simulated Seaweed deployment."""

    def __init__(
        self,
        trace: TraceSet,
        dataset: AnemoneDataset,
        num_endsystems: Optional[int] = None,
        config: Optional[SeaweedConfig] = None,
        master_seed: int = 0,
        startup_stagger: float = 300.0,
        id_seed: Optional[int] = None,
        private_databases: bool = False,
        observer: Optional[Observer] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        """Build the deployment.

        Args:
            trace: Availability schedules; profiles are randomly assigned.
            dataset: Anemone data profiles; randomly assigned per endsystem.
            num_endsystems: Population size (defaults to ``len(trace)``).
            config: Seaweed configuration.
            master_seed: Root of all random streams.
            startup_stagger: Endsystems up at t=0 join uniformly at random
                within this window, modelling a deployment rollout rather
                than a thundering herd.
            id_seed: Separate seed for endsystemId assignment — vary this
                (only) to rerun with different id assignments (Fig. 9c).
            private_databases: Give each endsystem its own mutable copy
                of its profile database (required for live update feeds
                and continuous-query demos; costs memory).
            observer: Observability hub (:mod:`repro.obs`).  When ``None``
                every instrumentation point collapses to a single
                attribute check — the zero-cost path.
            fault_plan: Declarative fault schedule (:mod:`repro.faults`).
                Installed through a :class:`~repro.faults.injector.
                FaultInjector` before the simulation starts; ``None``
                leaves the deployment fault-free (and bit-identical to a
                build without the faults subsystem: fault RNG streams are
                only drawn when a plan is attached).
        """
        self.config = config if config is not None else SeaweedConfig()
        self.streams = RandomStreams(master_seed)
        self.sim = Simulator(SimClock())
        self.obs: Optional[Observer] = observer
        if observer is not None and observer.profiler is not None:
            self.sim.set_profiler(observer.profiler)
        self.accounting = BandwidthAccounting()
        self.topology = corpnet_like(self.streams.get("topology"))
        self.transport = Transport(
            self.sim,
            self.topology,
            accounting=self.accounting,
            observer=observer,
        )
        self.overlay = OverlayNetwork(
            self.sim,
            self.transport,
            config=self.config.overlay,
            rng=self.streams.get("overlay"),
            observer=observer,
        )

        count = num_endsystems if num_endsystems is not None else len(trace)
        self.num_endsystems = count
        id_rng = (
            np.random.default_rng(id_seed)
            if id_seed is not None
            else self.streams.get("ids")
        )
        ids = set()
        while len(ids) < count:
            ids.add(random_id(id_rng))
        self.node_ids: list[int] = sorted(ids)
        shuffle = self.streams.get("id-shuffle")
        shuffle.shuffle(self.node_ids)

        self.schedules: list[AvailabilitySchedule] = trace.assign(
            count, self.streams.get("trace-assign")
        )
        self.profiles = dataset.assign_profiles(count, self.streams.get("profiles"))
        self.dataset = dataset

        self.nodes: list[SeaweedNode] = []
        names = []
        for index in range(count):
            pastry = self.overlay.create_node(self.node_ids[index])
            database: LocalDatabase = dataset.database(int(self.profiles[index]))
            if private_databases:
                database = database.clone()
            node = SeaweedNode(
                pastry,
                database,
                self.config,
                self.streams.fork(f"node-{index}").get("seaweed"),
                observer=observer,
            )
            self.nodes.append(node)
            names.append(pastry.name)
        self.topology.attach_random(names, self.streams.get("attach"))
        self._by_id = {node.node_id: node for node in self.nodes}

        self.private_databases = private_databases
        #: The Anemone live feed, when the deployment has one (attached
        #: by ``Deployment(live_feed=True)``).
        self.live_feed: Optional["LiveAnemoneFeed"] = None
        #: Ground-truth conformance oracle (:mod:`repro.audit`); attached
        #: by :meth:`enable_audit`, ``None`` otherwise (zero-cost-off).
        self.auditor: Optional["GroundTruthOracle"] = None
        self._online_log: list[tuple[float, int]] = [(0.0, 0)]
        self._schedule_transitions(startup_stagger)
        self.overlay.start_heartbeats(self.accounting)

        self.fault_injector: Optional["FaultInjector"] = None
        if fault_plan is not None and len(fault_plan) > 0:
            # Imported lazily: repro.faults depends on repro.core.
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(self, fault_plan)

    def enable_audit(
        self, observer: Optional[Observer] = None
    ) -> "GroundTruthOracle":
        """Attach a ground-truth conformance oracle (:mod:`repro.audit`).

        The oracle observes the deployment through read-only hooks —
        query injections, local contributions, root results, and
        availability transitions — and never schedules events or draws
        randomness, so an audited run is event-for-event identical to an
        unaudited one.  Call before injecting the queries to audit;
        finish with :meth:`~repro.audit.oracle.GroundTruthOracle.
        finalize` to obtain the conformance report.
        """
        # Imported lazily: repro.audit depends on repro.core.
        from repro.audit.oracle import GroundTruthOracle

        oracle = GroundTruthOracle(
            self, observer=observer if observer is not None else self.obs
        )
        self.auditor = oracle
        for node in self.nodes:
            node.auditor = oracle
        return oracle

    # ------------------------------------------------------------------
    # Availability driving
    # ------------------------------------------------------------------

    def _schedule_transitions(self, startup_stagger: float) -> None:
        stagger_rng = self.streams.get("stagger")
        for index, schedule in enumerate(self.schedules):
            for time, goes_up in schedule.transitions():
                if time == 0.0 and goes_up and startup_stagger > 0:
                    time = float(stagger_rng.uniform(0.0, startup_stagger))
                self.sim.schedule_at(time, self._transition, index, goes_up)

    def _transition(self, index: int, goes_up: bool) -> None:
        node = self.nodes[index]
        if goes_up:
            if node.pastry.online:
                return
            bootstrap = self.overlay.pick_bootstrap(exclude=node.node_id)
            node.go_online(bootstrap)
        else:
            if not node.pastry.online:
                return
            node.go_offline()
        if self.auditor is not None:
            self.auditor.on_transition(self.sim.now, node.node_id, goes_up)
        self._online_log.append((self.sim.now, self.overlay.online_count))

    def force_transition(self, index: int, goes_up: bool) -> None:
        """Force an endsystem up or down, outside its availability trace.

        Used by fault injection (crash/restart bursts) and tests.  The
        same guards as trace-driven transitions apply — forcing an
        endsystem into the state it is already in is a no-op — and the
        online log stays correct.
        """
        self._transition(index, goes_up)

    def pretrain_availability(self, until: Optional[float] = None) -> None:
        """Bulk-train every node's availability model from its history.

        Stands in for the paper's multi-week warmup period without paying
        for packet-level simulation of it.
        """
        horizon = until if until is not None else self.schedules[0].horizon
        for node, schedule in zip(self.nodes, self.schedules):
            node.availability.learn_from_schedule(
                schedule.up_starts, schedule.up_ends, self.sim.clock, horizon
            )

    # ------------------------------------------------------------------
    # Running and querying
    # ------------------------------------------------------------------

    def run_until(self, time: float) -> None:
        """Advance the simulation to ``time``."""
        self.sim.run_until(time)

    def inject_query(
        self,
        sql: str,
        origin_index: Optional[int] = None,
        lifetime: float = DEFAULT_LIFETIME,
        bind_now: bool = True,
        continuous_period: Optional[float] = None,
    ) -> tuple[SeaweedNode, QueryDescriptor]:
        """Inject a query from an online endsystem.

        Returns the originating node and the query descriptor.  Pass
        ``continuous_period`` for a continuous query (§3.4 extension).
        """
        if origin_index is None:
            origin = self._random_online_node()
        else:
            origin = self.nodes[origin_index]
            if not origin.pastry.online:
                raise RuntimeError(f"endsystem {origin_index} is offline")
        descriptor = origin.inject_query(
            sql,
            now_binding=self.sim.now if bind_now else None,
            lifetime=lifetime,
            continuous_period=continuous_period,
        )
        return origin, descriptor

    def _random_online_node(self) -> SeaweedNode:
        online = self.overlay.online_ids
        if not online:
            raise RuntimeError("no endsystem is online")
        rng = self.streams.get("query-origin")
        node_id = online[int(rng.integers(0, len(online)))]
        return self._by_id[node_id]

    def status_of(self, descriptor: QueryDescriptor) -> Optional[QueryStatus]:
        """The freshest status for a query.

        Combines the current root's view (authoritative for the
        incremental result) with the originator's (which holds the
        predictor pushed at dissemination time): the returned status has
        the most-complete result of the two and a predictor whenever
        either view has one.  The merge is a copy: no node's status is
        written.
        """
        root_id = self.overlay.true_closest_online(descriptor.query_id)
        candidates = []
        if root_id is not None:
            candidates.append(self._by_id[root_id])
        origin = self._by_id.get(descriptor.origin)
        if origin is not None and origin not in candidates:
            candidates.append(origin)
        statuses = [
            status
            for node in candidates
            if (status := node.query_statuses.get(descriptor.query_id)) is not None
        ]
        if not statuses:
            return None
        best = max(statuses, key=lambda status: status.rows_processed)
        if best.predictor is None:
            for status in statuses:
                if status.predictor is not None:
                    return replace(
                        best,
                        predictor=status.predictor,
                        predictor_ready_at=status.predictor_ready_at,
                    )
        return best

    def cancel_query(self, descriptor: QueryDescriptor) -> None:
        """Explicitly cancel an active query from its originator."""
        origin = self._by_id.get(descriptor.origin)
        if origin is not None:
            origin.cancel_query(descriptor.query_id)

    def node_by_id(self, node_id: int) -> SeaweedNode:
        """Look up a node by overlay id."""
        return self._by_id[node_id]

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------

    @property
    def online_count(self) -> int:
        """Currently online endsystems."""
        return self.overlay.online_count

    def online_endsystem_seconds(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Integral of the online population over ``[start, end]``.

        This is the denominator for "bytes per second per online
        endsystem" — the unit of Figs. 9 and 10.
        """
        if end is None:
            end = self.sim.now
        total = 0.0
        log = self._online_log
        for position in range(len(log)):
            t0, count = log[position]
            t1 = log[position + 1][0] if position + 1 < len(log) else end
            lo = max(t0, start)
            hi = min(t1, end)
            if hi > lo:
                total += count * (hi - lo)
        return total

    def metrics_snapshot(self) -> dict:
        """One self-describing dict of everything the deployment measured.

        Always includes the simulator, transport, overlay, and bandwidth
        counters (they are maintained unconditionally, and read here from
        the components that keep them); the ``"metrics"`` and
        ``"profile"`` sections reflect the attached
        :class:`~repro.obs.observer.Observer` and are None without one.
        """
        obs = self.obs
        snapshot = {
            "sim": {
                "now": self.sim.now,
                "events_processed": self.sim.events_processed,
                "pending_events": self.sim.pending_events,
                "cancelled_events": self.sim.cancelled_events,
            },
            "transport": {
                "dropped_offline": self.transport.dropped_offline,
                "dropped_unregistered": self.transport.dropped_unregistered,
                "dropped_unknown_kind": self.transport.dropped_unknown_kind,
                "drops_by_reason": dict(self.transport.drops_by_reason),
            },
            "overlay": {
                "routing_drops": self.overlay.routing_drops,
                "reroutes": self.overlay.reroutes,
                "online": self.overlay.online_count,
            },
            "bandwidth": {
                "total_tx": self.accounting.total_tx,
                "total_rx": self.accounting.total_rx,
                "messages": self.accounting.messages,
                "tx_by_category": self.accounting.totals_by_category("tx"),
            },
            "metrics": obs.metrics.snapshot() if obs is not None else None,
            "profile": (
                obs.profiler.snapshot()
                if obs is not None and obs.profiler is not None
                else None
            ),
        }
        return snapshot

    def ground_truth_rows(self, sql: str, now_binding: Optional[float] = None) -> int:
        """Total relevant rows across ALL endsystems (oracle, for tests)."""
        from repro.db.sql import parse

        parsed = parse(sql, now=now_binding)
        return sum(node.database.relevant_row_count(parsed) for node in self.nodes)
