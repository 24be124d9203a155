"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

The injector turns declared fault events into live machinery on a
:class:`~repro.core.system.SeaweedSystem`:

* window-scoped **interceptors** on the transport chain for message
  loss, duplication, and slow-node delay;
* scheduled **link-state mutations** on the topology for partitions and
  latency inflation (plus one shared interceptor that drops messages
  crossing an active cut with reason ``"partition"``);
* scheduled **forced transitions** for crash/restart bursts, layered on
  top of the availability trace through the system's own transition
  guards (a node already down stays down; the online log stays correct).

Every stochastic choice draws from a stream named after the event's
index in the plan (derived from the system's master seed via
``streams.fork("faults")``), so two runs with the same ``(master_seed,
plan)`` make identical choices — and because the fault streams are new
names in the namespaced :class:`~repro.sim.randomness.RandomStreams`,
attaching an empty plan perturbs nothing: the run is bit-identical to a
fault-free run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.faults.plan import (
    CrashBurst,
    Duplication,
    FaultPlan,
    LatencyInflation,
    LinkPartition,
    MessageLoss,
    SlowNode,
)
from repro.net.transport import Decision
from repro.net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SeaweedSystem

#: Drop reasons introduced by injected faults.
DROP_PARTITION = "partition"
DROP_FAULT_LOSS = "fault_loss"

_DECISION_PARTITION = Decision(drop_reason=DROP_PARTITION)
_DECISION_FAULT_LOSS = Decision(drop_reason=DROP_FAULT_LOSS)


def _kind_matches(message, kinds: set[str]) -> bool:
    """Whether ``message`` is of one of ``kinds``: its transport kind, or
    the application kind of the message a route envelope carries."""
    if message.kind in kinds:
        return True
    app_kind = getattr(message.payload, "app_kind", None)
    return app_kind is not None and app_kind in kinds


class WindowLossInterceptor:
    """Per-window, optionally filtered message loss."""

    def __init__(
        self, event: MessageLoss, rng: np.random.Generator, topology: Topology
    ) -> None:
        self._event = event
        self._rng = rng
        self._topology = topology
        self._kinds = set(event.kinds) if event.kinds else None
        self._routers = set(event.routers) if event.routers else None

    def intercept(self, now, src, dst, message) -> Optional[Decision]:
        event = self._event
        if not event.start <= now < event.end:
            return None
        if self._kinds is not None and not _kind_matches(message, self._kinds):
            return None
        if self._routers is not None:
            if (
                self._topology.router_of(src) not in self._routers
                and self._topology.router_of(dst) not in self._routers
            ):
                return None
        if self._rng.random() < event.rate:
            return _DECISION_FAULT_LOSS
        return None


class DuplicationInterceptor:
    """Per-window message duplication."""

    def __init__(self, event: Duplication, rng: np.random.Generator) -> None:
        self._event = event
        self._rng = rng
        self._kinds = set(event.kinds) if event.kinds else None
        self._decision = Decision(
            duplicates=event.copies, duplicate_delay=event.copy_delay
        )

    def intercept(self, now, src, dst, message) -> Optional[Decision]:
        event = self._event
        if not event.start <= now < event.end:
            return None
        if self._kinds is not None and not _kind_matches(message, self._kinds):
            return None
        if self._rng.random() < event.rate:
            return self._decision
        return None


class SlowNodeInterceptor:
    """Extra delay for all traffic touching the selected endsystems."""

    def __init__(self, event: SlowNode, names: frozenset[str]) -> None:
        self._event = event
        self._names = names
        self._decision = Decision(extra_delay=event.extra_delay)

    @property
    def slow_names(self) -> frozenset[str]:
        """The affected endsystem names (introspection/tests)."""
        return self._names

    def intercept(self, now, src, dst, message) -> Optional[Decision]:
        event = self._event
        if not event.start <= now < event.end:
            return None
        if src in self._names or dst in self._names:
            return self._decision
        return None


class PartitionInterceptor:
    """Drops messages that an active topology cut separates."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    def intercept(self, now, src, dst, message) -> Optional[Decision]:
        if self._topology.is_blocked(src, dst):
            return _DECISION_PARTITION
        return None


class FaultInjector:
    """Installs a fault plan on a live :class:`SeaweedSystem`."""

    def __init__(self, system: "SeaweedSystem", plan: FaultPlan) -> None:
        self.system = system
        self.plan = plan
        self._streams = system.streams.fork("faults")
        self._obs = system.obs
        #: Count of fault activations (windows opened, bursts fired).
        self.injected_count = 0
        self._partition_interceptor: Optional[PartitionInterceptor] = None
        for index, event in enumerate(plan.events):
            self._install(index, event)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _event_rng(self, index: int) -> np.random.Generator:
        return self._streams.get(f"event-{index}")

    def _install(self, index: int, event) -> None:
        sim = self.system.sim
        if isinstance(event, MessageLoss):
            self.system.transport.add_interceptor(
                WindowLossInterceptor(
                    event, self._event_rng(index), self.system.topology
                )
            )
            sim.schedule_at(event.start, self._note, event.kind, event.start)
        elif isinstance(event, Duplication):
            self.system.transport.add_interceptor(
                DuplicationInterceptor(event, self._event_rng(index))
            )
            sim.schedule_at(event.start, self._note, event.kind, event.start)
        elif isinstance(event, SlowNode):
            sim.schedule_at(event.start, self._start_slow_node, index, event)
        elif isinstance(event, LinkPartition):
            if self._partition_interceptor is None:
                self._partition_interceptor = PartitionInterceptor(
                    self.system.topology
                )
                self.system.transport.add_interceptor(self._partition_interceptor)
            sim.schedule_at(event.start, self._start_partition, event)
        elif isinstance(event, LatencyInflation):
            sim.schedule_at(event.start, self._start_inflation, event)
        elif isinstance(event, CrashBurst):
            sim.schedule_at(event.at, self._fire_crash_burst, index, event)
        else:
            raise ValueError(f"unsupported fault event {event!r}")

    # ------------------------------------------------------------------
    # Scheduled activations
    # ------------------------------------------------------------------

    def _note(self, kind: str, detail) -> None:
        self.injected_count += 1
        if self._obs is not None:
            self._obs.fault_injected(self.system.sim.now, kind, str(detail))

    def _start_slow_node(self, index: int, event: SlowNode) -> None:
        names = set()
        nodes = self.system.nodes
        for position in event.endsystems:
            names.add(nodes[position].pastry.name)
        if event.fraction > 0:
            rng = self._event_rng(index)
            count = max(1, int(round(event.fraction * len(nodes))))
            chosen = rng.choice(len(nodes), size=min(count, len(nodes)), replace=False)
            for position in chosen:
                names.add(nodes[int(position)].pastry.name)
        self.system.transport.add_interceptor(
            SlowNodeInterceptor(event, frozenset(names))
        )
        self._note(event.kind, f"{len(names)} endsystems +{event.extra_delay}s")

    def _start_partition(self, event: LinkPartition) -> None:
        topology = self.system.topology
        routers_a = list(event.routers_a)
        routers_b = list(event.routers_b)
        if event.regions_a:
            routers_a.extend(topology.routers_in_regions(event.regions_a))
        if event.regions_b:
            routers_b.extend(topology.routers_in_regions(event.regions_b))
        token = topology.partition(routers_a, routers_b)
        self.system.sim.schedule_at(event.heal_at, self._heal_partition, token)
        self._note(event.kind, f"{len(routers_a)}|{len(routers_b)} routers")

    def _heal_partition(self, token: int) -> None:
        self.system.topology.heal(token)
        self._note("partition_heal", token)

    def _start_inflation(self, event: LatencyInflation) -> None:
        topology = self.system.topology
        token = topology.inflate_latency(
            event.factor, event.routers if event.routers else None
        )
        self.system.sim.schedule_at(event.end, self._end_inflation, token)
        self._note(event.kind, f"x{event.factor}")

    def _end_inflation(self, token: int) -> None:
        self.system.topology.restore_latency(token)

    def _fire_crash_burst(self, index: int, event: CrashBurst) -> None:
        system = self.system
        rng = self._event_rng(index)
        online = [
            position
            for position, node in enumerate(system.nodes)
            if node.pastry.online
        ]
        if not online:
            return
        count = max(1, int(round(event.fraction * len(online))))
        chosen = rng.choice(len(online), size=min(count, len(online)), replace=False)
        for slot in sorted(int(position) for position in chosen):
            victim = online[slot]
            system.force_transition(victim, goes_up=False)
            restart = event.down_for
            if event.restart_jitter > 0:
                restart += float(rng.uniform(0.0, event.restart_jitter))
            system.sim.schedule(
                restart, system.force_transition, victim, True
            )
        self._note(event.kind, f"{len(chosen)} endsystems down {event.down_for}s")
