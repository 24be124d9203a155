"""Overlay services: membership, failure detection, heartbeat accounting.

:class:`OverlayServices` is what a :class:`PastryNode` is built against:
the scheduler, the transport, the config, the shared counters, and two
things only its surroundings can supply — a bootstrap to join through
and word that a neighbour died.  :class:`OverlayNetwork` is the
simulator's omniscient variant: it holds every node, runs the leafset
failure detector off a reverse index, and accounts heartbeat bandwidth.
:class:`repro.serve.overlay.LiveOverlay` is the per-process variant.

Two engineering deviations from a per-message implementation, both
documented in DESIGN.md, keep the Python event count tractable at the
scales we simulate:

* **Batched heartbeat accounting.**  MSPastry sends leafset heartbeats
  every 30 s.  Simulating each as a message event would dominate the event
  budget, so a single periodic sweep accounts the identical number of
  bytes per node (one heartbeat to each leafset member per period, both
  directions) without creating per-message events.
* **Detector-driven failure notification.**  When a node fails, every node
  whose leafset contains it would notice a missed heartbeat within one
  period.  We model exactly that: a reverse index records who lists whom;
  on failure, the affected nodes receive ``on_neighbour_failed`` after the
  heartbeat period (plus jitter), and then run the real message-based
  leafset repair protocol.

Routing, join, repair and all application traffic remain real messages
through the simulated network.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.stats import CATEGORY_OVERLAY, BandwidthAccounting
from repro.net.transport import Transport
from repro.obs.observer import Observer
from repro.overlay.ids import ring_distance
from repro.overlay.node import PastryNode
from repro.proto import codec
from repro.sim.simulator import Scheduler

#: Extra delay after a missed heartbeat before a neighbour is declared dead.
DETECTION_GRACE = 5.0


@dataclass
class OverlayConfig:
    """Overlay parameters (paper defaults: b=4, l=8, 30 s heartbeats)."""

    b: int = 4
    leafset_size: int = 8
    heartbeat_period: float = 30.0
    #: Period of the leafset stabilization exchange (state piggybacked on
    #: heartbeats in MSPastry; an explicit message exchange here, at twice
    #: the heartbeat period).
    stabilize_period: float = 60.0


class OverlayServices:
    """What every Pastry node in one process is built against."""

    def __init__(
        self,
        scheduler: Scheduler,
        transport: Transport,
        config: Optional[OverlayConfig] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.transport = transport
        self.config = config if config is not None else OverlayConfig()
        #: The nodes created here (all of them, or this process's share).
        self.nodes: dict[int, PastryNode] = {}
        self.routing_drops = 0
        self.reroutes = 0
        #: Shared by all PastryNodes, which guard on ``is not None``.
        self.observer = observer

    def create_node(self, node_id: int) -> PastryNode:
        """Instantiate a node (offline until :meth:`PastryNode.go_online`)."""
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id:032x}")
        node = PastryNode(node_id, self)
        self.nodes[node_id] = node
        return node

    def pick_bootstrap(self, exclude: int) -> Optional[PastryNode]:
        """A node (or a stand-in with its ``node_id`` and ``name``) to join through."""
        raise NotImplementedError

    # Called by the nodes themselves.  Defaults are no-ops: a variant
    # that learns of failures from traffic has nothing to maintain.

    def on_node_online(self, node: PastryNode) -> None:
        """``node`` came up."""

    def on_node_offline(self, node: PastryNode) -> None:
        """``node`` went down."""

    def on_leafset_change(self, node: PastryNode) -> None:
        """``node``'s leafset membership changed."""


class OverlayNetwork(OverlayServices):
    """The omniscient variant: every node of one simulation."""

    def __init__(
        self,
        scheduler: Scheduler,
        transport: Transport,
        config: Optional[OverlayConfig] = None,
        rng: Optional[np.random.Generator] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        super().__init__(scheduler, transport, config, observer)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._online_ids: list[int] = []  # sorted, for bootstrap + ground truth
        # Reverse leafset index: {node_id: set of nodes listing it}.
        self._listed_by: dict[int, set[int]] = {}
        self._heartbeat_timer = None

    def pick_bootstrap(self, exclude: int) -> Optional[PastryNode]:
        """A random joined node to bootstrap a join (well-known-host model).

        Only a joined node can answer a join (an unjoined one ignores
        it), so only joined nodes are offered.
        """
        if not self._online_ids:
            return None
        candidates = self._online_ids
        nodes = self.nodes
        for _ in range(8):
            choice = candidates[int(self._rng.integers(0, len(candidates)))]
            if choice != exclude and nodes[choice].joined:
                return nodes[choice]
        for node_id in candidates:
            if node_id != exclude and nodes[node_id].joined:
                return nodes[node_id]
        return None

    def on_node_online(self, node: PastryNode) -> None:
        """Bookkeeping when a node comes up (called by the node itself)."""
        position = bisect.bisect_left(self._online_ids, node.node_id)
        if position >= len(self._online_ids) or self._online_ids[position] != node.node_id:
            self._online_ids.insert(position, node.node_id)

    def on_node_offline(self, node: PastryNode) -> None:
        """Bookkeeping + failure detection when a node goes down."""
        position = bisect.bisect_left(self._online_ids, node.node_id)
        if position < len(self._online_ids) and self._online_ids[position] == node.node_id:
            self._online_ids.pop(position)
        watchers = self._listed_by.pop(node.node_id, set())
        delay = self.config.heartbeat_period + DETECTION_GRACE
        for watcher_id in watchers:
            self.scheduler.schedule(
                delay + float(self._rng.uniform(0.0, 1.0)),
                self._notify_failure,
                watcher_id,
                node.node_id,
            )

    def _notify_failure(self, watcher_id: int, dead_id: int) -> None:
        if dead_id in self._online_ids_set():
            return  # came back before detection; heartbeats resumed
        watcher = self.nodes.get(watcher_id)
        if watcher is not None and watcher.online:
            watcher.on_neighbour_failed(dead_id)

    def _online_ids_set(self) -> "_SortedView":
        # Membership checks are rare (only on failure notification), so a
        # bisect-backed view avoids maintaining a shadow set.
        return _SortedView(self._online_ids)

    def on_leafset_change(self, node: PastryNode) -> None:
        """Maintain the reverse leafset index (the failure detector's view)."""
        for member in node.leafset.members:
            self._listed_by.setdefault(member, set()).add(node.node_id)

    # ------------------------------------------------------------------
    # Heartbeat service
    # ------------------------------------------------------------------

    def start_heartbeats(self, accounting: Optional[BandwidthAccounting]) -> None:
        """Begin the periodic heartbeat bandwidth sweep."""
        if self._heartbeat_timer is not None:
            return

        def sweep() -> None:
            if accounting is None:
                return
            now = self.scheduler.now
            for node_id in self._online_ids:
                node = self.nodes[node_id]
                neighbours = len(node.leafset)
                size = neighbours * (codec.HEARTBEAT + codec.HEADER)
                accounting.record_local(now, node.name, size, size, CATEGORY_OVERLAY)

        self._heartbeat_timer = self.scheduler.schedule_periodic(
            self.config.heartbeat_period, sweep
        )

    def stop_heartbeats(self) -> None:
        """Stop the heartbeat sweep (end of simulation)."""
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    # ------------------------------------------------------------------
    # Ground truth (tests and oracle checks only — not used by protocols)
    # ------------------------------------------------------------------

    @property
    def online_count(self) -> int:
        """Number of currently online nodes."""
        return len(self._online_ids)

    @property
    def online_ids(self) -> list[int]:
        """Sorted ids of online nodes (copy)."""
        return list(self._online_ids)

    def true_closest_online(self, key: int) -> Optional[int]:
        """The actually-closest online node to ``key`` (oracle, for tests)."""
        if not self._online_ids:
            return None
        position = bisect.bisect_left(self._online_ids, key)
        candidates = []
        for offset in (position - 1, position, position + 1):
            candidates.append(self._online_ids[offset % len(self._online_ids)])
        return min(candidates, key=lambda c: (ring_distance(c, key), c))

    def misplaced_successors(self) -> list[int]:
        """Online nodes whose clockwise neighbour is not the true next
        online id: empty exactly when the online nodes form one ring
        (oracle, for tests)."""
        ids = self._online_ids
        if len(ids) < 2:
            return []
        return [
            node_id
            for position, node_id in enumerate(ids)
            if self.nodes[node_id].leafset.neighbour_cw()
            != ids[(position + 1) % len(ids)]
        ]


class _SortedView:
    """Set-like membership view over a sorted list (no copying)."""

    def __init__(self, sorted_ids: list[int]) -> None:
        self._ids = sorted_ids

    def __contains__(self, value: int) -> bool:
        position = bisect.bisect_left(self._ids, value)
        return position < len(self._ids) and self._ids[position] == value
