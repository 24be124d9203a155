"""Per-process overlay services for live mode.

The simulator's :class:`~repro.overlay.network.OverlayNetwork` is
omniscient: it holds every node, picks bootstraps from a global online
list, and *schedules* failure notifications when a node goes down.
None of that exists across OS processes.  :class:`LiveOverlay` is the
other :class:`~repro.overlay.network.OverlayServices` variant, for the
nodes hosted in one process, with the global services replaced by local
mechanisms:

* **bootstrap** — a configured :class:`BootstrapRef` (the well-known
  host), or any already-online local node;
* **failure detection** — probe-based: the transport reports the last
  time each remote peer was heard from, a periodic sweep declares
  leafset members silent for too long (:meth:`LiveOverlay._sweep`)
  dead, and the node-level repair logic (which is transport-agnostic)
  does the rest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.overlay.ids import id_to_hex
from repro.overlay.network import DETECTION_GRACE, OverlayConfig, OverlayServices
from repro.serve.scheduler import AsyncioScheduler
from repro.serve.transport import AsyncioTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer


class BootstrapRef(NamedTuple):
    """A remote bootstrap target: just enough of a node to join through.

    ``PastryNode._send_join`` only reads ``node_id`` and ``name`` from
    its bootstrap, so a ref duck-types a live remote node.
    """

    node_id: int
    name: str

    @classmethod
    def of(cls, node_id: int) -> "BootstrapRef":
        return cls(node_id=node_id, name=id_to_hex(node_id))


class LiveOverlay(OverlayServices):
    """The overlay services for the nodes hosted in one process."""

    def __init__(
        self,
        scheduler: AsyncioScheduler,
        transport: AsyncioTransport,
        config: Optional[OverlayConfig] = None,
        bootstrap: Optional[BootstrapRef] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        super().__init__(scheduler, transport, config, observer)
        self.bootstrap = bootstrap
        #: Last time each remote peer (by name) was heard from.
        self._last_heard: dict[str, float] = {}
        #: Remote node ids declared dead (cleared when heard from again).
        self._declared_dead: set[int] = set()
        self._detector_timer = None
        # The transport feeds the failure detector's evidence stream.
        transport.on_peer_activity = self.note_peer_activity

    def pick_bootstrap(self, exclude: int):
        """A joined local node, else the configured remote bootstrap.

        A local node that is online but not yet joined would ignore the
        join, so it is never offered.
        """
        for node_id, node in self.nodes.items():
            if node.joined and node_id != exclude:
                return node
        if self.bootstrap is not None and self.bootstrap.node_id != exclude:
            return self.bootstrap
        return None

    # ------------------------------------------------------------------
    # Probe-based failure detection
    # ------------------------------------------------------------------

    def note_peer_activity(self, src: str, now: float) -> None:
        """Transport callback: a message from ``src`` arrived at ``now``."""
        self._last_heard[src] = now
        if self._declared_dead:
            try:
                node_id = int(src, 16)
            except ValueError:
                return
            self._declared_dead.discard(node_id)

    def last_heard(self, name: str) -> Optional[float]:
        """When ``name`` was last heard from (protocol time), if ever."""
        return self._last_heard.get(name)

    def start_failure_detector(self) -> None:
        """Begin the periodic silent-peer sweep."""
        if self._detector_timer is not None:
            return
        self._detector_timer = self.scheduler.schedule_periodic(
            self.config.heartbeat_period, self._sweep
        )

    def stop_failure_detector(self) -> None:
        if self._detector_timer is not None:
            self._detector_timer.cancel()
            self._detector_timer = None

    def _sweep(self) -> None:
        """Declare remote leafset members silent for too long dead.

        A member is suspect only once heard from at least once (joins in
        progress are not "failures"), and each death is reported to each
        watching local node once until the peer speaks again.
        """
        now = self.scheduler.now
        # Live probes ride the stabilization exchange, so a healthy peer
        # may legitimately stay silent for a full stabilize period; give
        # it two before declaring death (plus the detection grace).
        deadline = (
            2 * max(self.config.heartbeat_period, self.config.stabilize_period)
            + DETECTION_GRACE
        )
        local = set(self.nodes)
        for node in list(self.nodes.values()):
            if not node.online:
                continue
            for member in list(node.leafset.members):
                if member in local or member in self._declared_dead:
                    continue
                heard = self._last_heard.get(id_to_hex(member))
                if heard is None:
                    continue
                if now - heard > deadline:
                    self._declared_dead.add(member)
                    for watcher in self.nodes.values():
                        if watcher.online and member in watcher.leafset.members:
                            watcher.on_neighbour_failed(member)
                    break
