"""The per-process node runtime behind ``python -m repro serve``.

A :class:`NodeHost` owns everything one OS process contributes to a
live cluster: the asyncio scheduler, the TCP transport, a
:class:`~repro.serve.overlay.LiveOverlay`, and one
:class:`~repro.core.node.SeaweedNode` per hosted id — the *same* node
code the simulator drives.  Optionally it also runs the client-facing
:class:`~repro.serve.service.QueryService` and a periodic metrics
snapshot writer (``--metrics-out``).
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Optional

import numpy as np

from repro.core.config import SeaweedConfig
from repro.core.node import SeaweedNode
from repro.obs.observer import Observer
from repro.serve.cluster import ClusterSpec, HostSpec
from repro.serve.overlay import BootstrapRef, LiveOverlay
from repro.serve.scheduler import AsyncioScheduler
from repro.serve.transport import AsyncioTransport

log = logging.getLogger("repro.serve.host")

#: Stagger between successive local go_online calls (seconds): joins
#: through a just-joined co-hosted node find a settled leafset.
ONLINE_STAGGER = 0.25

#: Period of the ``--metrics-out`` snapshot writer (wall seconds).
METRICS_PERIOD = 2.0


def build_config(overrides: Optional[dict] = None) -> SeaweedConfig:
    """A SeaweedConfig with flat field overrides applied.

    Keys name SeaweedConfig fields; ``overlay.<field>`` keys reach the
    nested OverlayConfig.  Unknown keys raise (a typo in a cluster spec
    must not silently run with defaults).
    """
    config = SeaweedConfig()
    for key, value in (overrides or {}).items():
        target, name = config, key
        if key.startswith("overlay."):
            target, name = config.overlay, key[len("overlay."):]
        if not hasattr(target, name):
            raise ValueError(f"unknown config override {key!r}")
        setattr(target, name, value)
    config.__post_init__()  # re-validate the overridden values
    return config


class NodeHost:
    """One process's share of a live cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        index: int,
        metrics_out: Optional[str] = None,
    ) -> None:
        if not 0 <= index < len(spec.hosts):
            raise ValueError(f"host index {index} not in spec")
        self.spec = spec
        self.index = index
        self.host_spec: HostSpec = spec.hosts[index]
        self.metrics_out = metrics_out
        self.config = build_config(spec.config_overrides)
        self.observer = Observer()
        self.metrics = self.observer.metrics
        # Built in start() — they need the running loop.
        self.scheduler: Optional[AsyncioScheduler] = None
        self.transport: Optional[AsyncioTransport] = None
        self.overlay: Optional[LiveOverlay] = None
        self.service = None
        self.nodes: dict[int, SeaweedNode] = {}
        self._metrics_timer = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets, build nodes, and begin joining the overlay."""
        spec, hs = self.spec, self.host_spec
        self.scheduler = AsyncioScheduler(time_scale=spec.time_scale)
        self.transport = AsyncioTransport(
            self.scheduler,
            spec.directory(),
            listen_host=hs.host,
            listen_port=hs.port,
            observer=self.observer,
        )
        await self.transport.start()
        self.overlay = LiveOverlay(
            self.scheduler,
            self.transport,
            config=self.config.overlay,
            bootstrap=BootstrapRef.of(spec.bootstrap_id()),
            observer=self.observer,
        )
        dataset = spec.make_dataset()
        for offset, (node_id, profile) in enumerate(
            zip(hs.node_ids, hs.profiles)
        ):
            pastry = self.overlay.create_node(node_id)
            node = SeaweedNode(
                pastry,
                dataset.database(profile),
                self.config,
                np.random.default_rng(
                    spec.seed + 5000 + self.index * len(hs.node_ids) + offset
                ),
                observer=self.observer,
            )
            self.nodes[node_id] = node
            self.scheduler.schedule(ONLINE_STAGGER * offset, self._go_online, node)
        self.overlay.start_failure_detector()
        if self.metrics_out:
            self._metrics_timer = self.scheduler.schedule_periodic(
                METRICS_PERIOD * spec.time_scale, self._write_metrics
            )
        if hs.client_port:
            from repro.serve.service import QueryService

            self.service = QueryService(self, hs.host, hs.client_port)
            await self.service.start()
        log.info(
            "host %d up: %d node(s) on %s:%d, service port %d",
            self.index, len(self.nodes), hs.host,
            self.transport.listen_port, hs.client_port,
        )

    def _go_online(self, node: SeaweedNode) -> None:
        assert self.overlay is not None
        node.go_online(self.overlay.pick_bootstrap(node.node_id))

    def any_online_node(self) -> Optional[SeaweedNode]:
        """A locally hosted node that has joined, if any (service entry)."""
        for node in self.nodes.values():
            if node.pastry.joined:
                return node
        return None

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: service, nodes, detector, transport, metrics."""
        if self.service is not None:
            await self.service.stop()
            self.service = None
        for node in self.nodes.values():
            if node.pastry.online:
                node.go_offline()
        if self.overlay is not None:
            self.overlay.stop_failure_detector()
        if self._metrics_timer is not None:
            self._metrics_timer.cancel()
            self._metrics_timer = None
        if self.transport is not None:
            await self.transport.drain_and_close(timeout=drain_timeout)
        self._write_metrics()
        self._stopped.set()

    async def run_forever(self) -> None:
        """Serve until :meth:`request_stop` (or a signal handler) fires."""
        await self._stopped.wait()

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger: schedules :meth:`stop`."""
        if not self._stopped.is_set():
            asyncio.get_event_loop().create_task(self.stop())

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _write_metrics(self) -> None:
        """Write the registry to ``--metrics-out``, first setting the
        gauges whose numbers the transport and overlay keep themselves."""
        if not self.metrics_out or self.overlay is None:
            return  # not asked for, or start() never got as far
        transport, overlay, metrics = self.transport, self.overlay, self.metrics
        assert transport is not None
        metrics.gauge("serve.connections").set(transport.connection_count)
        metrics.gauge("serve.write_queue_depth").set(transport.write_queue_depth)
        for reason, count in transport.drops_by_reason.items():
            metrics.gauge("transport.dropped_total", reason=reason).set(count)
        metrics.gauge("overlay.reroutes_total").set(overlay.reroutes)
        metrics.gauge("overlay.routing_drops_total").set(overlay.routing_drops)
        try:
            metrics.write_jsonl(self.metrics_out)
        except OSError:
            log.exception("cannot write metrics to %s", self.metrics_out)


async def serve_host(
    spec: ClusterSpec, index: int, metrics_out: Optional[str] = None
) -> None:
    """Run one host process until SIGTERM/SIGINT (the CLI entry)."""
    host = NodeHost(spec, index, metrics_out=metrics_out)
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, host.request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await host.start()
    await host.run_forever()
