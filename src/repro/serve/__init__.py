"""repro.serve — the live service mode.

Runs the same SeaweedNode/PastryNode code that the simulator drives,
but against real time and real TCP sockets.  The protocol stack is one
implementation; this package is the second of its two thin drivers:

* :mod:`repro.serve.scheduler` — :class:`AsyncioScheduler`, the
  :class:`~repro.sim.simulator.Scheduler` protocol over an event loop;
* :mod:`repro.serve.transport` — :class:`AsyncioTransport`, a
  :class:`~repro.net.transport.Transport` whose ``carry`` writes frames
  to pooled TCP connections (per-peer write queues, reconnect with
  capped backoff) instead of scheduling a simulated delivery;
* :mod:`repro.serve.overlay` — :class:`LiveOverlay`, the per-process
  :class:`~repro.overlay.network.OverlayServices` with a probe-based
  failure detector (the sim's omniscient ``OverlayNetwork`` cannot
  exist across processes);
* :mod:`repro.serve.cluster` — cluster planning: which process hosts
  which node ids, listen addresses, deterministic dataset assignment;
* :mod:`repro.serve.host` — the per-process runtime behind
  ``python -m repro serve``;
* :mod:`repro.serve.service` — the client-facing SQL front-end,
  streaming incremental results with completeness predictions;
* :mod:`repro.serve.client` — programmatic access to a running cluster;
* :mod:`repro.serve.launcher` — spawn/stop a local cluster of real
  processes (the ``serve-smoke`` harness).
"""

from repro.serve.client import ServeClient, ServeError, run_query
from repro.serve.cluster import ClusterSpec, HostSpec, plan_cluster
from repro.serve.host import NodeHost, build_config
from repro.serve.launcher import ClusterError, LocalCluster
from repro.serve.overlay import BootstrapRef, LiveOverlay
from repro.serve.scheduler import AsyncioScheduler
from repro.serve.transport import AsyncioTransport

__all__ = [
    "AsyncioScheduler",
    "AsyncioTransport",
    "BootstrapRef",
    "ClusterError",
    "ClusterSpec",
    "HostSpec",
    "LiveOverlay",
    "LocalCluster",
    "NodeHost",
    "ServeClient",
    "ServeError",
    "build_config",
    "plan_cluster",
    "run_query",
]
