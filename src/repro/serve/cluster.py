"""Cluster planning for live mode.

A :class:`ClusterSpec` is the single JSON document every host process
reads: which node ids each process hosts, where every process listens,
the dataset seed, and the config overrides.  Everything derived from it
is deterministic — two processes (or a test asserting ground truth)
reading the same spec reconstruct the same node ids and the same
per-node databases.
"""

from __future__ import annotations

import json
import random
import socket
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.overlay.ids import id_to_hex, random_id

#: Profile pool size for live clusters (kept small: each host process
#: regenerates the full pool at startup).
DEFAULT_PROFILES = 8


@dataclass
class HostSpec:
    """One OS process: its listen addresses and the nodes it hosts."""

    index: int
    host: str
    port: int
    #: Client-facing query service port (0 = no service on this host).
    client_port: int
    node_ids: list[int]
    #: Dataset profile index per hosted node (parallel to ``node_ids``).
    profiles: list[int]


@dataclass
class ClusterSpec:
    """The full deterministic description of a live cluster."""

    hosts: list[HostSpec]
    #: Seed for node ids, profile generation, and profile assignment.
    seed: int = 0
    #: Profile pool size for the shared AnemoneDataset.
    num_profiles: int = DEFAULT_PROFILES
    #: SeaweedConfig field overrides applied by every host (flat fields
    #: only; ``overlay.<field>`` keys reach the OverlayConfig).
    config_overrides: dict = field(default_factory=dict)
    #: Protocol-time compression factor for the schedulers.
    time_scale: float = 1.0

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def directory(self) -> dict[str, tuple[str, int]]:
        """node name -> (host, port) of the hosting process."""
        table: dict[str, tuple[str, int]] = {}
        for host in self.hosts:
            for node_id in host.node_ids:
                table[id_to_hex(node_id)] = (host.host, host.port)
        return table

    def all_node_ids(self) -> list[int]:
        """Every node id, in host order."""
        return [node_id for host in self.hosts for node_id in host.node_ids]

    def bootstrap_id(self) -> int:
        """The well-known bootstrap node: the first node of host 0."""
        return self.hosts[0].node_ids[0]

    def make_dataset(self):
        """The shared profile pool (deterministic from the seed)."""
        from repro.workload.anemone import AnemoneDataset

        return AnemoneDataset(
            num_profiles=self.num_profiles,
            rng=np.random.default_rng(self.seed + 1),
        )

    def ground_truth(self, sql: str, now: Optional[float] = None):
        """The exact full-population answer for ``sql``.

        Runs the query against every node's database and merges — what a
        complete (completeness 1.0) live run must converge to.
        """
        dataset = self.make_dataset()
        merged = None
        for host in self.hosts:
            for profile in host.profiles:
                result = dataset.database(profile).execute_sql(sql, now=now)
                merged = result if merged is None else merged.merge(result)
        return merged

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "num_profiles": self.num_profiles,
                "config_overrides": self.config_overrides,
                "time_scale": self.time_scale,
                "hosts": [
                    {
                        "index": h.index,
                        "host": h.host,
                        "port": h.port,
                        "client_port": h.client_port,
                        "node_ids": [id_to_hex(n) for n in h.node_ids],
                        "profiles": h.profiles,
                    }
                    for h in self.hosts
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        data = json.loads(text)
        hosts = [
            HostSpec(
                index=h["index"],
                host=h["host"],
                port=h["port"],
                client_port=h["client_port"],
                node_ids=[int(n, 16) for n in h["node_ids"]],
                profiles=list(h["profiles"]),
            )
            for h in data["hosts"]
        ]
        return cls(
            hosts=hosts,
            seed=data["seed"],
            num_profiles=data["num_profiles"],
            config_overrides=data.get("config_overrides", {}),
            time_scale=data.get("time_scale", 1.0),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ClusterSpec":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (racy by nature; fine for local demos)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


#: Where Linux states the range it draws ephemeral ports from: for every
#: outbound connect and every ``bind(..., 0)``, ``free_port`` included.
EPHEMERAL_RANGE_FILE = "/proc/sys/net/ipv4/ip_local_port_range"
#: The lowest port :func:`plan_cluster` hands out below that range.
LOWEST_PLANNED_PORT = 10000


def _plan_ports(host: str, count: int) -> list[int]:
    """``count`` distinct ports that are free on ``host`` right now.

    A port from the ephemeral range can be handed to any other socket
    before the host process binds it, so where the range is known the
    ports are drawn at random from below it, each checked by a bind.
    """
    try:
        with open(EPHEMERAL_RANGE_FILE, encoding="ascii") as handle:
            low = int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        low = 0
    if low <= LOWEST_PLANNED_PORT:
        return [free_port(host) for _ in range(count)]
    candidates = list(range(LOWEST_PLANNED_PORT, low))
    random.shuffle(candidates)  # unseeded: concurrent plans should differ
    ports: list[int] = []
    for port in candidates:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            try:
                sock.bind((host, port))
            except OSError:
                continue
        ports.append(port)
        if len(ports) == count:
            return ports
    raise RuntimeError(f"fewer than {count} free ports below {low} on {host}")


#: Demo-friendly protocol timing: the sim defaults were tuned for
#: simulated days, a live demo wants answers in seconds.
DEMO_OVERRIDES = {
    "vertex_forward_delay": 0.2,
    "predictor_reply_timeout": 3.0,
    "predictor_heartbeat": 1.0,
    "predictor_retry_interval": 4.0,
    "result_retransmit": 3.0,
    "result_refresh_period": 10.0,
    "summary_push_period": 30.0,
    "overlay.stabilize_period": 15.0,
    "overlay.heartbeat_period": 10.0,
}


def plan_cluster(
    num_hosts: int,
    nodes_per_host: int = 1,
    host: str = "127.0.0.1",
    seed: int = 0,
    num_profiles: int = DEFAULT_PROFILES,
    config_overrides: Optional[dict] = None,
    time_scale: float = 1.0,
    base_port: int = 0,
) -> ClusterSpec:
    """Lay out a local cluster: ids, profiles, ports.

    With ``base_port=0`` every port comes from :func:`_plan_ports`;
    otherwise ports are allocated sequentially from ``base_port``.
    """
    if num_hosts < 1 or nodes_per_host < 1:
        raise ValueError("need at least one host and one node per host")
    rng = np.random.default_rng(seed)
    total = num_hosts * nodes_per_host
    ids: set[int] = set()
    while len(ids) < total:
        ids.add(random_id(rng))
    node_ids = sorted(ids)
    rng.shuffle(node_ids)  # type: ignore[arg-type]
    profiles = [int(p) for p in rng.integers(0, num_profiles, size=total)]
    overrides = dict(DEMO_OVERRIDES)
    if config_overrides:
        overrides.update(config_overrides)
    if base_port:
        ports = list(range(base_port, base_port + 2 * num_hosts))
    else:
        ports = _plan_ports(host, 2 * num_hosts)
    hosts = []
    for index in range(num_hosts):
        port, client_port = ports[2 * index], ports[2 * index + 1]
        lo = index * nodes_per_host
        hi = lo + nodes_per_host
        hosts.append(
            HostSpec(
                index=index,
                host=host,
                port=port,
                client_port=client_port,
                node_ids=node_ids[lo:hi],
                profiles=profiles[lo:hi],
            )
        )
    return ClusterSpec(
        hosts=hosts,
        seed=seed,
        num_profiles=num_profiles,
        config_overrides=overrides,
        time_scale=time_scale,
    )
