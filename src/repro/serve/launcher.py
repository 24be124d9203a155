"""Spawn and supervise a local cluster of real host processes.

:class:`LocalCluster` writes the :class:`~repro.serve.cluster.ClusterSpec`
to disk and launches one ``python -m repro serve`` process per host —
the harness behind the ``serve-smoke`` CI job and the live-cluster
integration tests::

    spec = plan_cluster(num_hosts=4, nodes_per_host=2, seed=7)
    with LocalCluster(spec, workdir="/tmp/cluster") as cluster:
        cluster.wait_ready()
        final = run_query(*cluster.client_address(0), "SELECT COUNT(*) ...")
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
from typing import Optional

from repro.serve.cluster import ClusterSpec

#: Grace between SIGTERM and SIGKILL at shutdown.
TERM_GRACE = 5.0


def _ping(host: str, port: int, timeout: float = 1.0) -> Optional[dict]:
    """Synchronous service ping; None if unreachable/not ready."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(b'{"op":"ping"}\n')
            with sock.makefile("r", encoding="utf-8") as lines:
                line = lines.readline()
        return json.loads(line) if line else None
    except (OSError, ValueError):
        return None


class ClusterError(RuntimeError):
    """A host process died or the cluster failed to become ready."""


class LocalCluster:
    """A cluster of real OS processes on this machine."""

    def __init__(
        self,
        spec: ClusterSpec,
        workdir: str,
        python: str = sys.executable,
        metrics: bool = False,
    ) -> None:
        self.spec = spec
        # Absolute: hosts run with the workdir as their cwd, so a relative
        # --spec or --metrics-out path would resolve inside it twice.
        self.workdir = pathlib.Path(workdir).resolve()
        self.python = python
        self.metrics = metrics
        self.processes: list[subprocess.Popen] = []
        self.spec_path = self.workdir / "cluster.json"

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def client_address(self, host_index: int = 0) -> tuple[str, int]:
        host = self.spec.hosts[host_index]
        return host.host, host.client_port

    def metrics_path(self, host_index: int) -> pathlib.Path:
        return self.workdir / f"metrics-{host_index}.jsonl"

    def start(self) -> None:
        """Write the spec and spawn one process per host."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec.save(str(self.spec_path))
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        for host in self.spec.hosts:
            command = [
                self.python, "-m", "repro", "serve",
                "--spec", str(self.spec_path),
                "--index", str(host.index),
            ]
            if self.metrics:
                command += ["--metrics-out", str(self.metrics_path(host.index))]
            log_path = self.workdir / f"host-{host.index}.log"
            with open(log_path, "ab") as log_file:
                process = subprocess.Popen(
                    command,
                    env=env,
                    stdout=log_file,
                    stderr=subprocess.STDOUT,
                    cwd=str(self.workdir),
                )
            self.processes.append(process)

    def wait_ready(self, timeout: float = 60.0, settle: float = 0.0) -> None:
        """Block until every host reports all of its nodes joined.

        ``settle`` then sleeps a further grace period — freshly joined
        nodes still need a couple of seconds to push their metadata
        before predictors cover the whole population.
        """
        deadline = time.monotonic() + timeout
        pending = {host.index: host for host in self.spec.hosts
                   if host.client_port}
        while pending:
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"hosts not ready after {timeout:.0f}s: "
                    f"{sorted(pending)} (see {self.workdir}/host-*.log)"
                )
            for index, process in enumerate(self.processes):
                if process.poll() is not None:
                    raise ClusterError(
                        f"host {index} exited with {process.returncode} "
                        f"(see {self.workdir}/host-{index}.log)"
                    )
            for index, host in list(pending.items()):
                pong = _ping(host.host, host.client_port)
                if pong and pong.get("nodes", 0) >= len(host.node_ids):
                    del pending[index]
            if pending:
                time.sleep(0.2)
        if settle > 0:
            time.sleep(settle)

    def stop(self) -> None:
        """SIGTERM every host, escalating to SIGKILL after a grace period."""
        for process in self.processes:
            if process.poll() is None:
                try:
                    process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + TERM_GRACE
        for process in self.processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes.clear()
