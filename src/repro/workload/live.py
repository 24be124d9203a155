"""Live data updates: ongoing flow generation during simulation.

The paper's system supports frequent local updates (each endsystem
appends its own measurement rows continuously); the published simulation
pre-computes data and disables updates for speed (§4.3).  This module
restores live updates for the experiments that need them — most notably
the continuous-query extension, whose results only change if the data
does.

The feed appends new ``Flow`` rows to each *online* endsystem's private
database on a fixed period, with per-endsystem rates drawn from the same
heavy-tailed activity distribution as the static generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.workload.anemone import _SERVICES, FLOW_INTERVAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import SeaweedSystem


class LiveAnemoneFeed:
    """Drives ongoing per-endsystem Flow inserts through the simulator."""

    def __init__(
        self,
        system: "SeaweedSystem",
        rng: np.random.Generator,
        rows_per_hour: float = 10.0,
        period: float = FLOW_INTERVAL,
        level_sigma: float = 1.0,
    ) -> None:
        """Attach a live feed to a running deployment.

        Args:
            system: The deployment; must have been built with
                ``private_databases=True`` (each endsystem owns its data).
            rng: Random stream for rates, timing jitter and row content.
            rows_per_hour: Mean new flow rows per endsystem per hour.
            period: Insertion batch period in seconds.
            level_sigma: Log-normal sigma of per-endsystem rate spread.
        """
        if not getattr(system, "private_databases", False):
            raise ValueError(
                "LiveAnemoneFeed requires a deployment with private_databases=True: "
                "shared profile databases must not be mutated"
            )
        self.system = system
        self._rng = rng
        self.period = period
        self._rates = rows_per_hour * rng.lognormal(
            0.0, level_sigma, size=len(system.nodes)
        )
        self.rows_inserted = 0
        self._timer = system.sim.schedule_periodic(period, self._tick)

    def stop(self) -> None:
        """Stop generating updates."""
        self._timer.cancel()

    def _tick(self) -> None:
        now = self.system.sim.now
        for index, node in enumerate(self.system.nodes):
            if not node.pastry.online:
                continue
            expected = self._rates[index] * self.period / 3600.0
            count = int(self._rng.poisson(expected))
            if count == 0:
                continue
            self._insert_rows(node, count, now)
            self.rows_inserted += count

    def _insert_rows(self, node, count: int, now: float) -> None:
        rng = self._rng
        database = node.database
        host_ip = 0x0A000000 + (node.node_id & 0xFFFF)
        for _ in range(count):
            service_index = int(rng.integers(0, len(_SERVICES)))
            port, app, _ = _SERVICES[service_index]
            flow_bytes = int(max(64, rng.lognormal(8.5, 2.0)))
            database.insert(
                "Flow",
                {
                    "ts": int(now - rng.uniform(0, self.period)),
                    "Interval": FLOW_INTERVAL,
                    "SrcIP": host_ip,
                    "DstIP": int(rng.integers(0x0A000000, 0x0AFFFFFF)),
                    "SrcPort": port,
                    "DstPort": int(rng.integers(1024, 65536)),
                    "LocalPort": port,
                    "Protocol": 6,
                    "App": app,
                    "Bytes": flow_bytes,
                    "Packets": max(1, flow_bytes // 1400),
                },
            )
