"""Packet-level overhead experiments (paper §4.3.3, Figs. 9-10).

Runs a full :class:`~repro.core.system.SeaweedSystem` deployment over a
trace, injects the paper's long-running HTTP-traffic query, and measures:

* bandwidth per second per online endsystem, split into MSPastry,
  Seaweed maintenance, and Seaweed query categories (Fig. 9a / 10a);
* the distribution of per-endsystem-hour bandwidth (Fig. 9b / 10b);
* sensitivity to the endsystemId assignment (Fig. 9c);
* scaling of the per-endsystem overhead with N plus the predictor
  latency (Fig. 9d).

Scale note (see DESIGN.md): the paper runs 20,000-51,663 endsystems for
four simulated weeks on a C# simulator; pure-Python event processing
makes that configuration impractical, so the defaults here use smaller
populations and shorter horizons.  The quantities reported are
per-endsystem and O(1)/O(log N) by design, so the comparisons and trends
survive the rescale; the harness prints absolute numbers so the reader
can judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import SeaweedConfig
from repro.core.system import SeaweedSystem
from repro.obs.observer import Observer
from repro.net.stats import (
    CATEGORY_MAINTENANCE,
    CATEGORY_OVERLAY,
    CATEGORY_QUERY,
    percentile,
)
from repro.traces.availability import TraceSet
from repro.traces.farsite import generate_farsite_trace
from repro.traces.gnutella import generate_gnutella_trace
from repro.workload.anemone import AnemoneDataset, AnemoneParams
from repro.workload.queries import QUERY_HTTP_BYTES


@dataclass
class OverheadResult:
    """Measured overheads from one deployment run."""

    num_endsystems: int
    duration: float
    online_endsystem_seconds: float
    #: Mean transmit bytes/s per online endsystem, by category.
    tx_by_category: dict[str, float]
    rx_by_category: dict[str, float]
    #: Per-(endsystem, hour) transmit bandwidth samples (Fig. 9b).
    tx_samples: np.ndarray
    rx_samples: np.ndarray
    #: Hourly total transmit bytes/s per category (Fig. 9a time series).
    tx_timeseries: dict[str, dict[int, float]]
    #: Seconds from injection to the aggregated predictor at the root.
    predictor_latency: Optional[float]
    #: Result-completeness observations: (delay s, rows) samples.
    completeness: list[tuple[float, int]] = field(default_factory=list)
    ground_truth_rows: int = 0
    #: :meth:`SeaweedSystem.metrics_snapshot` taken at the end of the run.
    metrics: Optional[dict] = None

    @property
    def mean_tx(self) -> float:
        """Total mean transmit bytes/s per online endsystem."""
        return sum(self.tx_by_category.values())

    @property
    def mean_rx(self) -> float:
        """Total mean receive bytes/s per online endsystem."""
        return sum(self.rx_by_category.values())

    def tx_percentile(self, q: float) -> float:
        """The q-th percentile of per-endsystem-hour transmit bandwidth."""
        return percentile(self.tx_samples, q)


def build_trace(
    kind: str, num_endsystems: int, horizon: float, seed: int
) -> TraceSet:
    """A calibrated trace of the requested kind ("farsite" or "gnutella")."""
    rng = np.random.default_rng(seed)
    if kind == "farsite":
        return generate_farsite_trace(num_endsystems, horizon=horizon, rng=rng)
    if kind == "gnutella":
        return generate_gnutella_trace(num_endsystems, horizon=horizon, rng=rng)
    raise ValueError(f"unknown trace kind {kind!r}")


def run_overhead_experiment(
    num_endsystems: int = 400,
    trace_kind: str = "farsite",
    duration: float = 8 * 3600.0,
    inject_after: float = 1800.0,
    query_sql: str = QUERY_HTTP_BYTES,
    seed: int = 0,
    id_seed: Optional[int] = None,
    num_profiles: int = 40,
    config: Optional[SeaweedConfig] = None,
    sample_checkpoints: tuple[float, ...] = (60.0, 1800.0, 3600.0, 2 * 3600.0, 4 * 3600.0),
    observer: Optional[Observer] = None,
) -> OverheadResult:
    """Run one packet-level deployment and collect Fig. 9/10 measurements.

    Pass ``observer`` to trace/profile the run (see :mod:`repro.obs`);
    its snapshot lands in :attr:`OverheadResult.metrics`.
    """
    trace = build_trace(trace_kind, num_endsystems, duration, seed)
    dataset = AnemoneDataset(
        num_profiles=num_profiles,
        params=AnemoneParams(),
        rng=np.random.default_rng(seed + 1),
    )
    system = SeaweedSystem(
        trace,
        dataset,
        num_endsystems=num_endsystems,
        config=config,
        master_seed=seed,
        id_seed=id_seed,
        observer=observer,
    )
    system.pretrain_availability()
    system.run_until(inject_after)
    origin, descriptor = system.inject_query(query_sql, bind_now=False)
    completeness: list[tuple[float, int]] = []
    for checkpoint in sample_checkpoints:
        target = inject_after + checkpoint
        if target > duration:
            break
        system.run_until(target)
        status = system.status_of(descriptor)
        rows = status.rows_processed if status is not None else 0
        completeness.append((checkpoint, rows))
    system.run_until(duration)

    status = system.status_of(descriptor)
    latency = None
    if status is not None and status.predictor_ready_at is not None:
        latency = status.predictor_ready_at - descriptor.injected_at

    accounting = system.accounting
    online_seconds = system.online_endsystem_seconds(0.0, duration)
    tx_by_category = {
        category: total / online_seconds if online_seconds else 0.0
        for category, total in accounting.totals_by_category("tx").items()
    }
    rx_by_category = {
        category: total / online_seconds if online_seconds else 0.0
        for category, total in accounting.totals_by_category("rx").items()
    }
    for table in (tx_by_category, rx_by_category):
        for category in (CATEGORY_OVERLAY, CATEGORY_MAINTENANCE, CATEGORY_QUERY):
            table.setdefault(category, 0.0)
    names = [node.pastry.name for node in system.nodes]
    buckets = int(duration // accounting.bucket_seconds)
    tx_samples = accounting.endsystem_hour_samples(names, 0, buckets, "tx")
    rx_samples = accounting.endsystem_hour_samples(names, 0, buckets, "rx")
    return OverheadResult(
        num_endsystems=num_endsystems,
        duration=duration,
        online_endsystem_seconds=online_seconds,
        tx_by_category=tx_by_category,
        rx_by_category=rx_by_category,
        tx_samples=tx_samples,
        rx_samples=rx_samples,
        tx_timeseries=accounting.timeseries("tx"),
        predictor_latency=latency,
        completeness=completeness,
        ground_truth_rows=system.ground_truth_rows(query_sql),
        metrics=system.metrics_snapshot() if observer is not None else None,
    )


def run_scaling_sweep(
    populations: tuple[int, ...] = (100, 200, 400, 800),
    **kwargs,
) -> dict[int, OverheadResult]:
    """Fig. 9(d): per-endsystem overhead and latency as N grows."""
    results = {}
    for population in populations:
        results[population] = run_overhead_experiment(
            num_endsystems=population, **kwargs
        )
    return results


def run_id_assignment_sweep(
    id_seeds: tuple[int, ...] = (11, 22, 33, 44, 55),
    **kwargs,
) -> dict[int, OverheadResult]:
    """Fig. 9(c): identical runs differing only in endsystemId assignment."""
    results = {}
    for id_seed in id_seeds:
        results[id_seed] = run_overhead_experiment(id_seed=id_seed, **kwargs)
    return results
