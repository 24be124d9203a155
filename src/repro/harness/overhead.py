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

from repro.core.deployment import Deployment
from repro.obs.observer import Observer
from repro.net.stats import (
    CATEGORY_MAINTENANCE,
    CATEGORY_OVERLAY,
    CATEGORY_QUERY,
    percentile,
)
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


def run_overhead_experiment(
    deployment: Deployment = Deployment(),
    inject_after: float = 1800.0,
    query_sql: str = QUERY_HTTP_BYTES,
    sample_checkpoints: tuple[float, ...] = (60.0, 1800.0, 3600.0, 2 * 3600.0, 4 * 3600.0),
    observer: Optional[Observer] = None,
) -> OverheadResult:
    """Run one packet-level deployment over its horizon and collect
    Fig. 9/10 measurements.

    The query is injected at ``inject_after`` (a
    :class:`~repro.core.deployment.QueryScheduleError` if that is not
    before the horizon); result completeness is sampled
    ``sample_checkpoints`` seconds after injection.  Pass ``observer`` to
    trace/profile the run (see :mod:`repro.obs`); its snapshot lands in
    :attr:`OverheadResult.metrics`.
    """
    duration = deployment.horizon
    checkpoints = [c for c in sample_checkpoints if inject_after + c <= duration]
    # The builder stops at the first sample; the rest follow on its system.
    system, _oracle, (descriptor,), _ = deployment.run(
        [(inject_after, query_sql)],
        until=inject_after + checkpoints[0] if checkpoints else duration,
        bind_now=False,
        observer=observer,
    )
    completeness: list[tuple[float, int]] = []
    for checkpoint in checkpoints:
        system.run_until(inject_after + checkpoint)
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
        num_endsystems=deployment.population,
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
