"""Per-endsystem, per-category bandwidth accounting.

The paper's Figure 9 reports overheads split into three categories
(MSPastry, Seaweed maintenance, Seaweed query), as time series, as
per-endsystem-hour cumulative distributions, and as per-endsystem means.
This module records every transmitted/received byte bucketed by
``(endsystem, time bucket, category)`` and derives those views.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional

import numpy as np

#: Canonical traffic categories used throughout the stack.
CATEGORY_OVERLAY = "overlay"  # Pastry: heartbeats, join, routing state
CATEGORY_MAINTENANCE = "maintenance"  # Seaweed: metadata replication
CATEGORY_QUERY = "query"  # Seaweed: dissemination, predictors, results

ALL_CATEGORIES = (CATEGORY_OVERLAY, CATEGORY_MAINTENANCE, CATEGORY_QUERY)

#: Frozen set for O(1) validation on the per-message recording path.
_VALID_CATEGORIES = frozenset(ALL_CATEGORIES)


class BandwidthAccounting:
    """Accumulates sent/received bytes in fixed-width time buckets."""

    def __init__(self, bucket_seconds: float = 3600.0) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        # {(endsystem, bucket, category): bytes}
        self._tx: dict[tuple[str, int, str], float] = defaultdict(float)
        self._rx: dict[tuple[str, int, str], float] = defaultdict(float)
        self.total_tx = 0.0
        self.total_rx = 0.0
        self.messages = 0
        #: {message kind: sent bytes}; a route envelope counts under the
        #: kind it carries.
        self.tx_by_kind: dict[str, float] = defaultdict(float)

    def _bucket(self, time: float) -> int:
        return int(time // self.bucket_seconds)

    def record(
        self,
        time: float,
        src: str,
        dst: str,
        size: int,
        category: str,
        kind: str = "other",
    ) -> None:
        """Record one ``kind`` message of ``size`` bytes from ``src`` to ``dst``.

        Raises ValueError for categories outside :data:`ALL_CATEGORIES` —
        a typo here would silently vanish from every Fig. 9/10 breakdown.
        """
        if category not in _VALID_CATEGORIES:
            raise ValueError(
                f"unknown traffic category {category!r}; expected one of {ALL_CATEGORIES}"
            )
        bucket = self._bucket(time)
        self._tx[(src, bucket, category)] += size
        self._rx[(dst, bucket, category)] += size
        self.total_tx += size
        self.total_rx += size
        self.tx_by_kind[kind] += size
        self.messages += 1

    def record_local(
        self,
        time: float,
        endsystem: str,
        tx_bytes: float,
        rx_bytes: float,
        category: str,
        kind: str = "other",
    ) -> None:
        """Record pre-aggregated traffic for one endsystem.

        Used by batched services (e.g. the heartbeat sweep) that account a
        period's worth of symmetric traffic in one call instead of one call
        per message.  Categories are validated like :meth:`record`.
        """
        if category not in _VALID_CATEGORIES:
            raise ValueError(
                f"unknown traffic category {category!r}; expected one of {ALL_CATEGORIES}"
            )
        bucket = self._bucket(time)
        if tx_bytes:
            self._tx[(endsystem, bucket, category)] += tx_bytes
            self.total_tx += tx_bytes
            self.tx_by_kind[kind] += tx_bytes
        if rx_bytes:
            self._rx[(endsystem, bucket, category)] += rx_bytes
            self.total_rx += rx_bytes

    def totals_by_category(self, direction: str = "tx") -> dict[str, float]:
        """Total bytes per category."""
        table = self._tx if direction == "tx" else self._rx
        totals: dict[str, float] = defaultdict(float)
        for (_, _, category), size in table.items():
            totals[category] += size
        return dict(totals)

    def timeseries(
        self, direction: str = "tx", categories: Optional[Iterable[str]] = None
    ) -> dict[str, dict[int, float]]:
        """Bytes per time bucket per category: ``{category: {bucket: bytes}}``."""
        table = self._tx if direction == "tx" else self._rx
        wanted = set(categories) if categories is not None else None
        series: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for (_, bucket, category), size in table.items():
            if wanted is not None and category not in wanted:
                continue
            series[category][bucket] += size
        return {cat: dict(buckets) for cat, buckets in series.items()}

    def per_endsystem_totals(self, direction: str = "tx") -> dict[str, float]:
        """Total bytes per endsystem, summed over time and categories."""
        table = self._tx if direction == "tx" else self._rx
        totals: dict[str, float] = defaultdict(float)
        for (endsystem, _, _), size in table.items():
            totals[endsystem] += size
        return dict(totals)

    def endsystem_hour_samples(
        self,
        endsystems: Iterable[str],
        start_bucket: int,
        end_bucket: int,
        direction: str = "tx",
    ) -> np.ndarray:
        """One bandwidth sample (bytes/s) per (endsystem, bucket) pair.

        This is the distribution behind Fig. 9(b): each sample is the mean
        bandwidth of one endsystem over one bucket.  Buckets in which the
        endsystem sent nothing (typically because it was offline) appear as
        zero samples — the paper notes the y-intercept of the CDF is the
        mean unavailability.
        """
        table = self._tx if direction == "tx" else self._rx
        per_pair: dict[tuple[str, int], float] = defaultdict(float)
        for (endsystem, bucket, _), size in table.items():
            if start_bucket <= bucket < end_bucket:
                per_pair[(endsystem, bucket)] += size
        samples = []
        for endsystem in endsystems:
            for bucket in range(start_bucket, end_bucket):
                samples.append(per_pair.get((endsystem, bucket), 0.0))
        return np.asarray(samples) / self.bucket_seconds

    def mean_rate_per_endsystem(
        self, num_endsystem_seconds: float, direction: str = "tx"
    ) -> float:
        """Mean bytes/s per (online) endsystem given total endsystem-seconds."""
        if num_endsystem_seconds <= 0:
            return 0.0
        total = self.total_tx if direction == "tx" else self.total_rx
        return total / num_endsystem_seconds


def cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of ``samples`` as ``(sorted values, cumulative fraction)``."""
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        return values, values
    fractions = np.arange(1, values.size + 1) / values.size
    return values, fractions


def percentile(samples: np.ndarray, q: float) -> float:
    """The ``q``-th percentile (0–100) of ``samples``; 0.0 if empty."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))
