"""Shared by the benchmark's scripts: paths, the metric definition, percentiles.

``median`` is :func:`statistics.median`, re-exported beside the rest.
"""

from __future__ import annotations

import json
import math
import pathlib
import resource
from statistics import median

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_definition() -> dict:
    """``BENCHMARK.json``: the workloads and the metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def grouped_median(values: list[float], width: float) -> float:
    """The median of samples that were observed on a grid of ``width``.

    A delay seen by polling is rounded up to the next poll, so the plain
    median jumps by a whole ``width`` when the middle sample changes
    bin.  This is the textbook median of grouped data: the bin that
    holds the middle sample, entered in proportion to how far into the
    bin's count the middle lies.
    """
    bins = sorted(math.floor(value / width) for value in values)
    middle = bins[len(bins) // 2]
    below = sum(1 for b in bins if b < middle)
    inside = sum(1 for b in bins if b == middle)
    return (middle + (len(bins) / 2.0 - below) / inside) * width


def succeeded(records: list[dict]) -> list[dict]:
    """The queries that did not fail; a run with none cannot be measured."""
    good = [record for record in records if record["failed"] is None]
    if not good:
        raise RuntimeError(f"every query failed: {records[0]['failed']}")
    return good


def current_rss_mb() -> float:
    """This process's resident set right now (not its high-water mark)."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


class KindCounter:
    """A pass-through interceptor that counts sent messages by kind: the
    application kind for messages that ride an overlay route envelope."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def intercept(self, now, src, dst, message) -> None:
        kind = getattr(message.payload, "app_kind", message.kind)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        return None
