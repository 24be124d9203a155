"""Completeness predictors.

A completeness predictor is "a cumulative histogram of expected row count
over time" (paper §2.1): for any delay after query injection it estimates
how many query-relevant rows will have been processed.  Time buckets are
log-scale "to accommodate wide variations in availability ranging from
seconds to days" (§3.3), and the predictor is constant-size so that
in-tree aggregation keeps message sizes O(1).
"""

from __future__ import annotations

import numpy as np

_MIN_DELAY = 1.0  # seconds; the first bucket's lower edge


def log_bucket_edges(num_buckets: int, horizon: float) -> np.ndarray:
    """Log-spaced bucket edges from 1 s to ``horizon`` seconds."""
    if num_buckets < 1:
        raise ValueError("need at least one bucket")
    if horizon <= _MIN_DELAY:
        raise ValueError("horizon must exceed 1 s")
    return np.logspace(np.log10(_MIN_DELAY), np.log10(horizon), num_buckets + 1)


class CompletenessPredictor:
    """Expected row count becoming available, bucketed by delay.

    ``immediate_rows`` counts rows on endsystems available at injection
    time (delay zero); ``bucket_rows[i]`` counts rows expected to become
    available at a delay within bucket ``i``; ``beyond_rows`` counts rows
    predicted past the horizon; ``unknown_endsystems`` tallies endsystems
    whose metadata was unavailable (no replica survived).
    """

    __slots__ = (
        "edges",
        "immediate_rows",
        "bucket_rows",
        "beyond_rows",
        "unknown_endsystems",
        "endsystems",
    )

    def __init__(self, num_buckets: int = 48, horizon: float = 14 * 86400.0) -> None:
        """The defaults — 48 log-scale buckets out to 14 days — are the
        deployment's bucketing: predictors merged up one tree must share it."""
        self.edges = log_bucket_edges(num_buckets, horizon)
        self.immediate_rows = 0.0
        self.bucket_rows = np.zeros(num_buckets)
        self.beyond_rows = 0.0
        self.unknown_endsystems = 0
        self.endsystems = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_immediate(self, rows: float) -> None:
        """Rows on an endsystem that is available right now."""
        self.immediate_rows += rows
        self.endsystems += 1

    def add_at_delay(self, delay: float, rows: float, count_endsystem: bool = True) -> None:
        """Rows expected to appear ``delay`` seconds after injection.

        A delay at or below the first bucket edge (1 s) is beneath the
        predictor's time resolution: the rows are counted as immediately
        available, which keeps :meth:`cumulative_at` — whose lowest
        readable point is ``immediate_rows`` for any sub-edge delay — in
        exact agreement with what was added.
        """
        if count_endsystem:
            self.endsystems += 1
        if rows <= 0:
            return
        if delay <= self.edges[0]:
            self.immediate_rows += rows
            return
        if delay > self.edges[-1]:
            self.beyond_rows += rows
            return
        bucket = int(np.searchsorted(self.edges, delay, side="left")) - 1
        bucket = min(max(bucket, 0), len(self.bucket_rows) - 1)
        self.bucket_rows[bucket] += rows

    def add_distribution(
        self, delays: np.ndarray, weights: np.ndarray, rows: float
    ) -> None:
        """Rows spread over a predicted next-up *distribution*.

        ``weights`` need not be normalized; each point contributes
        ``rows * weight / sum(weights)``.
        """
        self.endsystems += 1
        total_weight = float(np.sum(weights))
        if total_weight <= 0 or rows <= 0:
            return
        for delay, weight in zip(delays, weights):
            self.add_at_delay(
                float(delay), rows * float(weight) / total_weight, count_endsystem=False
            )

    def add_unknown(self) -> None:
        """An endsystem whose metadata could not be found."""
        self.unknown_endsystems += 1
        self.endsystems += 1

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def merge(self, other: "CompletenessPredictor") -> "CompletenessPredictor":
        """Combine two predictors (the in-tree aggregation step)."""
        if len(self.edges) != len(other.edges) or not np.allclose(
            self.edges, other.edges
        ):
            raise ValueError("cannot merge predictors with different bucketing")
        merged = CompletenessPredictor.__new__(CompletenessPredictor)
        merged.edges = self.edges
        merged.immediate_rows = self.immediate_rows + other.immediate_rows
        merged.bucket_rows = self.bucket_rows + other.bucket_rows
        merged.beyond_rows = self.beyond_rows + other.beyond_rows
        merged.unknown_endsystems = self.unknown_endsystems + other.unknown_endsystems
        merged.endsystems = self.endsystems + other.endsystems
        return merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def expected_total(self) -> float:
        """Total expected relevant rows across all endsystems."""
        return float(self.immediate_rows + self.bucket_rows.sum() + self.beyond_rows)

    def cumulative_at(self, delay: float) -> float:
        """Expected rows available within ``delay`` seconds of injection.

        At (or past) the horizon every bucket has fully arrived, so the
        buckets are summed directly — ``cumulative_at(horizon)`` equals
        ``expected_total - beyond_rows`` exactly, with no interpolation
        round-off at the last edge.
        """
        if delay < 0:
            return 0.0
        if delay >= self.edges[-1]:
            return float(self.immediate_rows + self.bucket_rows.sum())
        total = self.immediate_rows
        for bucket in range(len(self.bucket_rows)):
            if delay >= self.edges[bucket + 1]:
                total += self.bucket_rows[bucket]
            else:
                # Log-uniform interpolation within the bucket.
                lo, hi = self.edges[bucket], self.edges[bucket + 1]
                if delay > lo:
                    fraction = (np.log(delay) - np.log(lo)) / (np.log(hi) - np.log(lo))
                    total += self.bucket_rows[bucket] * fraction
                break
        return float(total)

    def completeness_at(self, delay: float) -> float:
        """Predicted completeness (0-1) at ``delay`` seconds."""
        total = self.expected_total
        if total <= 0:
            return 1.0
        return self.cumulative_at(delay) / total

    def time_to_completeness(self, fraction: float) -> float:
        """Smallest delay at which predicted completeness reaches ``fraction``.

        Returns 0.0 if already satisfied at injection and ``inf`` if the
        target is never predicted to be reached within the horizon.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        target = fraction * self.expected_total
        if self.immediate_rows >= target:
            return 0.0
        cumulative = self.immediate_rows
        for bucket in range(len(self.bucket_rows)):
            nxt = cumulative + self.bucket_rows[bucket]
            if nxt >= target and self.bucket_rows[bucket] > 0:
                lo, hi = self.edges[bucket], self.edges[bucket + 1]
                fraction_in = (target - cumulative) / self.bucket_rows[bucket]
                return float(np.exp(np.log(lo) + fraction_in * (np.log(hi) - np.log(lo))))
            cumulative = nxt
        return float("inf")

    def series(self, delays: np.ndarray) -> np.ndarray:
        """Cumulative expected rows at each delay (for plotting/reporting)."""
        return np.array([self.cumulative_at(float(d)) for d in delays])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompletenessPredictor):
            return NotImplemented
        return (
            np.array_equal(self.edges, other.edges)
            and self.immediate_rows == other.immediate_rows
            and np.array_equal(self.bucket_rows, other.bucket_rows)
            and self.beyond_rows == other.beyond_rows
            and self.unknown_endsystems == other.unknown_endsystems
            and self.endsystems == other.endsystems
        )

    # Predictors are mutable accumulators; identity hashing is kept so
    # existing identity-keyed bookkeeping is unaffected by value equality.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompletenessPredictor(total={self.expected_total:.0f}, "
            f"immediate={self.immediate_rows:.0f}, "
            f"endsystems={self.endsystems}, unknown={self.unknown_endsystems})"
        )
