"""Per-endsystem availability models.

Each endsystem maintains two persisted distributions (paper §3.2.1):

* the **down-duration** distribution — how long the endsystem stays
  unavailable (log-bucketed, since gaps span seconds to weeks);
* the **up-event** distribution — the hour of day (0-23) at which it
  comes back up.

If the up-event distribution is heavily concentrated in some hour
(peak-to-mean ratio > 2) the endsystem classifies itself **periodic** and
predictions use the up-event distribution; otherwise predictions use the
down-duration distribution *conditioned on the elapsed downtime*.

The model is pushed to the replica set; a replica member that notices the
owner fail records the failure time and can later answer "when will it be
back?" on the owner's behalf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.simulator import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimClock

_MIN_DOWN = 1.0  # seconds; floor of the first log bucket

#: Number of log-scale down-duration buckets of a fresh model.
DOWN_DURATION_BUCKETS = 16
#: Up-event peak-to-mean ratio above which an endsystem is periodic
#: (paper §3.2.1: 2).
PERIODIC_THRESHOLD = 2.0
#: Minimum up events before the periodic classification is trusted.
MIN_PERIODIC_OBSERVATIONS = 8
#: The modal hour must have repeated at least this often.
MIN_PERIODIC_PEAK = 3


def _default_edges(num_buckets: int) -> np.ndarray:
    """Log-spaced down-duration bucket edges from 1 s to 4 weeks."""
    return np.logspace(
        np.log10(_MIN_DOWN), np.log10(28 * SECONDS_PER_DAY), num_buckets + 1
    )


@dataclass
class AvailabilityPrediction:
    """A distribution over the times at which an endsystem becomes available.

    ``times`` are absolute simulation times; ``weights`` sum to 1 (or to
    the total confidence if the model had no data — then a single
    fallback point is returned).
    """

    times: np.ndarray
    weights: np.ndarray

    def expected_time(self) -> float:
        """Probability-weighted mean next-up time."""
        return float(np.sum(self.times * self.weights) / np.sum(self.weights))

    @classmethod
    def point(cls, time: float) -> "AvailabilityPrediction":
        """A degenerate single-point prediction."""
        return cls(np.array([time]), np.array([1.0]))


class AvailabilityModel:
    """The learned availability behaviour of one endsystem."""

    def __init__(self, num_down_buckets: int = DOWN_DURATION_BUCKETS) -> None:
        self.down_edges = _default_edges(num_down_buckets)
        self.down_counts = np.zeros(num_down_buckets)
        self.up_hour_counts = np.zeros(24)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def record_down_duration(self, duration: float) -> None:
        """Record one observed unavailability gap."""
        if duration <= 0:
            return
        bucket = int(np.searchsorted(self.down_edges, duration, side="right")) - 1
        bucket = min(max(bucket, 0), len(self.down_counts) - 1)
        self.down_counts[bucket] += 1

    def record_up_event(self, hour: float) -> None:
        """Record the hour of day at which the endsystem came up."""
        self.up_hour_counts[int(hour) % 24] += 1

    def learn_from_schedule(
        self, up_starts: np.ndarray, up_ends: np.ndarray, clock: SimClock, until: float
    ) -> None:
        """Bulk-train from history up to time ``until`` (warmup shortcut).

        Equivalent to replaying each transition through
        :meth:`record_down_duration` / :meth:`record_up_event`.
        """
        starts = np.asarray(up_starts, dtype=float)
        ends = np.asarray(up_ends, dtype=float)
        mask = starts <= until
        starts = starts[mask]
        for start in starts:
            self.record_up_event(clock.hour_of_day(start))
        if len(starts) >= 2:
            gaps = starts[1:] - ends[: len(starts) - 1]
            for gap in gaps:
                self.record_down_duration(float(gap))

    # ------------------------------------------------------------------
    # Classification and prediction
    # ------------------------------------------------------------------

    @property
    def observations(self) -> int:
        """Number of recorded up events."""
        return int(self.up_hour_counts.sum())

    def peak_to_mean(self) -> float:
        """Peak-to-mean ratio of the up-event hour distribution."""
        total = self.up_hour_counts.sum()
        if total == 0:
            return 0.0
        mean = total / 24.0
        return float(self.up_hour_counts.max() / mean)

    def is_periodic(self) -> bool:
        """Paper's rule: periodic iff up-event peak-to-mean exceeds 2.

        Guarded against sparse statistics: with only a handful of up
        events the peak-to-mean ratio of a 24-bin histogram is trivially
        above any threshold (a single event scores 24), so classification
        additionally requires enough observations and a peak that has
        actually repeated.
        """
        if self.observations < MIN_PERIODIC_OBSERVATIONS:
            return False
        if self.up_hour_counts.max() < MIN_PERIODIC_PEAK:
            return False
        return self.peak_to_mean() > PERIODIC_THRESHOLD

    def predict(
        self, now: float, down_since: float, clock: SimClock
    ) -> AvailabilityPrediction:
        """Distribution over next-up times for an endsystem down since
        ``down_since``, evaluated at time ``now``.

        Periodic endsystems predict from the up-event hour distribution
        (the next occurrence of each hour, weighted by its frequency).
        Non-periodic endsystems predict the *remaining* downtime from the
        down-duration distribution conditioned on the elapsed downtime.
        """
        if self.is_periodic():
            return self._predict_periodic(now, clock)
        return self._predict_from_durations(now, down_since)

    def _predict_periodic(
        self, now: float, clock: SimClock
    ) -> AvailabilityPrediction:
        total = self.up_hour_counts.sum()
        if total == 0:
            return self._fallback(now)
        hours = np.nonzero(self.up_hour_counts)[0]
        times = np.array(
            [now + clock.seconds_until_hour(now, hour + 0.5) for hour in hours]
        )
        weights = self.up_hour_counts[hours] / total
        order = np.argsort(times)
        return AvailabilityPrediction(times[order], weights[order])

    def _predict_from_durations(
        self, now: float, down_since: float
    ) -> AvailabilityPrediction:
        elapsed = max(0.0, now - down_since)
        centers = np.sqrt(self.down_edges[:-1] * self.down_edges[1:])  # geometric
        usable = centers > elapsed
        counts = self.down_counts * usable
        if counts.sum() == 0:
            # Elapsed downtime exceeds everything we have seen (or no
            # observations at all): fall back to a doubling heuristic.
            return self._fallback(now, elapsed)
        weights = counts / counts.sum()
        times = down_since + centers
        times = np.maximum(times, now + 1.0)
        mask = weights > 0
        return AvailabilityPrediction(times[mask], weights[mask])

    def _fallback(self, now: float, elapsed: float = 0.0) -> AvailabilityPrediction:
        """No usable data: guess "as long again as it has been down"."""
        guess = max(SECONDS_PER_HOUR, elapsed)
        return AvailabilityPrediction.point(now + guess)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityModel):
            return NotImplemented
        return (
            np.array_equal(self.down_edges, other.down_edges)
            and np.array_equal(self.down_counts, other.down_counts)
            and np.array_equal(self.up_hour_counts, other.up_hour_counts)
        )

    # Models are mutable learners; identity hashing is kept deliberately.
    __hash__ = object.__hash__

    def snapshot(self) -> dict:
        """A deep-copyable plain-data snapshot (what gets replicated)."""
        return {
            "down_counts": self.down_counts.copy(),
            "up_hour_counts": self.up_hour_counts.copy(),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "AvailabilityModel":
        """Rebuild a model from a replica's snapshot."""
        model = cls(num_down_buckets=len(snapshot["down_counts"]))
        model.down_counts = np.asarray(snapshot["down_counts"], dtype=float).copy()
        model.up_hour_counts = np.asarray(
            snapshot["up_hour_counts"], dtype=float
        ).copy()
        return model
