"""The simplified prediction simulator (paper §4.3.2, Figs. 5-8).

The paper's completeness-prediction experiments run the full 51,663-host
Farsite population, which is too expensive for packet-level simulation —
so the authors use "a simplified simulator that correctly captures the
effect of availability on completeness but does not do packet-level
simulation".  This module is that simulator:

* every endsystem's availability model is trained on its history up to
  the injection time (the warmup period);
* at injection, each *available* endsystem contributes its exact local
  row count immediately (that is what the live protocol produces);
* each *unavailable* endsystem contributes a histogram-estimated row
  count spread over its availability model's predicted next-up
  distribution — exactly what a metadata replica computes on its behalf;
* ground truth (the "actual result" curve) adds each endsystem's exact
  rows at its true next-availability instant.

Like the paper, per-endsystem query results and histograms are
pre-computed once per data profile instead of per endsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.availability_model import AvailabilityModel
from repro.core.metadata import EndsystemMetadata
from repro.core.predictor import CompletenessPredictor
from repro.db.sql import ParsedQuery, parse
from repro.sim.simulator import SimClock
from repro.traces.availability import TraceSet
from repro.workload.anemone import AnemoneDataset

#: Default checkpoints after injection: the paper plots 1 h .. 32 h on a
#: log axis and reports errors immediately / +1 h / +2 h / +4 h / +8 h.
DEFAULT_CHECKPOINTS = tuple(h * 3600.0 for h in (0, 1, 2, 4, 8, 16, 32, 48))


@dataclass
class PredictionOutcome:
    """Predicted-vs-actual completeness for one query injection."""

    sql: str
    inject_time: float
    checkpoints: np.ndarray  # delays (s) after injection
    predicted: np.ndarray  # cumulative predicted rows at each checkpoint
    actual: np.ndarray  # cumulative actual rows at each checkpoint
    predicted_total: float
    actual_total: float
    available_fraction: float  # endsystems up at injection

    def prediction_error(self) -> np.ndarray:
        """Relative error (%) of the prediction at each checkpoint.

        Normalized by the actual total, as the paper's error plots are.
        """
        if self.actual_total <= 0:
            return np.zeros_like(self.predicted)
        return 100.0 * (self.predicted - self.actual) / self.actual_total

    def total_count_error(self) -> float:
        """Relative error (%) on the total relevant row count."""
        if self.actual_total <= 0:
            return 0.0
        return 100.0 * (self.predicted_total - self.actual_total) / self.actual_total

    def error_at(self, delay: float) -> float:
        """Prediction error (%) at the checkpoint nearest ``delay``."""
        index = int(np.argmin(np.abs(self.checkpoints - delay)))
        return float(self.prediction_error()[index])


class PredictionSimulator:
    """Availability-driven completeness prediction over a full trace."""

    def __init__(
        self,
        trace: TraceSet,
        dataset: AnemoneDataset,
        assignment: Optional[np.ndarray] = None,
        clock: Optional[SimClock] = None,
        rng: Optional[np.random.Generator] = None,
        min_uptime: float = 60.0,
    ) -> None:
        """Build the simulator.

        Args:
            trace: Availability schedules for the whole population.
            dataset: Data profiles; one is assigned per endsystem.
            assignment: Profile index per endsystem (random if omitted).
            clock: Calendar anchor for diurnal logic.
            rng: Random stream for profile assignment.
            min_uptime: An endsystem must stay up this long after coming
                back to receive and execute the query (paper §2.3's
                H_U definition).
        """
        self.trace = trace
        self.dataset = dataset
        self.clock = clock if clock is not None else SimClock()
        if assignment is None:
            if rng is None:
                rng = np.random.default_rng(0)
            assignment = dataset.assign_profiles(len(trace), rng)
        if len(assignment) != len(trace):
            raise ValueError("assignment length must match trace population")
        self.assignment = np.asarray(assignment)
        self.min_uptime = min_uptime
        self._models: list[AvailabilityModel] = [
            AvailabilityModel() for _ in range(len(trace))
        ]
        self._trained_until = 0.0
        # Per-profile caches, filled per query.
        self._metadata: list[EndsystemMetadata] = [
            EndsystemMetadata.build(owner=index, database=db, availability=AvailabilityModel())
            for index, db in enumerate(dataset.databases)
        ]

    # ------------------------------------------------------------------
    # Model training
    # ------------------------------------------------------------------

    def train_models(self, until: float) -> None:
        """(Re)train every endsystem's availability model on [0, until).

        Training is cumulative in the paper (models persist and update);
        retraining from scratch on the full prefix is equivalent.
        """
        for model, schedule in zip(self._models, self.trace.schedules):
            model.down_counts[:] = 0
            model.up_hour_counts[:] = 0
            model.learn_from_schedule(
                schedule.up_starts, schedule.up_ends, self.clock, until
            )
        self._trained_until = until

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------

    def _profile_rows(self, query: ParsedQuery) -> tuple[np.ndarray, np.ndarray]:
        """(exact, estimated) relevant rows per data profile."""
        exact = np.empty(self.dataset.num_profiles)
        estimated = np.empty(self.dataset.num_profiles)
        for profile, database in enumerate(self.dataset.databases):
            exact[profile] = database.relevant_row_count(query)
            estimated[profile] = self._metadata[profile].estimate_rows(query)
        return exact, estimated

    def run(
        self,
        sql: str,
        inject_time: float,
        checkpoints: Sequence[float] = DEFAULT_CHECKPOINTS,
        bind_now: bool = True,
        retrain: bool = True,
    ) -> PredictionOutcome:
        """Inject ``sql`` at ``inject_time`` and compare prediction to truth."""
        if retrain and self._trained_until != inject_time:
            self.train_models(inject_time)
        query = parse(sql, now=inject_time if bind_now else None)
        exact_rows, estimated_rows = self._profile_rows(query)
        predictor = CompletenessPredictor()
        checkpoints_arr = np.asarray(sorted(checkpoints), dtype=float)
        actual = np.zeros_like(checkpoints_arr)
        actual_total = 0.0
        available = 0

        for index, schedule in enumerate(self.trace.schedules):
            profile = int(self.assignment[index])
            rows_exact = float(exact_rows[profile])
            rows_estimated = float(estimated_rows[profile])
            if schedule.is_available(inject_time):
                available += 1
                predictor.add_immediate(rows_exact)
                actual += rows_exact  # available from delay 0 at every checkpoint
                actual_total += rows_exact
                continue
            # Unavailable: predicted from the replicated metadata...
            down_since = self._down_since(schedule, inject_time)
            prediction = self._models[index].predict(
                inject_time, down_since, self.clock
            )
            delays = prediction.times - inject_time
            predictor.add_distribution(delays, prediction.weights, rows_estimated)
            # ...and the ground truth from the real schedule.
            true_up = self._next_usable_up(schedule, inject_time)
            if np.isfinite(true_up):
                actual_delay = true_up - inject_time
                actual += np.where(checkpoints_arr >= actual_delay, rows_exact, 0.0)
                actual_total += rows_exact

        predicted = predictor.series(checkpoints_arr)
        return PredictionOutcome(
            sql=sql,
            inject_time=inject_time,
            checkpoints=checkpoints_arr,
            predicted=predicted,
            actual=actual,
            predicted_total=predictor.expected_total,
            actual_total=actual_total,
            available_fraction=available / len(self.trace.schedules),
        )

    def _down_since(self, schedule, inject_time: float) -> float:
        """When the endsystem last went down before ``inject_time``."""
        index = int(np.searchsorted(schedule.up_starts, inject_time, side="right")) - 1
        if index >= 0:
            return float(schedule.up_ends[index])
        return 0.0

    def _next_usable_up(self, schedule, inject_time: float) -> float:
        """The next time the endsystem is up for at least ``min_uptime``."""
        position = int(
            np.searchsorted(schedule.up_starts, inject_time, side="right")
        )
        while position < len(schedule.up_starts):
            start = float(schedule.up_starts[position])
            end = float(schedule.up_ends[position])
            if end - max(start, inject_time) >= self.min_uptime:
                return max(start, inject_time)
            position += 1
        return float("inf")


def sweep_injection_times(
    simulator: PredictionSimulator,
    sql: str,
    inject_times: Sequence[float],
    checkpoints: Sequence[float] = DEFAULT_CHECKPOINTS,
) -> list[PredictionOutcome]:
    """Run the same query at several injection times (Figs. 5-8, panel b/c)."""
    return [
        simulator.run(sql, inject_time, checkpoints=checkpoints)
        for inject_time in inject_times
    ]
