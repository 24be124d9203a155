"""Integration tests under endsystem churn.

These exercise the paper's core claims end-to-end: completeness
prediction on behalf of unavailable endsystems, incremental results as
endsystems come back (H_U semantics), and exactly-once contribution
despite failures, rejoins, and vertex primary changes.
"""

import numpy as np
import pytest

from repro.core.deployment import Deployment
from repro.traces import AvailabilitySchedule, TraceSet
from repro.workload import QUERY_HTTP_BYTES

HOURS = 3600.0
HORIZON = 10 * HOURS


def make_churn_trace(count: int, rng: np.random.Generator) -> TraceSet:
    """Half the population always on; the rest follow staggered off/on cycles."""
    schedules = []
    for index in range(count):
        if index % 2 == 0:
            schedules.append(AvailabilitySchedule.always_on(HORIZON))
            continue
        # Down for a window in the middle of the run, up otherwise.
        down_start = float(rng.uniform(1.0, 4.0)) * HOURS
        down_len = float(rng.uniform(1.0, 3.0)) * HOURS
        schedules.append(
            AvailabilitySchedule.from_intervals(
                [(0.0, down_start), (down_start + down_len, HORIZON)], HORIZON
            )
        )
    return TraceSet(schedules, HORIZON)


@pytest.fixture(scope="module")
def churn_run(small_dataset):
    rng = np.random.default_rng(31)
    trace = make_churn_trace(36, rng)
    system = Deployment(
        trace=trace, population=36, seed=5, dataset=small_dataset,
        startup_stagger=60.0,
    ).build()
    # Inject at 4.5 h: some endsystems are mid-outage.
    inject_at = 4.5 * HOURS
    system.run_until(inject_at)
    origin, query = system.inject_query(QUERY_HTTP_BYTES)
    system.run_until(inject_at + 60.0)
    early_status = system.status_of(query)
    early_rows = early_status.rows_processed
    early_predictor = early_status.predictor
    online_at_inject = system.online_count
    # Run to the end: every endsystem comes back before the horizon.
    system.run_until(HORIZON - 300.0)
    return {
        "system": system,
        "query": query,
        "early_rows": early_rows,
        "early_predictor": early_predictor,
        "online_at_inject": online_at_inject,
    }


class TestChurnLifecycle:
    def test_some_endsystems_were_down_at_injection(self, churn_run):
        assert churn_run["online_at_inject"] < 36

    def test_predictor_covers_offline_endsystems(self, churn_run):
        predictor = churn_run["early_predictor"]
        assert predictor is not None
        # Metadata replicas answered for (most of) the endsystems that
        # were down at injection time.
        assert predictor.endsystems > churn_run["online_at_inject"]

    def test_predictor_anticipates_future_rows(self, churn_run):
        predictor = churn_run["early_predictor"]
        assert predictor.expected_total > predictor.immediate_rows

    def test_incremental_results_grow(self, churn_run):
        system = churn_run["system"]
        status = system.status_of(churn_run["query"])
        assert status.rows_processed > churn_run["early_rows"]

    def test_eventual_completeness(self, churn_run):
        system = churn_run["system"]
        status = system.status_of(churn_run["query"])
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
        # Every endsystem was available during the query's lifetime, so
        # H_U(0, T) is the full population: the result converges to the
        # exact total (allow a small shortfall for contributions still
        # in flight at the sampling instant).
        assert status.rows_processed >= 0.95 * truth

    def test_never_overcounts(self, churn_run):
        """Exactly-once: the result must never exceed the ground truth."""
        system = churn_run["system"]
        status = system.status_of(churn_run["query"])
        truth = system.ground_truth_rows(QUERY_HTTP_BYTES)
        assert status.rows_processed <= truth
        for _, rows in status.history:
            assert rows <= truth
