"""Determinism: the same seed gives the same run.

Two fresh :class:`SeaweedSystem` instances built from the same seed must
produce the *identical* full ``metrics_snapshot()`` and query outcome —
every counter, byte total, gauge and timing, not a chosen few.  Nothing
in the stack may depend on process state left behind by an earlier
system (hash order, module-level caches, wall-clock time).
"""

import numpy as np
import pytest

from repro.core import SeaweedSystem
from repro.traces import generate_farsite_trace
from repro.workload import AnemoneDataset, AnemoneParams

SEED = 13
POPULATION = 24
DURATION = 1800.0
INJECT_AT = 600.0
SQL = "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80"


def run_deployment() -> dict:
    """One seeded end-to-end run; returns the full metrics snapshot plus
    the query's result fingerprint."""
    trace = generate_farsite_trace(
        POPULATION, horizon=DURATION, rng=np.random.default_rng(SEED)
    )
    dataset = AnemoneDataset(
        num_profiles=6,
        params=AnemoneParams(),
        rng=np.random.default_rng(SEED + 1),
    )
    system = SeaweedSystem(
        trace, dataset, num_endsystems=POPULATION, master_seed=SEED
    )
    system.pretrain_availability()
    system.run_until(INJECT_AT)
    origin, descriptor = system.inject_query(SQL, bind_now=False)
    system.run_until(DURATION)
    snapshot = system.metrics_snapshot()
    status = system.status_of(descriptor)
    snapshot["query"] = {
        "rows": status.rows_processed,
        "predictor_ready_at": status.predictor_ready_at,
        "expected_total": status.predictor.expected_total,
        "history_len": len(status.history),
    }
    return snapshot


@pytest.fixture(scope="module")
def first_run() -> dict:
    return run_deployment()


class TestDeterminism:
    def test_same_seed_runs_identically(self, first_run):
        assert first_run["query"]["rows"] > 0
        assert run_deployment() == first_run

    def test_snapshot_exposes_cancelled_events(self, first_run):
        assert "cancelled_events" in first_run["sim"]
        assert first_run["sim"]["cancelled_events"] >= 0
