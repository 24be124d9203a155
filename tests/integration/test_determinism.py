"""Determinism: the same seed gives the same run.

Two fresh deployments built from the same spec must produce the
*identical* full ``metrics_snapshot()`` and query outcome — every
counter, byte total, gauge and timing, not a chosen few — on each trace
family: Farsite, Gnutella churn and an always-on population.  Nothing
in the stack may depend on process state left behind by an earlier
system (hash order, module-level caches, wall-clock time).
"""

import pytest

from repro.core.deployment import TRACE_FAMILIES, Deployment

SQL = "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80"


def run_deployment(family: str) -> dict:
    """One seeded end-to-end run; returns the full metrics snapshot plus
    the query's result fingerprint."""
    deployment = Deployment(
        trace=family, population=24, horizon=1800.0, seed=13, num_profiles=6
    )
    run = deployment.run([(600.0, SQL)], bind_now=False)
    snapshot = run.system.metrics_snapshot()
    snapshot["query"] = run.fingerprint
    return snapshot


@pytest.fixture(scope="class")
def first_run(request) -> dict:
    return run_deployment(request.cls.family)


class TestDeterminism:
    """Farsite churn; the subclasses rerun every test on the other families."""

    family = "farsite"

    def test_same_seed_runs_identically(self, first_run):
        assert first_run["query"]["rows"] > 0
        assert run_deployment(self.family) == first_run

    def test_snapshot_exposes_cancelled_events(self, first_run):
        assert "cancelled_events" in first_run["sim"]
        assert first_run["sim"]["cancelled_events"] >= 0


class TestDeterminismGnutella(TestDeterminism):
    family = "gnutella"


class TestDeterminismAlwaysOn(TestDeterminism):
    family = "always_on"


def test_every_trace_family_is_covered():
    families = {cls.family for cls in (
        TestDeterminism, TestDeterminismGnutella, TestDeterminismAlwaysOn
    )}
    assert families == set(TRACE_FAMILIES)
