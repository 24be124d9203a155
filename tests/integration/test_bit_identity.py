"""Bit-identity pin: three seeded runs reproduce their fingerprints exactly.

The first two fingerprints were captured before the typed protocol
layer existed (hand-written ``size=`` expressions at every call site,
per-module ``{kind: handler}`` dispatch dicts), the third before the
timer wheel, the route cache and the summary/selectivity caches did.
They are therefore the reference for all of those: the stack as it is
must reproduce them *exactly* — same event count, same byte totals per
category, same drop counters, same predictor timing, same result rows.

Any change to wire sizes, RNG draw order, or event scheduling shows up
here first.  Update the constants only when such a change is
deliberate, and say so in the commit.
"""

from repro.core.deployment import Deployment
from repro.faults import FaultPlan, MessageLoss

GOLDEN_LOSSLESS = {
    "events_processed": 25539,
    "total_tx": 40654084.0,
    "total_rx": 40654084.0,
    "messages": 20060,
    "tx_by_category": {
        "maintenance": 33841248.0,
        "overlay": 5666496.0,
        "query": 1146340.0,
    },
    "drops_by_reason": {"offline": 2},
    "overlay_online": 36,
    "reroutes": 0,
    "routing_drops": 0,
    "rows": 45169,
    "predictor_ready_at": 900.8391872048015,
    "expected_total": 45169.0,
    "history_len": 206,
}

# Deliberately re-captured once since: uniform loss became a fault-plan
# event (a run-long MessageLoss), so the drops draw from that event's
# fault stream instead of the transport's own "loss" stream, and count
# under "fault_loss".  Rows and the predictor total are unchanged.
GOLDEN_LOSSY = {
    "events_processed": 7160,
    "total_tx": 14534602.0,
    "total_rx": 14534602.0,
    "messages": 5820,
    "tx_by_category": {
        "maintenance": 12812940.0,
        "overlay": 1441088.0,
        "query": 280574.0,
    },
    "drops_by_reason": {"fault_loss": 290},
    "overlay_online": 19,
    "reroutes": 16,
    "routing_drops": 0,
    "rows": 35060,
    "predictor_ready_at": 616.4132040727769,
    "expected_total": 35060.0,
    "history_len": 61,
}


# Captured with a plain binary heap, no route cache and per-push summary
# rebuilds, running the 2k scenario of the last test below.  The indexed
# hot path must reproduce it byte for byte.
#
# Deliberately re-captured once since: the overlapping-sides leafset
# coverage fix (a node whose leafset wraps the ring in both directions
# now recognises it covers every key, instead of prefix-routing keys in
# its own neighbourhood into a hop-capped ping-pong).  Convergence-phase
# routing changes shift event/byte totals slightly and *raise* delivered
# rows (719497 -> 756424): contributions that previously died at the hop
# cap now reach the root.  Predictor arrival time is unchanged.
GOLDEN_2K = {
    "events_processed": 270026,
    "total_tx": 948171138.0,
    "total_rx": 948171138.0,
    "messages": 222462,
    "tx_by_category": {
        "maintenance": 901015668.0,
        "overlay": 34758048.0,
        "query": 12397422.0,
    },
    "drops_by_reason": {},
    "overlay_online": 1386,
    "reroutes": 0,
    "routing_drops": 0,
    "rows": 756424,
    "predictor_ready_at": 602.2841456365759,
    "expected_total": 755680.0,
    "history_len": 489,
}


def run_scenario(
    population, seed, num_profiles, inject_at, duration, sql, loss=0.0
) -> dict:
    """One seeded Farsite deployment, one query, run to ``duration``;
    ``loss`` is the rate of a MessageLoss over the whole run."""
    plan = (
        FaultPlan((MessageLoss(start=0.0, end=duration, rate=loss),))
        if loss > 0
        else None
    )
    deployment = Deployment(
        population=population,
        horizon=duration,
        seed=seed,
        num_profiles=num_profiles,
        fault_plan=plan,
    )
    return deployment.run([(inject_at, sql)], bind_now=False).fingerprint


class TestBitIdentity:
    def test_lossless_run_matches_seed_fingerprint(self):
        assert run_scenario(
            48, 11, 10, 900.0, 5400.0,
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80",
        ) == GOLDEN_LOSSLESS

    def test_lossy_run_matches_seed_fingerprint(self):
        assert run_scenario(
            32, 23, 8, 600.0, 2700.0,
            "SELECT COUNT(*) FROM Flow WHERE DstPort < 1024",
            loss=0.05,
        ) == GOLDEN_LOSSY

    def test_2k_perf_scenario_matches_pre_optimization_fingerprint(self):
        """The 2k probe at full scale: the timer wheel, route cache, and
        summary/selectivity caches must leave every observable number
        exactly where a run without them had it."""
        assert run_scenario(
            2000, 7, 40, 600.0, 900.0,
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80",
        ) == GOLDEN_2K
