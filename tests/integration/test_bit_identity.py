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

# Deliberately re-captured once since: acknowledged metadata replication
# (a replica-set refresh sends a replica that acknowledged the record's
# content epoch only the new version) and the join fix (an unjoined node
# ignores a join; only joined nodes are bootstraps).  Only bytes and
# events moved: events 25539 -> 27507, messages 20060 -> 22028 (the
# acks), total_tx 40654084 -> 25987840, maintenance 33841248 ->
# 19175004.  Rows, predictor time and history are unchanged; the oracle
# passes before and after.
GOLDEN_LOSSLESS = {
    "events_processed": 27507,
    "total_tx": 25987840.0,
    "total_rx": 25987840.0,
    "messages": 22028,
    "tx_by_category": {
        "maintenance": 19175004.0,
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

# Deliberately re-captured twice since.  First: uniform loss became a
# fault-plan event (a run-long MessageLoss), so the drops draw from that
# event's fault stream instead of the transport's own "loss" stream, and
# count under "fault_loss".  Rows and the predictor total were unchanged.
# Second: acknowledged metadata replication and the join fix (see
# GOLDEN_LOSSLESS).  The acks are messages too, so the loss draws fall on
# different messages: events 7160 -> 8037, total_tx 14534602 -> 7483478,
# fault_loss drops 290 -> 338, reroutes 16 -> 26, predictor_ready_at
# 616.41 -> 624.22, expected_total 35060 -> 34987, history 61 -> 55.
# Rows stay 35060, equal to the truth; the oracle passes before and after.
GOLDEN_LOSSY = {
    "events_processed": 8037,
    "total_tx": 7483478.0,
    "total_rx": 7483478.0,
    "messages": 6631,
    "tx_by_category": {
        "maintenance": 5737408.0,
        "overlay": 1446016.0,
        "query": 300054.0,
    },
    "drops_by_reason": {"fault_loss": 338},
    "overlay_online": 19,
    "reroutes": 26,
    "routing_drops": 0,
    "rows": 35060,
    "predictor_ready_at": 624.2189096188264,
    "expected_total": 34987.0,
    "history_len": 55,
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
#
# Re-captured a second time: acknowledged metadata replication and the
# join fix (see GOLDEN_LOSSLESS).  The join fix ends a second ring founded
# by an unjoined node during the roll-out, so every online endsystem now
# learns the query (learned 1273 -> 1386): rows 756424 -> 839930,
# expected_total 755680 -> 839930, predictor_ready_at 602.284 -> 602.421,
# history 489 -> 528.  The acks cut total_tx 948171138 -> 335176258
# (maintenance 901.0 -> 286.5 MB) for events 270026 -> 301913.  Oracle at
# 900 s: final_equality before (756424 of 764624 contributed rows) and
# after (839930 of 840620, still in flight); run on to 1200 s, the old
# tree still fails (760121 of 774258) and this one passes (840620).
GOLDEN_2K = {
    "events_processed": 301913,
    "total_tx": 335176258.0,
    "total_rx": 335176258.0,
    "messages": 253364,
    "tx_by_category": {
        "maintenance": 286491084.0,
        "overlay": 34796640.0,
        "query": 13888534.0,
    },
    "drops_by_reason": {},
    "overlay_online": 1386,
    "reroutes": 0,
    "routing_drops": 0,
    "rows": 839930,
    "predictor_ready_at": 602.4211565532298,
    "expected_total": 839930.0,
    "history_len": 528,
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
