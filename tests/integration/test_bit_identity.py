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
#
# Re-captured a second time: every push, periodic ones included, sends a
# replica that acknowledged the owner's content epoch only the version,
# and a version-only refresh is not acknowledged.  Events 27507 -> 26057,
# messages 22028 -> 20578, total_tx 25987840 -> 12334744, maintenance
# 19175004 -> 5521908.  Rows, predictor time, expected_total and history
# are unchanged; the oracle passes before and after (0 violations).
#
# Re-captured a third time: delta vertex replication (a backup that holds
# the primary's chain gets only the changed child entry).  Only bytes
# moved: total_tx 12334744 -> 11694472, query 1146340 -> 506068
# (SW_VERTEX_REPL 862476 -> 222204).  Events, messages, rows, predictor
# time and history are unchanged; the oracle passes before and after
# (0 violations).
GOLDEN_LOSSLESS = {
    "events_processed": 26057,
    "total_tx": 11694472.0,
    "total_rx": 11694472.0,
    "messages": 20578,
    "tx_by_category": {
        "maintenance": 5521908.0,
        "overlay": 5666496.0,
        "query": 506068.0,
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
# Third: version-only periodic pushes to acknowledged replicas (see
# GOLDEN_LOSSLESS).  Fewer messages again move the loss draws: events
# 8037 -> 7408, messages 6631 -> 6093, total_tx 7483478 -> 4275038,
# fault_loss drops 338 -> 308, reroutes 26 -> 16, predictor_ready_at
# 624.22 -> 606.70, expected_total 34987 -> 35060, history 55 -> 60.
# Rows stay 35060, equal to the truth; the oracle passes before and after
# (0 violations).
# Fourth: delta vertex replication (see GOLDEN_LOSSLESS).  A lost delta
# now draws a VertexNack and the whole table (35 NACKs here), and those
# messages move the loss draws: events 7408 -> 7626, messages 6093 ->
# 6261, total_tx 4275038 -> 4185862 (SW_VERTEX_REPL 168700 -> 82236,
# plus 3360 of NACKs), fault_loss drops 308 -> 319, reroutes 16 -> 19,
# predictor_ready_at 606.70 -> 616.38.  Rows, expected_total and history
# are unchanged (rows 35060, equal to the truth); the oracle passes
# before and after (0 violations).
GOLDEN_LOSSY = {
    "events_processed": 7626,
    "total_tx": 4185862.0,
    "total_rx": 4185862.0,
    "messages": 6261,
    "tx_by_category": {
        "maintenance": 2542540.0,
        "overlay": 1441632.0,
        "query": 201690.0,
    },
    "drops_by_reason": {"fault_loss": 319},
    "overlay_online": 19,
    "reroutes": 19,
    "routing_drops": 0,
    "rows": 35060,
    "predictor_ready_at": 616.3820857206152,
    "expected_total": 35060.0,
    "history_len": 60,
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
#
# Re-captured a third time: version-only periodic pushes to acknowledged
# replicas (see GOLDEN_LOSSLESS).  Events 301913 -> 294039, messages
# 253364 -> 245486, total_tx 335176258 -> 260963130, maintenance
# 286491084 -> 212277956.  Rows, expected_total, predictor time and
# history are unchanged.  Oracle: final_equality at 900 s before and
# after (rows in flight); run on to 1200 s, it passes before and after
# (840620 rows).
#
# Re-captured a fourth time: delta vertex replication (see
# GOLDEN_LOSSLESS).  Only bytes moved: total_tx 260963130 -> 252940146,
# query 13888534 -> 5865550 (SW_VERTEX_REPL 10004262 -> 1981278).
# Events, messages, rows, expected_total, predictor time and history are
# unchanged.  Oracle: final_equality at 900 s before and after (rows in
# flight); run on to 1200 s, it passes (840620 rows).
GOLDEN_2K = {
    "events_processed": 294039,
    "total_tx": 252940146.0,
    "total_rx": 252940146.0,
    "messages": 245486,
    "tx_by_category": {
        "maintenance": 212277956.0,
        "overlay": 34796640.0,
        "query": 5865550.0,
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
