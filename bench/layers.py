"""Per-layer metrics of the traced pass.

Every name listed under ``per_layer`` in ``BENCHMARK.json`` is computed
here, for every workload: a layer that a workload does not exercise
reports 0 (``proto.encode_calls`` on the simulator workloads is the
bypass prediction, not a gap).  Entry-point names appear only in this
file; the tracer itself wraps by rule.
"""

from __future__ import annotations

from repro.proto import Bcast, MetaPush, ResultSubmit

from tracer import IDLE, Tracer

#: ``"module.qualname" -> rows examined``; summed by the tracer per call.
WEIGHTS = {
    "repro.db.executor.execute": lambda query, table: table.num_rows,
    "repro.db.executor.count_matching": lambda query, table: table.num_rows,
}

#: Wire kinds counted by the traced pass, by the class that defines them.
KIND_METRICS = {
    "core.result_submit_msgs": ResultSubmit.KIND,
    "core.metadata_push_msgs": MetaPush.KIND,
    "core.disseminate_msgs": Bcast.KIND,
}

_HISTOGRAM_BUILD = (
    "build_histogram", "EquiDepthHistogram.build", "FrequencyHistogram.build",
    "EquiDepthHistogram.__init__", "FrequencyHistogram.__init__",
)
_SUMMARY = ("LocalDatabase.summary_state", "LocalDatabase.build_summaries")
_INSERT = ("LocalDatabase.insert",)


def _per_call(self_s: float, spans: int) -> float:
    return 1e6 * self_s / spans if spans else 0.0


def from_tracer(tracer: Tracer, window_s: float) -> dict[str, float]:
    """The metrics that come from spans and call counts alone."""
    by_layer = tracer.self_by_layer()
    out = {f"{layer}.self_s": by_layer.get(layer, 0.0)
           for layer in ("sim", "net", "overlay")}

    out["sim.schedule_calls"] = tracer.calls_of(("sim",), ("Simulator.schedule_at",))
    out["net.send_calls"] = tracer.calls_of(
        ("net", "serve"), ("Transport.send", "AsyncioTransport.send"))

    route = tracer.select(("overlay",), contains="route")
    out["overlay.route_calls"] = tracer.calls_of(("overlay",), ("PastryNode.route",))
    out["overlay.route_us_per_call"] = _per_call(route[2], route[0])
    out["overlay.handled_msgs"] = tracer.select(
        ("overlay",), callers=("net", "serve"))[0]
    out["overlay.joins"] = tracer.calls_of(("overlay",), ("PastryNode.go_online",))
    out["overlay.leaves"] = tracer.calls_of(("overlay",), ("PastryNode.go_offline",))

    out["proto.size_calls"] = tracer.calls_of(("proto",), ("ProtoMessage.body_size",))
    out["proto.size_self_s"] = (
        tracer.select(("proto",))[2] - tracer.select(("proto.wire", "proto.framing"))[2]
    )
    encode = tracer.select(("proto.wire",), labels=("encode_message",))
    decode = tracer.select(("proto.wire",), labels=("decode_message",))
    out["proto.encode_calls"] = encode[0]
    out["proto.encode_us_per_msg"] = _per_call(encode[2], encode[0])
    out["proto.decode_calls"] = decode[0]
    out["proto.decode_us_per_msg"] = _per_call(decode[2], decode[0])
    out["proto.framing_self_s"] = tracer.select(("proto.framing",))[2]

    out["db.parse_calls"] = tracer.calls_of(("db.parse",), ("parse",))
    out["db.parse_self_s"] = tracer.select(("db.parse",))[2]
    build = tracer.select(("db.histogram",), labels=_HISTOGRAM_BUILD)
    summary = tracer.select(("db",), labels=_SUMMARY)
    insert = tracer.select(("db",), labels=_INSERT)
    db_plain = tracer.select(("db",))[2] - tracer.select(("db.parse", "db.histogram"))[2]
    out["db.execute_calls"] = tracer.calls_of(("db",), ("execute", "count_matching"))
    out["db.execute_self_s"] = db_plain - summary[2] - insert[2]
    rows = sum(tracer.weighed.values())
    out["db.rows_scanned"] = rows
    out["db.rows_scanned_per_s"] = (
        rows / out["db.execute_self_s"] if out["db.execute_self_s"] > 0 else 0.0
    )
    out["db.estimate_calls"] = tracer.calls_of(("db.histogram",), ("estimate_row_count",))
    out["db.estimate_self_s"] = tracer.select(("db.histogram",))[2] - build[2]
    out["db.summary_calls"] = tracer.calls_of(("db",), ("LocalDatabase.summary_state",))
    out["db.summary_self_s"] = summary[2] + build[2]
    out["db.summary_rebuilds"] = tracer.calls_of(("db.histogram",), ("build_histogram",))
    out["db.insert_calls"] = tracer.calls_of(("db",), _INSERT)
    out["db.insert_self_s"] = insert[2]

    for part in ("dissemination", "aggregation", "metadata", "predictor"):
        out[f"core.{part}_self_s"] = tracer.select((f"core.{part}",))[2]

    out["serve.transport_self_s"] = tracer.select(("serve.transport",))[2]
    out["serve.service_self_s"] = tracer.select(("serve.service",))[2]

    # The loop's blocking waits (live workload) are neither work nor a gap.
    idle = by_layer.get(IDLE, 0.0)
    attributed = sum(by_layer.values()) - idle
    out["trace.unattributed_frac"] = max(0.0, 1.0 - attributed / (window_s - idle))
    return out


def layer_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """(layer, self seconds) for every layer that worked, largest first."""
    shares = tracer.self_by_layer()
    shares.pop(IDLE, None)
    return sorted(shares.items(), key=lambda item: -item[1])

