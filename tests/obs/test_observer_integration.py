"""End-to-end observability: a traced packet-level run, and the profiler.

The deployment test mirrors the integration-suite idiom (always-on
endsystems, staggered startup) and asserts the trace contains the full
query lifecycle — issue, dissemination, aggregation flushes, predictor
updates — plus a metrics snapshot with per-handler wall time.
"""

from __future__ import annotations

import pytest

from repro.core.deployment import Deployment
from repro.obs import JSONLSink, MemorySink, Observer, SimProfiler, read_jsonl
from repro.sim.simulator import Simulator, handler_label

HORIZON = 7 * 86400.0


def small_system(observer, num=25, dataset=None):
    return Deployment(
        trace="always_on",
        population=num,
        horizon=HORIZON,
        seed=9,
        dataset=dataset,
        startup_stagger=30.0,
    ).build(observer)


@pytest.fixture(scope="module")
def traced_run(small_dataset):
    """One traced quickstart-sized run shared by the assertions below."""
    sink = MemorySink()
    observer = Observer(trace_sink=sink, profile=True)
    system = small_system(observer, dataset=small_dataset)
    system.run_until(120.0)
    origin, descriptor = system.inject_query(
        "SELECT COUNT(*) FROM Flow WHERE SrcPort = 80"
    )
    system.run_until(600.0)
    return system, sink, descriptor


class TestTracedDeployment:
    def test_query_lifecycle_events_present(self, traced_run):
        _, sink, descriptor = traced_run
        for required in (
            "query_issued",
            "dissemination_hop",
            "aggregation_flush",
            "predictor_update",
            "metadata_push",
            "endsystem_up",
        ):
            assert sink.of_kind(required), f"missing {required} events"
        [issued] = sink.of_kind("query_issued")
        assert issued["query_id"] == f"{descriptor.query_id:032x}"
        assert issued["sql"].startswith("SELECT COUNT(*)")

    def test_events_are_keyed_and_timestamped(self, traced_run):
        _, sink, descriptor = traced_run
        qid = f"{descriptor.query_id:032x}"
        hops = sink.of_kind("dissemination_hop")
        assert all(hop["query_id"] == qid for hop in hops)
        assert all(len(hop["node"]) == 32 for hop in hops)
        issue_t = sink.of_kind("query_issued")[0]["t"]
        assert all(hop["t"] >= issue_t for hop in hops)
        roots = [
            flush for flush in sink.of_kind("aggregation_flush") if flush["root"]
        ]
        assert roots and all(flush["rows"] >= 0 for flush in roots)

    def test_metrics_counters_match_trace(self, traced_run):
        system, sink, _ = traced_run
        counters = system.metrics_snapshot()["metrics"]["counters"]
        assert counters["seaweed.queries_issued_total"] == 1.0
        assert counters["seaweed.dissemination_hops_total"] == len(
            sink.of_kind("dissemination_hop")
        )
        assert counters["seaweed.aggregation_flushes_total"] == len(
            sink.of_kind("aggregation_flush")
        )
        assert counters["transport.messages_total"] > 0

    def test_profile_has_per_handler_wall_time(self, traced_run):
        system, _, _ = traced_run
        profile = system.metrics_snapshot()["profile"]
        assert profile["events"] == system.sim.events_processed
        assert profile["wall_total_s"] > 0.0
        assert profile["queue_depth_max"] >= 1
        assert profile["handlers"]
        for stats in profile["handlers"].values():
            assert stats["count"] >= 1
            assert stats["total_s"] >= 0.0
        labels = " ".join(profile["handlers"])
        assert "Transport._deliver" in labels

    def test_jsonl_roundtrip_of_traced_run(self, tmp_path, small_dataset):
        path = str(tmp_path / "trace.jsonl")
        observer = Observer(trace_sink=JSONLSink(path))
        system = small_system(observer, num=15, dataset=small_dataset)
        system.run_until(90.0)
        system.inject_query("SELECT COUNT(*) FROM Flow WHERE SrcPort = 80")
        system.run_until(420.0)
        observer.close()
        records = read_jsonl(path)
        assert records
        kinds = {record["event"] for record in records}
        assert {"query_issued", "dissemination_hop", "aggregation_flush"} <= kinds
        assert all("t" in record and "event" in record for record in records)
        # Simulated timestamps are plain floats after the round trip.
        assert all(isinstance(record["t"], float) for record in records)


class TestDisabledObserver:
    def test_components_store_none_for_no_observer(self, small_dataset):
        system = small_system(None, num=5, dataset=small_dataset)
        assert system.obs is None
        assert system.transport._obs is None
        assert system.overlay.observer is None
        assert all(node._obs is None for node in system.nodes)
        assert system.sim.profiler is None

    def test_snapshot_still_works_when_disabled(self, small_dataset):
        system = small_system(None, num=5, dataset=small_dataset)
        system.run_until(60.0)
        snapshot = system.metrics_snapshot()
        assert snapshot["sim"]["events_processed"] > 0
        assert snapshot["profile"] is None
        assert snapshot["metrics"] is None
        assert snapshot["bandwidth"]["total_tx"] > 0


class TestSimulatorProfiler:
    def test_profiler_attribution(self):
        sim = Simulator()
        profiler = SimProfiler()
        sim.set_profiler(profiler)

        class Worker:
            def tick(self, amount):
                pass

        worker = Worker()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, worker.tick, 1)
        sim.run_until(10.0)
        assert profiler.events == 3
        stats = profiler.handler_stats(
            "TestSimulatorProfiler.test_profiler_attribution.<locals>.Worker.tick"
        )
        assert stats.count == 3
        assert stats.mean_s >= 0.0

    def test_periodic_timer_attributed_to_user_callback(self):
        sim = Simulator()
        profiler = SimProfiler()
        sim.set_profiler(profiler)
        calls = []
        sim.schedule_periodic(5.0, lambda: calls.append(sim.now))
        sim.run_until(20.0)
        assert len(calls) == 4
        [label] = list(profiler.snapshot()["handlers"])
        assert "PeriodicTimer._fire" not in label
        assert "<lambda>" in label

    def test_handler_label_unwraps_partial(self):
        import functools

        def handler(a, b):
            pass

        assert handler_label(functools.partial(handler, 1, b=2)).endswith("handler")

    def test_queue_depth_tracking(self):
        sim = Simulator()
        profiler = SimProfiler()
        sim.set_profiler(profiler)
        for delay in (1.0, 1.0, 1.0, 2.0):
            sim.schedule(delay, lambda: None)
        sim.run_until(5.0)
        assert profiler.queue_depth_max == 3
        assert 0.0 < profiler.queue_depth_mean <= 3.0
        profiler.reset()
        assert profiler.events == 0
        assert profiler.snapshot()["handlers"] == {}

    def test_no_profiler_is_default(self):
        sim = Simulator()
        assert sim.profiler is None
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)  # runs fine with the None fast path
        assert sim.events_processed == 1
