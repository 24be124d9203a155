"""Tests for the structured trace log: sinks, records, and the null path."""

from __future__ import annotations

import io
import json
import tracemalloc

from repro.obs.observer import Observer
from repro.obs.tracing import JSONLSink, MemorySink, read_jsonl


class TestSinks:
    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.emit({"event": "a"})
        sink.emit({"event": "b"})
        sink.emit({"event": "a"})
        assert len(sink.events) == 3
        assert len(sink.of_kind("a")) == 2

    def test_memory_sink_limit(self):
        sink = MemorySink(limit=2)
        for index in range(5):
            sink.emit({"event": "e", "i": index})
        assert len(sink.events) == 2
        assert sink.dropped == 3

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JSONLSink(path)
        sink.emit({"t": 1.0, "event": "x", "node": "a" * 32})
        sink.emit({"t": 2.0, "event": "y"})
        assert sink.records_written == 2
        sink.close()
        sink.close()  # idempotent
        records = read_jsonl(path)
        assert [record["event"] for record in records] == ["x", "y"]
        assert records[0]["node"] == "a" * 32

    def test_jsonl_sink_external_handle_not_closed(self):
        buffer = io.StringIO()
        sink = JSONLSink(buffer)
        sink.emit({"event": "z"})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["event"] == "z"

    def test_jsonl_sink_stringifies_unknown_types(self):
        buffer = io.StringIO()
        sink = JSONLSink(buffer)
        sink.emit({"event": "odd", "value": complex(1, 2)})
        record = json.loads(buffer.getvalue())
        assert isinstance(record["value"], str)


class TestTracer:
    """The Observer writes the trace records itself."""

    def test_event_stamped_with_fields(self):
        sink = MemorySink()
        Observer(trace_sink=sink).metadata_push(12.5, 0xAB, 3)
        assert sink.events == [
            {"t": 12.5, "event": "metadata_push", "node": f"{0xAB:032x}",
             "replicas": 3}
        ]

    def test_disabled_tracer_emits_nothing(self):
        observer = Observer()
        assert observer.sink is None
        observer.query_issued(0.0, 1, 2, "SELECT COUNT(*) FROM Flow")
        observer.message_drop(0.0, "dst", "kind", "loss")
        observer.close()  # nothing to close: must not raise
        # Counters still count without a sink.
        counters = observer.metrics.snapshot()["counters"]
        assert counters["seaweed.queries_issued_total"] == 1.0


class TestNullPathCost:
    def test_disabled_event_path_allocates_nothing_lasting(self):
        """An Observer without a sink builds and keeps no record."""
        observer = Observer()
        # Warm up (interned ints, method caches).
        for _ in range(100):
            observer.leafset_repair(0.0, 1, 2)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for index in range(10_000):
            observer.leafset_repair(float(index), index, index + 1)
            observer.message_drop(float(index), "dst", "kind", "loss")
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Zero retained growth modulo allocator noise (far below one
        # record per call: 10k dict records would be megabytes).
        assert after - before < 16_384
