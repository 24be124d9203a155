"""Tests for the labeled-series metrics registry."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry, series_name


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1.0)
        assert counter.value == 0.0


class TestGauge:
    def test_set(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.set(13.0)
        assert gauge.value == 13.0


class TestSeriesNaming:
    def test_no_labels(self):
        assert series_name("a.b_total", ()) == "a.b_total"

    def test_labels_render_sorted(self):
        registry = MetricsRegistry()
        registry.counter("x", b=1, a="two")
        [(name, labels, _)] = list(registry.series())
        assert series_name(name, labels) == "x{a=two,b=1}"


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", route="/a")
        second = registry.counter("hits", route="/a")
        other = registry.counter("hits", route="/b")
        assert first is second
        assert first is not other
        assert len(registry) == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        assert registry.counter("m", a=1, b=2) is registry.counter("m", b=2, a=1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(TypeError, match="not a gauge"):
            registry.gauge("dual")
        registry.gauge("g")
        with pytest.raises(TypeError, match="not a counter"):
            registry.counter("g")

    def test_snapshot_grouping(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(3)
        registry.gauge("g").set(7.0)
        assert registry.snapshot() == {
            "counters": {"c{k=v}": 3.0}, "gauges": {"g": 7.0}
        }

    def test_write_jsonl_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(0.5)
        path = str(tmp_path / "metrics.jsonl")
        written = registry.write_jsonl(path)
        assert written == 2
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        by_name = {record["name"]: record for record in records}
        assert by_name["c"]["type"] == "counter"
        assert by_name["c"]["value"] == 2.0
        assert by_name["g"]["type"] == "gauge"
        assert by_name["g"]["value"] == 0.5
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]

    def test_write_jsonl_to_handle(self):
        registry = MetricsRegistry()
        registry.gauge("g", zone="x").set(1.5)
        buffer = io.StringIO()
        assert registry.write_jsonl(buffer) == 1
        record = json.loads(buffer.getvalue())
        assert record == {
            "type": "gauge", "name": "g", "labels": {"zone": "x"}, "value": 1.5
        }

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path):
        """A host rewrites its metrics file while readers read it: a
        rewrite that fails part-way must leave the previous file whole
        and no temporary file behind."""
        path = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        registry.counter("a").inc(1)
        registry.counter("b").inc(2)
        registry.write_jsonl(str(path))
        before = path.read_text(encoding="utf-8")
        assert len(before.splitlines()) == 2
        # "b" now holds a value JSON cannot encode: the rewrite raises
        # after writing the record for "a".
        registry.counter("a").inc(1)
        registry.counter("b").value = object()
        with pytest.raises(TypeError):
            registry.write_jsonl(str(path))
        assert path.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]
