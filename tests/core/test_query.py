"""Tests for query descriptors and status tracking."""

import pytest

from repro.core.predictor import CompletenessPredictor
from repro.core.query import QueryDescriptor, QueryStatus
from repro.db.executor import QueryResult
from repro.db.aggregates import AggregateSpec, AggregateState
from repro.proto import codec, wire


def make_descriptor(**overrides) -> QueryDescriptor:
    defaults = {
        "sql": "SELECT COUNT(*) FROM Flow",
        "origin": 42,
        "injected_at": 1000.0,
    }
    defaults.update(overrides)
    return QueryDescriptor.create(**defaults)


class TestDescriptor:
    def test_query_id_depends_on_text_and_time(self):
        a = make_descriptor()
        b = make_descriptor(sql="SELECT SUM(Bytes) FROM Flow")
        c = make_descriptor(injected_at=2000.0)
        assert a.query_id != b.query_id
        assert a.query_id != c.query_id

    def test_same_inputs_same_id(self):
        assert make_descriptor().query_id == make_descriptor().query_id

    def test_expiry(self):
        descriptor = make_descriptor(lifetime=100.0)
        assert descriptor.expires_at == 1100.0

    def test_payload_roundtrip(self):
        for descriptor in (
            make_descriptor(now_binding=123.0),
            make_descriptor(continuous_period=30.0, lifetime=600.0),
        ):
            clone = wire.decode_value(wire.encode_value(descriptor))
            assert clone == descriptor

    def test_parse_uses_binding(self):
        descriptor = QueryDescriptor.create(
            "SELECT COUNT(*) FROM Flow WHERE ts <= NOW()",
            origin=1,
            injected_at=0.0,
            now_binding=500.0,
        )
        assert descriptor.parsed.predicate.value == 500.0
        assert descriptor.parsed is descriptor.parsed

    def test_wire_size_tracks_sql_length(self):
        short = make_descriptor()
        long = make_descriptor(sql="SELECT COUNT(*) FROM Flow WHERE " + "x = 1 AND " * 20 + "y = 2")
        extra = len(long.sql) - len(short.sql)
        assert codec.descriptor_size(long) == codec.descriptor_size(short) + extra


class TestStatus:
    def _result(self, rows: int) -> QueryResult:
        return QueryResult(
            specs=[AggregateSpec("COUNT", None)],
            states=[AggregateState.from_count(rows)],
            row_count=rows,
        )

    def test_rows_processed(self):
        status = QueryStatus(make_descriptor())
        assert status.rows_processed == 0
        status.result = self._result(10)
        assert status.rows_processed == 10

    def test_observed_completeness_with_predictor(self):
        status = QueryStatus(make_descriptor())
        predictor = CompletenessPredictor(16, 86400.0)
        predictor.add_immediate(100.0)
        status.predictor = predictor
        status.result = self._result(50)
        assert status.observed_completeness() == 0.5

    def test_observed_completeness_explicit_total(self):
        status = QueryStatus(make_descriptor())
        status.result = self._result(30)
        assert status.observed_completeness(expected_total=60.0) == 0.5

    def test_observed_completeness_capped(self):
        status = QueryStatus(make_descriptor())
        status.result = self._result(120)
        assert status.observed_completeness(expected_total=100.0) == 1.0

    def test_no_predictor_is_zero(self):
        status = QueryStatus(make_descriptor())
        status.result = self._result(5)
        assert status.observed_completeness() == 0.0

    def test_offer_predictor_keeps_coverage_monotone(self):
        def predictor(endsystems: int) -> CompletenessPredictor:
            made = CompletenessPredictor(16, 86400.0)
            for _ in range(endsystems):
                made.add_immediate(1.0)
            return made

        status = QueryStatus(make_descriptor())
        first, equal, smaller, larger = predictor(5), predictor(5), predictor(3), predictor(8)
        assert status.offer_predictor(first, now=10.0)
        assert status.offer_predictor(equal, now=20.0)
        assert status.predictor is equal
        # A refinement covering fewer endsystems is refused.
        assert not status.offer_predictor(smaller, now=30.0)
        assert status.predictor is equal
        assert status.offer_predictor(larger, now=40.0)
        assert status.predictor is larger
        # The ready time is the first acceptance, never restamped.
        assert status.predictor_ready_at == 10.0

    def test_history(self):
        status = QueryStatus(make_descriptor())
        status.result = self._result(10)
        status.record(5.0)
        status.result = self._result(25)
        status.record(9.0)
        assert status.history == [(5.0, 10), (9.0, 25)]
        assert status.rows_at(4.0) == 0
        assert status.rows_at(6.0) == 10
        assert status.rows_at(100.0) == 25
