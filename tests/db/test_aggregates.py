"""Tests for mergeable aggregate states."""

import numpy as np
import pytest

from repro.db.aggregates import (
    AggregateError,
    AggregateSpec,
    AggregateState,
    merge_states,
)


class TestSpec:
    def test_label(self):
        assert AggregateSpec("SUM", "Bytes").label == "SUM(Bytes)"
        assert AggregateSpec("COUNT", None).label == "COUNT(*)"

    def test_star_only_for_count(self):
        with pytest.raises(AggregateError):
            AggregateSpec("SUM", None)

    def test_unknown_function(self):
        with pytest.raises(AggregateError):
            AggregateSpec("MEDIAN", "x")


class TestFromValues:
    def test_sum(self):
        state = AggregateState.from_values("SUM", np.array([1.0, 2.0, 3.0]))
        assert state.result() == 6.0

    def test_avg(self):
        state = AggregateState.from_values("AVG", np.array([2.0, 4.0]))
        assert state.result() == 3.0

    def test_min_max(self):
        values = np.array([5.0, -1.0, 7.0])
        assert AggregateState.from_values("MIN", values).result() == -1.0
        assert AggregateState.from_values("MAX", values).result() == 7.0

    def test_count(self):
        state = AggregateState.from_values("COUNT", np.array([9, 9, 9]))
        assert state.result() == 3.0

    def test_count_star_from_count(self):
        assert AggregateState.from_count(42).result() == 42.0

    def test_empty_values_is_identity(self):
        state = AggregateState.from_values("SUM", np.array([]))
        assert state.count == 0
        assert state.result() is None

    def test_null_semantics(self):
        # SQL: aggregates over zero rows are NULL (COUNT is 0).
        assert AggregateState.empty("SUM").result() is None
        assert AggregateState.empty("AVG").result() is None
        assert AggregateState.empty("MIN").result() is None
        assert AggregateState.empty("COUNT").result() == 0.0


class TestMerge:
    def test_sum_merge(self):
        a = AggregateState.from_values("SUM", np.array([1.0, 2.0]))
        b = AggregateState.from_values("SUM", np.array([10.0]))
        assert a.merge(b).result() == 13.0

    def test_avg_merge_weights_by_count(self):
        a = AggregateState.from_values("AVG", np.array([1.0]))
        b = AggregateState.from_values("AVG", np.array([4.0, 4.0, 4.0]))
        assert a.merge(b).result() == pytest.approx(13.0 / 4)

    def test_merge_with_identity(self):
        a = AggregateState.from_values("MAX", np.array([3.0]))
        merged = a.merge(AggregateState.empty("MAX"))
        assert merged.result() == 3.0

    def test_merge_mismatched_functions(self):
        with pytest.raises(AggregateError):
            AggregateState.empty("SUM").merge(AggregateState.empty("AVG"))

    def test_merge_does_not_mutate(self):
        a = AggregateState.from_values("SUM", np.array([1.0]))
        b = AggregateState.from_values("SUM", np.array([2.0]))
        a.merge(b)
        assert a.result() == 1.0
        assert b.result() == 2.0

    def test_merge_states_folds_list(self):
        states = [
            AggregateState.from_values("COUNT", np.array([0] * n)) for n in (1, 2, 3)
        ]
        assert merge_states(states, "COUNT").result() == 6.0

    def test_merge_states_empty_list(self):
        assert merge_states([], "SUM").result() is None


class TestSerialization:
    def test_tuple_roundtrip(self):
        state = AggregateState.from_values("AVG", np.array([1.0, 5.0]))
        assert AggregateState.from_tuple(state.to_tuple()) == state

    def test_wire_size_constant(self):
        from repro.db.executor import QueryResult
        from repro.proto import codec

        small = AggregateState.from_values("SUM", np.array([1.0]))
        large = AggregateState.from_values("SUM", np.arange(10000.0))
        sizes = {
            codec.result_states_size(QueryResult(states=[state]))
            for state in (small, large)
        }
        assert sizes == {codec.AGG_STATE}
