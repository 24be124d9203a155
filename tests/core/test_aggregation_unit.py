"""Unit tests for the result-tree building blocks (no network)."""

import pytest

from repro.core.aggregation import (
    VertexState,
    leaf_vertex,
    parent_vertex,
    vertex_chain,
)
from repro.db.aggregates import AggregateSpec, AggregateState
from repro.db.executor import QueryResult
from repro.overlay.ids import common_suffix_len, ring_distance
from repro.proto import wire


def count_result(rows: int) -> QueryResult:
    return QueryResult(
        specs=[AggregateSpec("COUNT", None)],
        states=[AggregateState.from_count(rows)],
        row_count=rows,
    )


class TestVertexFunction:
    QUERY = 0x12345678123456781234567812345678

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            parent_vertex(self.QUERY, self.QUERY)

    def test_one_digit_fixed_per_step(self):
        vertex = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF
        parent = parent_vertex(self.QUERY, vertex)
        assert common_suffix_len(parent, self.QUERY, 4) == 1
        grand = parent_vertex(self.QUERY, parent)
        assert common_suffix_len(grand, self.QUERY, 4) == 2

    def test_chain_depth_at_most_33(self):
        chain = vertex_chain(self.QUERY, 0)
        assert 2 <= len(chain) <= 33
        assert chain[-1] == self.QUERY

    def test_tree_property_all_paths_reach_root(self):
        # Several leaves, all chains converge and share suffix structure.
        for leaf in (0, 1, 2**127, 0xDEADBEEF << 64):
            assert vertex_chain(self.QUERY, leaf)[-1] == self.QUERY

    def test_leaf_vertex_respects_ownership(self):
        # Simulate a node that owns vertices near itself in the ring.
        own = 0xAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA

        def is_closest(vertex):
            return ring_distance(vertex, own) < (1 << 100)

        target = leaf_vertex(self.QUERY, own, is_closest)
        assert not is_closest(target) or target == self.QUERY


class TestVertexState:
    def test_update_child_versioning(self):
        state = VertexState(query_id=1, vertex_id=2)
        assert state.update_child(7, 1, count_result(5))
        assert not state.update_child(7, 1, count_result(9))
        assert state.update_child(7, 2, count_result(9))
        assert state.merged_result().row_count == 9

    def test_merged_result_sums_children(self):
        state = VertexState(query_id=1, vertex_id=2)
        state.update_child(7, 1, count_result(5))
        state.update_child(8, 1, count_result(3))
        merged = state.merged_result()
        assert merged.row_count == 8
        assert merged.values() == [8.0]

    def test_duplicate_submission_idempotent(self):
        state = VertexState(query_id=1, vertex_id=2)
        result = count_result(5)
        state.update_child(7, 1, result)
        state.update_child(7, 1, result)  # retransmission
        assert state.merged_result().row_count == 5

    def test_empty_state_has_no_result(self):
        assert VertexState(query_id=1, vertex_id=2).merged_result() is None


class TestResultSerialization:
    def test_roundtrip(self):
        result = QueryResult(
            specs=[AggregateSpec("AVG", "Bytes"), AggregateSpec("COUNT", None)],
            states=[
                AggregateState("AVG", count=3, total=30.0, minimum=5.0, maximum=15.0),
                AggregateState.from_count(3),
            ],
            rows=[(1, 2)],
            row_count=3,
        )
        clone = wire.decode_value(wire.encode_value(result))
        assert clone == result
        assert clone.values() == result.values()
        assert clone.rows == [(1, 2)]
