"""GROUP BY results must pay for their group states on the wire.

Regression for an undercounting bug: ``result_states_size`` ignored the
``groups`` table of a query result, so GROUP BY submissions and vertex
replication rode the wire charged only for their ungrouped state
vector.  Every size here is cross-checked against a reference computed
directly from the result's structure.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.aggregation import VertexState
from repro.core.query import QueryDescriptor
from repro.db.aggregates import AggregateSpec, AggregateState
from repro.db.executor import QueryResult
from repro.proto import codec, wire
from repro.proto.messages import ResultSubmit, VertexRepl


def grouped_result() -> QueryResult:
    """A GROUP BY result: 2 specs, 3 groups of 2 states each."""
    specs = [AggregateSpec("SUM", "Bytes"), AggregateSpec("COUNT", None)]
    states = [
        AggregateState("SUM", count=10, total=4096.0),
        AggregateState.from_count(10),
    ]
    groups = {
        (app,): [
            AggregateState("SUM", count=3, total=512.0),
            AggregateState.from_count(3),
        ]
        for app in ("HTTP", "SMB", "DNS")
    }
    return QueryResult(specs=specs, states=states, row_count=10, groups=groups)


def ungrouped(result: QueryResult) -> QueryResult:
    """The same result with its group table dropped."""
    return dataclasses.replace(result, groups={})


def reference_states_size(result: QueryResult) -> int:
    """What the result owes: every state vector, keyed groups."""
    size = codec.AGG_STATE * len(result.states)
    for states in result.groups.values():
        size += codec.ID + codec.AGG_STATE * len(states)
    return size


@pytest.fixture
def descriptor() -> QueryDescriptor:
    return QueryDescriptor.create(
        "SELECT SUM(Bytes), COUNT(*) FROM Flow GROUP BY App",
        origin=0x99,
        injected_at=50.0,
    )


class TestResultStatesSize:
    def test_matches_serialized_payload(self):
        result = grouped_result()
        clone = wire.decode_value(wire.encode_value(result))
        assert codec.result_states_size(clone) == reference_states_size(result)

    def test_groups_cost_key_plus_states(self):
        result = grouped_result()
        grouped_cost = codec.result_states_size(result) - codec.result_states_size(
            ungrouped(result)
        )
        assert grouped_cost == 3 * (codec.ID + 2 * codec.AGG_STATE)

    def test_empty_groups_cost_legacy_formula(self):
        assert codec.result_states_size(ungrouped(grouped_result())) == (
            codec.AGG_STATE * 2
        )


class TestGroupedMessageSizes:
    def test_result_submit_charges_groups(self, descriptor):
        result = grouped_result()
        grouped = ResultSubmit(
            descriptor=descriptor, vertex_id=1, contributor=2,
            submitter=3, version=1, result=result,
        )
        plain = ResultSubmit(
            descriptor=descriptor, vertex_id=1, contributor=2,
            submitter=3, version=1, result=ungrouped(result),
        )
        assert grouped.body_size() - plain.body_size() == 3 * (
            codec.ID + 2 * codec.AGG_STATE
        )

    def test_vertex_repl_charges_groups(self, descriptor):
        result = grouped_result()
        children = {17: (1, result), 42: (2, ungrouped(result))}
        msg = VertexRepl(
            descriptor=descriptor, vertex_id=1, primary=2,
            up_version=1, children=children,
            children_size=codec.vertex_children_size(children.values()),
            seq=1, full=True,
        )
        expected_children = sum(
            codec.ID
            + reference_states_size(child)
            + codec.ROW * len(child.rows)
            for _, child in children.values()
        )
        assert msg.body_size() == 32 + 8 + expected_children + len(descriptor.sql)

    def test_vertex_state_wire_size_includes_groups(self):
        result = grouped_result()
        state = VertexState(query_id=1, vertex_id=2)
        state.update_child(7, 1, result)
        plain_state = VertexState(query_id=1, vertex_id=2)
        plain_state.update_child(7, 1, ungrouped(result))
        grouped_cost = codec.vertex_children_size(
            state.children.values()
        ) - codec.vertex_children_size(plain_state.children.values())
        assert grouped_cost == 3 * (codec.ID + 2 * codec.AGG_STATE)
