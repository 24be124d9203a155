"""Local query execution.

Runs a :class:`~repro.db.sql.ParsedQuery` against one endsystem's local
tables.  Aggregate queries produce *mergeable* partial states (so the
result tree can combine them in-network); projection queries produce raw
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.db.aggregates import AggregateSpec, AggregateState
from repro.db.schema import SchemaError
from repro.db.sql import ParsedQuery
from repro.db.table import Table


@dataclass
class QueryResult:
    """The outcome of a local (or partially aggregated) query execution.

    Attributes:
        specs: Aggregate specs, parallel to ``states`` (empty for projections).
        states: Mergeable partial aggregate states.
        rows: Materialized rows for projection queries.
        row_count: Number of rows that matched the predicate — the unit of
            Seaweed's completeness metric.
    """

    specs: list[AggregateSpec] = field(default_factory=list)
    states: list[AggregateState] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    row_count: int = 0
    #: GROUP BY support: {group key tuple: [one state per spec]}.  When
    #: non-empty, ``states`` holds the ungrouped totals and ``groups``
    #: the per-group partials — both mergeable in-network.
    groups: dict[tuple, list[AggregateState]] = field(default_factory=dict)

    def merge(self, other: "QueryResult") -> "QueryResult":
        """Combine two partial results (in-network aggregation step)."""
        if [spec.label for spec in self.specs] != [spec.label for spec in other.specs]:
            raise ValueError("cannot merge results of different queries")
        merged_states = [
            mine.merge(theirs) for mine, theirs in zip(self.states, other.states)
        ]
        merged_groups: dict[tuple, list[AggregateState]] = {
            key: list(states) for key, states in self.groups.items()
        }
        for key, states in other.groups.items():
            existing = merged_groups.get(key)
            if existing is None:
                merged_groups[key] = list(states)
            else:
                merged_groups[key] = [
                    mine.merge(theirs) for mine, theirs in zip(existing, states)
                ]
        return QueryResult(
            specs=list(self.specs),
            states=merged_states,
            rows=self.rows + other.rows,
            row_count=self.row_count + other.row_count,
            groups=merged_groups,
        )

    def values(self) -> list[Optional[float]]:
        """Final aggregate values, one per SELECT item."""
        return [state.result() for state in self.states]

    def group_values(self) -> dict[tuple, list[Optional[float]]]:
        """Final per-group aggregate values (GROUP BY queries)."""
        return {
            key: [state.result() for state in states]
            for key, states in self.groups.items()
        }

    @classmethod
    def empty_like(cls, specs: list[AggregateSpec]) -> "QueryResult":
        """The identity result for a given aggregate signature."""
        return cls(
            specs=list(specs),
            states=[AggregateState.empty(spec.func) for spec in specs],
        )


def execute(query: ParsedQuery, table: Table) -> QueryResult:
    """Execute ``query`` against ``table``, returning a mergeable result."""
    if query.table.lower() != table.name.lower():
        raise SchemaError(
            f"query targets table {query.table!r} but got {table.name!r}"
        )
    mask = query.predicate.evaluate(table)
    row_count = int(mask.sum())
    if query.is_aggregate:
        states = _aggregate_states(query.aggregates, table, mask, row_count)
        groups: dict[tuple, list[AggregateState]] = {}
        if query.group_by:
            groups = _grouped_states(query, table, mask)
        return QueryResult(
            specs=list(query.aggregates),
            states=states,
            row_count=row_count,
            groups=groups,
        )
    columns = query.projection
    if columns == ("*",):
        rows = table.rows(mask)
    else:
        arrays = [table.column(name)[mask] for name in columns]
        rows = list(zip(*arrays)) if arrays and len(arrays[0]) else []
    return QueryResult(rows=rows, row_count=row_count)


def _aggregate_states(
    specs: tuple[AggregateSpec, ...], table: Table, mask: np.ndarray, row_count: int
) -> list[AggregateState]:
    states = []
    for spec in specs:
        if spec.column is None:
            states.append(AggregateState.from_count(row_count))
        else:
            values = table.column(spec.column)[mask]
            if spec.func == "COUNT":
                states.append(AggregateState.from_count(len(values)))
            else:
                states.append(AggregateState.from_values(spec.func, np.asarray(values)))
    return states


def _grouped_states(
    query: ParsedQuery, table: Table, mask: np.ndarray
) -> dict[tuple, list[AggregateState]]:
    """Per-group partial states for a GROUP BY query."""
    key_columns = [table.column(name)[mask] for name in query.group_by]
    if len(key_columns) == 0 or len(key_columns[0]) == 0:
        return {}
    keys = list(zip(*key_columns))
    groups: dict[tuple, list[AggregateState]] = {}
    order: dict[tuple, list[int]] = {}
    for index, key in enumerate(keys):
        order.setdefault(tuple(k.item() if hasattr(k, "item") else k for k in key), []).append(index)
    masked_columns = {
        spec.column: table.column(spec.column)[mask]
        for spec in query.aggregates
        if spec.column is not None
    }
    for key, indices in order.items():
        states = []
        for spec in query.aggregates:
            if spec.column is None:
                states.append(AggregateState.from_count(len(indices)))
            else:
                values = masked_columns[spec.column][indices]
                if spec.func == "COUNT":
                    states.append(AggregateState.from_count(len(values)))
                else:
                    states.append(
                        AggregateState.from_values(spec.func, np.asarray(values))
                    )
        groups[key] = states
    return groups


def count_matching(query: ParsedQuery, table: Table) -> int:
    """Exact number of rows relevant to ``query`` (the completeness unit)."""
    return int(query.predicate.evaluate(table).sum())
