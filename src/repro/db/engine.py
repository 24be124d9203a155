"""The per-endsystem local database facade.

A :class:`LocalDatabase` is what runs on every endsystem: it holds that
endsystem's horizontal partition of each table, executes local queries,
and builds the histogram summaries that Seaweed replicates as metadata.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.db.executor import QueryResult, count_matching, execute
from repro.db.histogram import Histogram, SelectivityCache, build_histogram
from repro.db.schema import Schema, SchemaError
from repro.db.sql import ParsedQuery, parse
from repro.db.table import Table


class LocalDatabase:
    """All local tables for one endsystem."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._generation = 0  # bumped on every write; drives summary refresh
        # Summaries are rebuilt only when the data generation changes:
        # rebuilding is by far the simulator's hottest operation (every
        # metadata push re-quantiles every indexed column), and pushes
        # vastly outnumber writes.  One cached entry: (generation,
        # summaries, selectivity cache).
        self._summary_state: Optional[
            tuple[int, dict[str, dict[str, Histogram]], SelectivityCache]
        ] = None
        # Exact answers of the current data generation, shared by
        # reference with every caller (results are never mutated in
        # place).  Endsystems that share a profile database therefore
        # run each query once; every write empties the memo.
        self._answers: dict[ParsedQuery, QueryResult] = {}

    def create_table(self, schema: Schema) -> Table:
        """Create an empty table from ``schema``."""
        key = schema.table_name.lower()
        if key in self._tables:
            raise SchemaError(f"table {schema.table_name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        found = self._tables.get(name.lower())
        if found is None:
            raise SchemaError(f"no such table {name!r}")
        return found

    def has_table(self, name: str) -> bool:
        """Whether the table exists."""
        return name.lower() in self._tables

    @property
    def table_names(self) -> list[str]:
        """Declared table names."""
        return [table.name for table in self._tables.values()]

    @property
    def generation(self) -> int:
        """Monotone write counter; summaries are stale if behind it."""
        return self._generation

    def load(self, table_name: str, columns: Mapping[str, Sequence[Any]]) -> None:
        """Bulk-load columns into a table (local update — single endsystem)."""
        self.table(table_name).load_columns(columns)
        self._generation += 1
        self._answers.clear()

    def insert(self, table_name: str, row: Mapping[str, Any]) -> None:
        """Insert one row (local update)."""
        self.table(table_name).insert_row(row)
        self._generation += 1
        self._answers.clear()

    def execute_sql(self, text: str, now: Optional[float] = None) -> QueryResult:
        """Parse and execute SQL against local data."""
        return self.execute(parse(text, now=now))

    def execute(self, query: ParsedQuery) -> QueryResult:
        """Execute an already-parsed query (memoized until the next write)."""
        result = self._answers.get(query)
        if result is None:
            result = self._answers[query] = execute(query, self.table(query.table))
        return result

    def relevant_row_count(self, query: ParsedQuery) -> int:
        """Exact count of rows relevant to ``query``.

        An *available* endsystem answers its own completeness contribution
        from its local DBMS ("it queries the local DBMS for the estimate").
        """
        result = self._answers.get(query)
        if result is not None:
            return result.row_count
        return count_matching(query, self.table(query.table))

    def clone(self) -> "LocalDatabase":
        """A copy-on-write copy of all tables (see :meth:`Table.clone`).

        The clone shares every column array with this database until one
        side writes, so it costs a dict per table, not a copy of the data.
        Used when each simulated endsystem must own private, mutable data
        (e.g. live update feeds) instead of sharing a profile database.
        The clone starts with an empty answer memo.
        """
        copy = LocalDatabase()
        copy._tables = {key: table.clone() for key, table in self._tables.items()}
        copy._generation = self._generation
        return copy

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def build_summaries(self) -> dict[str, dict[str, Histogram]]:
        """Histograms for every indexed column of every table.

        This is the data summary Seaweed replicates: ``{table: {column:
        histogram}}``.  While the data generation is unchanged the same
        (shared, treat-as-immutable) summary dict is returned; writes
        invalidate it via the generation counter.
        """
        return self.summary_state()[0]

    def summary_state(
        self,
    ) -> tuple[dict[str, dict[str, Histogram]], SelectivityCache]:
        """The current summaries plus their scoped selectivity cache.

        Both are pinned to the current data generation: any write
        invalidates the pair together, so memoized row-count estimates
        can never outlive the histograms they were computed from.
        """
        state = self._summary_state
        if state is not None and state[0] == self._generation:
            return state[1], state[2]
        summaries = self._build_summaries()
        cache = SelectivityCache()
        self._summary_state = (self._generation, summaries, cache)
        return summaries, cache

    def _build_summaries(self) -> dict[str, dict[str, Histogram]]:
        summaries: dict[str, dict[str, Histogram]] = {}
        for table in self._tables.values():
            per_column: dict[str, Histogram] = {}
            for column_def in table.schema.indexed_columns:
                values = table.column(column_def.name)
                per_column[column_def.name.lower()] = build_histogram(values)
            if per_column:
                summaries[table.name.lower()] = per_column
        return summaries

    def total_bytes(self) -> int:
        """Approximate total size of local data (the model's ``d``)."""
        return sum(table.estimated_bytes() for table in self._tables.values())

    def total_rows(self, table_name: str) -> int:
        """Row count of one table."""
        return self.table(table_name).num_rows
