"""Columnar in-memory tables.

Each endsystem's local database stores its tables column-wise as NumPy
arrays, which makes predicate evaluation and aggregation vectorized —
essential when the simulator carries tens of thousands of endsystem
databases.

Tables support bulk loads (the common path: the workload generator
produces whole columns) and incremental row appends (buffered, merged on
the next read).

Stored column arrays are read-only: a write replaces a column with a new
array and never modifies one in place.  That makes :meth:`Table.clone`
copy-on-write — a clone shares its source's arrays until its own next
write, so a simulated endsystem costs one table reference plus its own
inserts, not a copy of its profile's data.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.db.schema import ColumnType, Schema, SchemaError

_DTYPES = {
    ColumnType.INT: np.int64,
    ColumnType.FLOAT: np.float64,
    ColumnType.STR: object,
}


class Table:
    """One relational table with columnar storage."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {
            column.name.lower(): _frozen(np.empty(0, dtype=_DTYPES[column.type]))
            for column in schema
        }
        self._pending: dict[str, list[Any]] = {
            column.name.lower(): [] for column in schema
        }
        self._pending_rows = 0

    @property
    def name(self) -> str:
        """Table name from the schema."""
        return self.schema.table_name

    @property
    def num_rows(self) -> int:
        """Current row count, including buffered appends."""
        first = next(iter(self._columns.values()))
        return len(first) + self._pending_rows

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Bulk-load whole columns, replacing pending state consistency checks.

        All declared columns must be present and of equal length; values are
        appended to any existing data.
        """
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged column lengths {lengths} in bulk load")
        provided = {name.lower() for name in columns}
        expected = set(self._columns)
        if provided != expected:
            raise SchemaError(
                f"bulk load columns {sorted(provided)} != schema {sorted(expected)}"
            )
        self._flush_pending()
        self._append({name.lower(): values for name, values in columns.items()})

    def insert_row(self, row: Mapping[str, Any]) -> None:
        """Append one row (buffered; merged lazily on next column read)."""
        values = {}
        for column in self.schema:
            key = column.name.lower()
            if column.name not in row and key not in row:
                raise SchemaError(f"row missing column {column.name!r}")
            values[key] = row.get(column.name, row.get(key))
        for key, value in values.items():
            self._pending[key].append(value)
        self._pending_rows += 1

    def _flush_pending(self) -> None:
        if self._pending_rows == 0:
            return
        self._append(self._pending)
        for buffered in self._pending.values():
            buffered.clear()
        self._pending_rows = 0

    def _append(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Append to every column as new read-only arrays.

        All columns are converted before any is committed, so a bad value
        leaves the table untouched rather than half-written.
        """
        incoming = {
            key: np.asarray(values, dtype=self._columns[key].dtype)
            for key, values in columns.items()
        }
        for key, values in incoming.items():
            self._columns[key] = _frozen(np.concatenate([self._columns[key], values]))

    def column(self, name: str) -> np.ndarray:
        """The full column array (flushes buffered rows first)."""
        self.schema.column(name)  # validates the name
        self._flush_pending()
        return self._columns[name.lower()]

    def rows(self, mask: np.ndarray | None = None) -> list[tuple[Any, ...]]:
        """Materialize rows (optionally those selected by a boolean mask)."""
        self._flush_pending()
        arrays = [self._columns[column.name.lower()] for column in self.schema]
        if mask is not None:
            arrays = [array[mask] for array in arrays]
        return list(zip(*arrays)) if arrays and len(arrays[0]) else []

    def clone(self) -> "Table":
        """A copy-on-write copy: shares the read-only column arrays.

        Either side's next write builds that side new arrays; the other
        keeps the shared ones.
        """
        self._flush_pending()
        copy = Table(self.schema)
        copy._columns = dict(self._columns)
        return copy

    def estimated_bytes(self) -> int:
        """Rough storage footprint: used for the analytic model's ``d``."""
        self._flush_pending()
        total = 0
        for column_def in self.schema:
            array = self._columns[column_def.name.lower()]
            if column_def.type is ColumnType.STR:
                total += sum(len(str(value)) for value in array)
            else:
                total += array.nbytes
        return total


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array
