"""Tests for columnar tables."""

import numpy as np
import pytest

from repro.db.schema import ColumnType, SchemaError, make_schema
from repro.db.table import Table


@pytest.fixture
def table() -> Table:
    return Table(
        make_schema(
            "t",
            [("a", ColumnType.INT), ("b", ColumnType.FLOAT), ("c", ColumnType.STR)],
        )
    )


class TestBulkLoad:
    def test_load_and_read(self, table):
        table.load_columns({"a": [1, 2], "b": [1.5, 2.5], "c": ["x", "y"]})
        assert table.num_rows == 2
        assert list(table.column("a")) == [1, 2]

    def test_load_appends(self, table):
        table.load_columns({"a": [1], "b": [1.0], "c": ["x"]})
        table.load_columns({"a": [2], "b": [2.0], "c": ["y"]})
        assert table.num_rows == 2

    def test_ragged_load_rejected(self, table):
        with pytest.raises(SchemaError):
            table.load_columns({"a": [1, 2], "b": [1.0], "c": ["x", "y"]})

    def test_missing_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.load_columns({"a": [1], "b": [1.0]})

    def test_column_names_case_insensitive(self, table):
        table.load_columns({"A": [1], "B": [2.0], "C": ["z"]})
        assert list(table.column("a")) == [1]

    def test_failed_load_changes_nothing(self, table):
        table.load_columns({"a": [1], "b": [1.0], "c": ["x"]})
        with pytest.raises(ValueError):
            table.load_columns({"a": [2, 3], "b": [2.0, "zz"], "c": ["y", "z"]})
        assert table.num_rows == 1
        assert [len(table.column(name)) for name in "abc"] == [1, 1, 1]

    def test_dtype_enforced(self, table):
        table.load_columns({"a": [1.9], "b": [1.0], "c": ["x"]})
        assert table.column("a").dtype == np.int64


class TestRowInsert:
    def test_insert_row_buffered(self, table):
        table.insert_row({"a": 1, "b": 2.0, "c": "x"})
        assert table.num_rows == 1

    def test_insert_then_read_flushes(self, table):
        table.insert_row({"a": 7, "b": 1.0, "c": "q"})
        assert list(table.column("a")) == [7]

    def test_insert_missing_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.insert_row({"a": 1, "b": 2.0})

    def test_rejected_insert_leaves_no_partial_row(self, table):
        table.load_columns({"a": [1], "b": [1.0], "c": ["x"]})
        with pytest.raises(SchemaError):
            table.insert_row({"a": 2, "b": 2.0})
        table.insert_row({"a": 3, "b": 3.0, "c": "z"})
        assert table.num_rows == 2
        assert [len(table.column(name)) for name in "abc"] == [2, 2, 2]
        assert list(table.column("a")) == [1, 3]

    def test_stored_columns_are_read_only(self, table):
        table.load_columns({"a": [1], "b": [1.0], "c": ["x"]})
        table.insert_row({"a": 2, "b": 2.0, "c": "y"})
        for name in "abc":
            assert not table.column(name).flags.writeable

    def test_mixed_insert_and_load(self, table):
        table.load_columns({"a": [1], "b": [1.0], "c": ["x"]})
        table.insert_row({"a": 2, "b": 2.0, "c": "y"})
        table.load_columns({"a": [3], "b": [3.0], "c": ["z"]})
        assert list(table.column("a")) == [1, 2, 3]


class TestRows:
    def test_rows_materialization(self, table):
        table.load_columns({"a": [1, 2], "b": [1.0, 2.0], "c": ["x", "y"]})
        assert table.rows() == [(1, 1.0, "x"), (2, 2.0, "y")]

    def test_rows_with_mask(self, table):
        table.load_columns({"a": [1, 2, 3], "b": [0.0] * 3, "c": ["x"] * 3})
        mask = np.array([True, False, True])
        assert [row[0] for row in table.rows(mask)] == [1, 3]

    def test_empty_rows(self, table):
        assert table.rows() == []

    def test_unknown_column_raises(self, table):
        with pytest.raises(SchemaError):
            table.column("nope")


class TestFootprint:
    def test_estimated_bytes_grows(self, table):
        table.load_columns({"a": [1] * 100, "b": [1.0] * 100, "c": ["abc"] * 100})
        first = table.estimated_bytes()
        table.load_columns({"a": [1] * 100, "b": [1.0] * 100, "c": ["abc"] * 100})
        assert table.estimated_bytes() == 2 * first
