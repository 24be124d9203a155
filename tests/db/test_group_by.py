"""Tests for GROUP BY execution and in-network group merging."""

import numpy as np
import pytest

from repro.db.executor import execute
from repro.db.schema import ColumnType, make_schema
from repro.db.sql import SQLSyntaxError, parse
from repro.db.table import Table


@pytest.fixture
def table() -> Table:
    t = Table(
        make_schema(
            "Flow",
            [
                ("SrcPort", ColumnType.INT),
                ("App", ColumnType.STR),
                ("Bytes", ColumnType.INT),
            ],
        )
    )
    t.load_columns(
        {
            "SrcPort": [80, 80, 443, 443, 22, 80],
            "App": ["HTTP", "HTTP", "HTTPS", "HTTPS", "SSH", "HTTP"],
            "Bytes": [10, 20, 30, 40, 50, 60],
        }
    )
    return t


class TestParsing:
    def test_single_column(self):
        query = parse("SELECT SUM(Bytes) FROM Flow GROUP BY SrcPort")
        assert query.group_by == ("SrcPort",)

    def test_multiple_columns(self):
        query = parse("SELECT COUNT(*) FROM Flow GROUP BY SrcPort, App")
        assert query.group_by == ("SrcPort", "App")

    def test_with_where(self):
        query = parse(
            "SELECT SUM(Bytes) FROM Flow WHERE Bytes > 15 GROUP BY App"
        )
        assert query.group_by == ("App",)

    def test_group_by_without_aggregates_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT SrcPort FROM Flow GROUP BY SrcPort")


class TestExecution:
    def test_groups_partition_rows(self, table):
        result = execute(parse("SELECT SUM(Bytes), COUNT(*) FROM Flow GROUP BY SrcPort"), table)
        assert result.group_values() == {
            (80,): [90.0, 3.0],
            (443,): [70.0, 2.0],
            (22,): [50.0, 1.0],
        }

    def test_groups_respect_predicate(self, table):
        result = execute(
            parse("SELECT COUNT(*) FROM Flow WHERE Bytes >= 30 GROUP BY SrcPort"),
            table,
        )
        assert result.group_values() == {(443,): [2.0], (80,): [1.0], (22,): [1.0]}

    def test_multi_column_keys(self, table):
        result = execute(
            parse("SELECT COUNT(*) FROM Flow GROUP BY SrcPort, App"), table
        )
        assert result.group_values()[(80, "HTTP")] == [3.0]

    def test_empty_match_has_no_groups(self, table):
        result = execute(
            parse("SELECT COUNT(*) FROM Flow WHERE Bytes > 999 GROUP BY App"), table
        )
        assert result.group_values() == {}

    def test_ungrouped_totals_still_present(self, table):
        result = execute(parse("SELECT SUM(Bytes) FROM Flow GROUP BY App"), table)
        assert result.values() == [210.0]


class TestMerging:
    def test_merge_unions_groups(self, table):
        left = execute(parse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80 GROUP BY SrcPort"), table)
        right = execute(parse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 22 GROUP BY SrcPort"), table)
        # Align specs (same query shape) before merging.
        merged = left.merge(right)
        assert merged.group_values() == {(80,): [90.0], (22,): [50.0]}

    def test_merge_combines_shared_groups(self, table):
        part = execute(parse("SELECT AVG(Bytes) FROM Flow GROUP BY App"), table)
        doubled = part.merge(part)
        # AVG over the union of identical partitions is unchanged.
        for key, values in part.group_values().items():
            assert doubled.group_values()[key] == values

    def test_payload_roundtrip_preserves_groups(self, table):
        from repro.proto import wire

        result = execute(parse("SELECT SUM(Bytes) FROM Flow GROUP BY SrcPort"), table)
        clone = wire.decode_value(wire.encode_value(result))
        assert clone == result
        assert clone.group_values() == result.group_values()

    def test_wire_size_grows_with_groups(self, table):
        from repro.proto import codec

        grouped = execute(parse("SELECT SUM(Bytes) FROM Flow GROUP BY SrcPort"), table)
        flat = execute(parse("SELECT SUM(Bytes) FROM Flow"), table)
        # Three SrcPort groups, each a key plus one state.
        assert codec.result_size(grouped) - codec.result_size(flat) == 3 * (
            codec.ID + codec.AGG_STATE
        )
