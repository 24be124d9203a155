"""Tests for the LocalDatabase facade."""

import numpy as np
import pytest

from repro.db.engine import LocalDatabase
from repro.db.histogram import estimate_row_count
from repro.db.schema import ColumnType, SchemaError, make_schema
from repro.db.sql import parse


class TestTables:
    def test_create_and_lookup(self):
        db = LocalDatabase()
        db.create_table(make_schema("t", [("a", ColumnType.INT)]))
        assert db.has_table("t")
        assert db.table("T").name == "t"

    def test_duplicate_table_rejected(self):
        db = LocalDatabase()
        db.create_table(make_schema("t", [("a", ColumnType.INT)]))
        with pytest.raises(SchemaError):
            db.create_table(make_schema("T", [("a", ColumnType.INT)]))

    def test_missing_table_raises(self):
        with pytest.raises(SchemaError):
            LocalDatabase().table("ghost")

    def test_generation_bumps_on_writes(self):
        db = LocalDatabase()
        db.create_table(make_schema("t", [("a", ColumnType.INT)]))
        start = db.generation
        db.load("t", {"a": [1]})
        db.insert("t", {"a": 2})
        assert db.generation == start + 2

    def test_failed_load_leaves_table_and_generation(self):
        db = LocalDatabase()
        db.create_table(
            make_schema("t", [("a", ColumnType.INT), ("b", ColumnType.INT)])
        )
        start = db.generation
        with pytest.raises(ValueError):
            db.load("t", {"a": [1, 2], "b": [1, "zz"]})
        assert db.generation == start
        assert db.total_rows("t") == 0
        assert len(db.table("t").column("a")) == len(db.table("t").column("b")) == 0

    def test_rejected_insert_keeps_columns_aligned(self):
        db = LocalDatabase()
        db.create_table(
            make_schema("t", [("a", ColumnType.INT), ("s", ColumnType.STR)])
        )
        db.load("t", {"a": [1, 2, 3], "s": ["x", "y", "z"]})
        with pytest.raises(SchemaError):
            db.insert("t", {"a": 4})
        db.insert("t", {"a": 5, "s": "w"})
        table = db.table("t")
        assert table.num_rows == len(table.column("a")) == len(table.column("s")) == 4
        assert list(table.column("a")) == [1, 2, 3, 5]


class TestExecution:
    def test_execute_sql(self, flow_db):
        result = flow_db.execute_sql("SELECT COUNT(*) FROM Flow")
        assert result.values() == [5000.0]

    def test_execute_with_now(self, flow_db):
        result = flow_db.execute_sql(
            "SELECT COUNT(*) FROM Flow WHERE ts <= NOW()", now=86400.0 * 3,
        )
        assert 0 < result.values()[0] < 5000

    def test_relevant_row_count_matches_execute(self, flow_db):
        query = parse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80")
        assert flow_db.relevant_row_count(query) == flow_db.execute(query).row_count


class TestSummaries:
    def test_indexed_columns_only(self, flow_db):
        summaries = flow_db.build_summaries()
        assert set(summaries["flow"]) == {"ts", "srcport", "bytes", "app"}

    def test_estimation_accuracy_range_query(self, flow_db):
        query = parse("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000")
        summaries = flow_db.build_summaries()
        estimate = estimate_row_count(
            query.predicate, summaries["flow"], flow_db.total_rows("Flow")
        )
        exact = flow_db.relevant_row_count(query)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_estimation_accuracy_equality(self, flow_db):
        query = parse("SELECT AVG(Bytes) FROM Flow WHERE App = 'SMB'")
        summaries = flow_db.build_summaries()
        estimate = estimate_row_count(
            query.predicate, summaries["flow"], flow_db.total_rows("Flow")
        )
        exact = flow_db.relevant_row_count(query)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_estimate_unknown_table_is_zero(self, flow_db):
        query = parse("SELECT COUNT(*) FROM Missing WHERE x = 1")
        assert "missing" not in flow_db.build_summaries()
        assert estimate_row_count(query.predicate, {}, 0) == 0.0

    def test_total_bytes_positive(self, flow_db):
        assert flow_db.total_bytes() > 0


class TestSummaryCache:
    def test_same_object_while_generation_unchanged(self, flow_db):
        first, cache_a = flow_db.summary_state()
        second, cache_b = flow_db.summary_state()
        assert first is second
        assert cache_a is cache_b

    def test_write_invalidates(self, flow_db):
        before, cache_before = flow_db.summary_state()
        flow_db.insert(
            "Flow",
            {"ts": 1, "SrcPort": 80, "Bytes": 10, "App": "web", "Packets": 1},
        )
        after, cache_after = flow_db.summary_state()
        assert after is not before
        assert cache_after is not cache_before

    def test_cached_summaries_equal_uncached_build(self, flow_db):
        flow_db.build_summaries()  # fill the cache
        cached = flow_db.build_summaries()
        rebuilt = flow_db._build_summaries()
        assert rebuilt is not cached
        assert rebuilt == cached
        query = parse("SELECT COUNT(*) FROM Flow WHERE SrcPort = 80")
        assert estimate_row_count(
            query.predicate, rebuilt["flow"], 1000
        ) == estimate_row_count(query.predicate, cached["flow"], 1000)


class TestAnswerMemo:
    @pytest.fixture
    def db(self):
        db = LocalDatabase()
        db.create_table(
            make_schema("t", [("ts", ColumnType.FLOAT), ("s", ColumnType.STR)])
        )
        db.load("t", {"ts": [10.0, 20.0, 30.0], "s": ["x", "y", "x"]})
        return db

    def test_repeated_query_shares_one_result(self, db):
        query = parse("SELECT COUNT(*) FROM t WHERE s = 'x'")
        first = db.execute(query)
        assert db.execute(parse("SELECT COUNT(*) FROM t WHERE s = 'x'")) is first
        assert db.relevant_row_count(query) == first.row_count == 2

    def test_insert_after_execute_yields_new_answer(self, db):
        query = parse("SELECT COUNT(*) FROM t WHERE s = 'x'")
        assert db.execute(query).row_count == 2
        db.insert("t", {"ts": 40.0, "s": "x"})
        assert db.execute(query).row_count == 3
        assert db.relevant_row_count(query) == 3
        db.load("t", {"ts": [50.0], "s": ["x"]})
        assert db.relevant_row_count(query) == 4
        assert db.execute(query).row_count == 4

    def test_clone_written_after_shared_read_keeps_its_own_answers(self, db):
        query = parse("SELECT COUNT(*) FROM t WHERE s = 'x'")
        source_result = db.execute(query)
        copy = db.clone()
        assert copy.execute(query) is not source_result
        copy.insert("t", {"ts": 40.0, "s": "x"})
        assert copy.execute(query).row_count == 3
        assert db.execute(query) is source_result
        assert source_result.row_count == 2

    def test_now_bindings_do_not_collide(self, db):
        sql = "SELECT COUNT(*) FROM t WHERE ts <= NOW()"
        assert db.execute(parse(sql, now=15.0)).row_count == 1
        assert db.execute(parse(sql, now=25.0)).row_count == 2
        assert db.relevant_row_count(parse(sql, now=15.0)) == 1

    def test_execute_builds_no_summaries(self, db):
        db.execute(parse("SELECT COUNT(*) FROM t WHERE s = 'x'"))
        assert db._summary_state is None
