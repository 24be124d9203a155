"""Tests for the SQL-subset parser."""

import dataclasses

import pytest

from repro.db.expressions import And, Comparison, Not, Or, TruePredicate
from repro.db.sql import SQLSyntaxError, parse, tokenize


class TestTokenizer:
    def test_numbers(self):
        tokens = tokenize("123 4.5 .5")
        assert [t.value for t in tokens] == [123, 4.5, 0.5]

    def test_strings_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens] == ["SELECT", "FROM", "WHERE"]

    def test_operators(self):
        tokens = tokenize("<= >= != <> = < >")
        assert [t.value for t in tokens] == ["<=", ">=", "!=", "<>", "=", "<", ">"]

    def test_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @ FROM t")


class TestParsedQueryValue:
    def test_fields_cannot_be_assigned(self):
        query = parse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80")
        with pytest.raises(dataclasses.FrozenInstanceError):
            query.table = "Other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            query.predicate = TruePredicate()
        assert isinstance(query.aggregates, tuple)

    def test_equal_text_and_binding_give_equal_keys(self):
        sql = "SELECT COUNT(*) FROM Flow WHERE ts <= NOW() AND App = 'SMB'"
        first, second = parse(sql, now=100.0), parse(sql, now=100.0)
        assert first == second and hash(first) == hash(second)
        assert parse(sql, now=200.0) != first


class TestSelectList:
    def test_single_aggregate(self):
        query = parse("SELECT SUM(Bytes) FROM Flow")
        assert len(query.aggregates) == 1
        assert query.aggregates[0].label == "SUM(Bytes)"
        assert query.is_aggregate

    def test_count_star(self):
        query = parse("SELECT COUNT(*) FROM Flow")
        assert query.aggregates[0].label == "COUNT(*)"

    def test_multiple_aggregates(self):
        query = parse("SELECT COUNT(*), SUM(Bytes), AVG(Bytes) FROM Flow")
        assert [spec.func for spec in query.aggregates] == ["COUNT", "SUM", "AVG"]

    def test_projection(self):
        query = parse("SELECT ts, Bytes FROM Flow")
        assert query.projection == ("ts", "Bytes")
        assert not query.is_aggregate

    def test_star_projection(self):
        query = parse("SELECT * FROM Flow")
        assert query.projection == ("*",)

    def test_mixing_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT ts, SUM(Bytes) FROM Flow")

    def test_table_name_captured(self):
        assert parse("SELECT COUNT(*) FROM Packet").table == "Packet"


class TestWhere:
    def test_no_where_is_true_predicate(self):
        assert isinstance(parse("SELECT COUNT(*) FROM t").predicate, TruePredicate)

    def test_simple_comparison(self):
        predicate = parse("SELECT COUNT(*) FROM t WHERE SrcPort = 80").predicate
        assert predicate == Comparison("SrcPort", "=", 80)

    def test_string_literal(self):
        predicate = parse("SELECT COUNT(*) FROM t WHERE App = 'SMB'").predicate
        assert predicate == Comparison("App", "=", "SMB")

    def test_and_or_precedence(self):
        predicate = parse(
            "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2 AND c = 3"
        ).predicate
        # AND binds tighter than OR.
        assert isinstance(predicate, Or)
        assert isinstance(predicate.right, And)

    def test_parentheses_override(self):
        predicate = parse(
            "SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3"
        ).predicate
        assert isinstance(predicate, And)
        assert isinstance(predicate.left, Or)

    def test_not(self):
        predicate = parse("SELECT COUNT(*) FROM t WHERE NOT a = 1").predicate
        assert isinstance(predicate, Not)

    def test_neq_normalized(self):
        predicate = parse("SELECT COUNT(*) FROM t WHERE a <> 5").predicate
        assert predicate == Comparison("a", "!=", 5)

    def test_negative_literal(self):
        predicate = parse("SELECT COUNT(*) FROM t WHERE a > -5").predicate
        assert predicate == Comparison("a", ">", -5)


class TestNow:
    def test_now_substitution(self):
        predicate = parse(
            "SELECT COUNT(*) FROM t WHERE ts <= NOW()", now=1000.0
        ).predicate
        assert predicate == Comparison("ts", "<=", 1000.0)

    def test_now_arithmetic(self):
        predicate = parse(
            "SELECT COUNT(*) FROM t WHERE ts >= NOW() - 86400", now=100000.0
        ).predicate
        assert predicate == Comparison("ts", ">=", 100000.0 - 86400)

    def test_paper_query_parses(self):
        query = parse(
            "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND ts <= NOW() "
            "AND ts >= NOW() - 86400",
            now=5e5,
        )
        assert query.is_aggregate

    def test_now_without_binding_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) FROM t WHERE ts <= NOW()")


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) Flow")

    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) FROM t WHERE a = 1 extra stuff = 2")

    def test_unterminated_parenthesis(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) FROM t WHERE (a = 1")

    def test_empty_input(self):
        with pytest.raises(SQLSyntaxError):
            parse("")

    def test_comparison_missing_value(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) FROM t WHERE a =")

    def test_string_arithmetic_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) FROM t WHERE a > 'x' + 1")
