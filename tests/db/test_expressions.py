"""Tests for predicate expression evaluation."""

import operator

import numpy as np
import pytest

from repro.db.expressions import (
    And,
    Comparison,
    ExpressionError,
    Not,
    Or,
    TruePredicate,
    conjunction,
    conjuncts,
)
from repro.db.schema import ColumnType, make_schema
from repro.db.table import Table


@pytest.fixture
def table() -> Table:
    t = Table(
        make_schema("t", [("n", ColumnType.INT), ("s", ColumnType.STR)])
    )
    t.load_columns({"n": [1, 2, 3, 4, 5], "s": ["a", "b", "a", "c", "a"]})
    return t


class TestComparison:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 3, [False, False, True, False, False]),
            ("!=", 3, [True, True, False, True, True]),
            ("<", 3, [True, True, False, False, False]),
            ("<=", 3, [True, True, True, False, False]),
            (">", 3, [False, False, False, True, True]),
            (">=", 3, [False, False, True, True, True]),
        ],
    )
    def test_numeric_operators(self, table, op, value, expected):
        mask = Comparison("n", op, value).evaluate(table)
        assert list(mask) == expected

    def test_string_equality(self, table):
        mask = Comparison("s", "=", "a").evaluate(table)
        assert list(mask) == [True, False, True, False, True]

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("value", ["a", "b", "bb", ""])
    def test_string_operators_match_elementwise_python(self, table, op, value):
        compare = {
            "=": operator.eq,
            "!=": operator.ne,
            "<": operator.lt,
            "<=": operator.le,
            ">": operator.gt,
            ">=": operator.ge,
        }[op]
        mask = Comparison("s", op, value).evaluate(table)
        assert mask.dtype == bool
        assert list(mask) == [compare(x, value) for x in table.column("s")]

    def test_string_column_against_number(self, table):
        assert not Comparison("s", "=", 5).evaluate(table).any()
        assert Comparison("s", "!=", 5).evaluate(table).all()
        with pytest.raises(TypeError):
            Comparison("s", "<", 5).evaluate(table)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("n", "~", 1)

    def test_columns(self):
        assert Comparison("Port", "=", 1).columns() == {"port"}


class TestCombinators:
    def test_and(self, table):
        predicate = And(Comparison("n", ">", 1), Comparison("n", "<", 4))
        assert list(predicate.evaluate(table)) == [False, True, True, False, False]

    def test_or(self, table):
        predicate = Or(Comparison("n", "=", 1), Comparison("n", "=", 5))
        assert list(predicate.evaluate(table)) == [True, False, False, False, True]

    def test_not(self, table):
        predicate = Not(Comparison("s", "=", "a"))
        assert list(predicate.evaluate(table)) == [False, True, False, True, False]

    def test_true_predicate(self, table):
        assert TruePredicate().evaluate(table).all()

    def test_nested_columns(self):
        predicate = And(
            Or(Comparison("a", "=", 1), Comparison("b", "=", 2)),
            Not(Comparison("c", "=", 3)),
        )
        assert predicate.columns() == {"a", "b", "c"}


class TestHelpers:
    def test_conjunction_empty(self):
        assert isinstance(conjunction([]), TruePredicate)

    def test_conjunction_single(self):
        predicate = Comparison("n", "=", 1)
        assert conjunction([predicate]) is predicate

    def test_conjunction_multiple(self, table):
        predicate = conjunction(
            [Comparison("n", ">", 1), Comparison("n", "<", 5), Comparison("s", "=", "a")]
        )
        assert list(predicate.evaluate(table)) == [False, False, True, False, False]

    def test_conjuncts_flattens(self):
        a, b, c = (Comparison(x, "=", 1) for x in "abc")
        assert conjuncts(And(And(a, b), c)) == [a, b, c]

    def test_conjuncts_of_true_is_empty(self):
        assert conjuncts(TruePredicate()) == []

    def test_conjuncts_of_leaf(self):
        a = Comparison("a", "=", 1)
        assert conjuncts(a) == [a]
