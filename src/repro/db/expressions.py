"""Predicate expression trees.

The WHERE-clause AST produced by :mod:`repro.db.sql` and consumed by both
the executor (vectorized evaluation over a table) and the histogram-based
row-count estimator (selectivity arithmetic for replicated summaries).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.db.table import Table

_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

COMPARISON_OPS = tuple(_COMPARATORS)


class ExpressionError(ValueError):
    """Raised for malformed predicates (unknown ops, bad operands)."""


@dataclass(frozen=True)
class Predicate:
    """Base class for WHERE-clause nodes."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Boolean mask of matching rows."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns the predicate references (lowercased)."""
        raise NotImplementedError


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (a query with no WHERE clause)."""

    def evaluate(self, table: Table) -> np.ndarray:
        return np.ones(table.num_rows, dtype=bool)

    def columns(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> literal`` — the leaf predicate form.

    The restriction to column-vs-literal comparisons matches the paper's
    query class (single-table select-project-aggregate with range or
    equality predicates on indexed columns).
    """

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        values = table.column(self.column)
        compare = _COMPARATORS[self.op]
        if values.dtype == object:
            # String columns: numpy applies the Python comparison to each
            # element in a C loop ('x' == 5 is False, 'x' < 5 raises).
            return np.asarray(compare(values, self.value), dtype=bool)
        return compare(values, self.value)

    def columns(self) -> set[str]:
        return {self.column.lower()}


@dataclass(frozen=True)
class And(Predicate):
    """Logical conjunction."""

    left: Predicate
    right: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return self.left.evaluate(table) & self.right.evaluate(table)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Or(Predicate):
    """Logical disjunction."""

    left: Predicate
    right: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return self.left.evaluate(table) | self.right.evaluate(table)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Not(Predicate):
    """Logical negation."""

    inner: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return ~self.inner.evaluate(table)

    def columns(self) -> set[str]:
        return self.inner.columns()


def conjunction(predicates: list[Predicate]) -> Predicate:
    """Fold a list of predicates into a single AND tree (True if empty)."""
    if not predicates:
        return TruePredicate()
    result = predicates[0]
    for predicate in predicates[1:]:
        result = And(result, predicate)
    return result


def conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten a predicate into its top-level AND factors.

    The estimator uses this to bound per-column ranges: an AND of
    comparisons on one column becomes an interval.
    """
    if isinstance(predicate, And):
        return conjuncts(predicate.left) + conjuncts(predicate.right)
    if isinstance(predicate, TruePredicate):
        return []
    return [predicate]
