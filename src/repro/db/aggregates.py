"""Mergeable aggregate states.

Seaweed aggregates results *in the network*: interior vertices of the
result tree combine partial aggregates from their children.  That demands
aggregates be represented as mergeable partial states — notably AVG must
travel as (sum, count) pairs, and COUNT/SUM must be pure monoids so that
combining in any tree shape yields the same answer (a property the
property-based tests verify).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class AggregateError(ValueError):
    """Raised for unknown functions or invalid merges."""


@dataclass(frozen=True)
class AggregateSpec:
    """One item in a SELECT list: ``func(column)`` or ``COUNT(*)``."""

    func: str
    column: Optional[str]  # None only for COUNT(*)

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise AggregateError(f"unknown aggregate function {self.func!r}")
        if self.column is None and self.func != "COUNT":
            raise AggregateError(f"{self.func}(*) is not valid")

    @property
    def label(self) -> str:
        """Display label, e.g. ``SUM(Bytes)``."""
        return f"{self.func}({self.column if self.column is not None else '*'})"


class AggregateState:
    """A mergeable partial aggregate.

    States form a commutative monoid under :meth:`merge` with
    :meth:`empty` as identity, so in-network aggregation is shape- and
    order-independent.
    """

    __slots__ = ("func", "count", "total", "minimum", "maximum")

    def __init__(
        self,
        func: str,
        count: int = 0,
        total: float = 0.0,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ) -> None:
        if func not in AGGREGATE_FUNCTIONS:
            raise AggregateError(f"unknown aggregate function {func!r}")
        self.func = func
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    @classmethod
    def empty(cls, func: str) -> "AggregateState":
        """The identity state (zero rows)."""
        return cls(func)

    @classmethod
    def from_values(cls, func: str, values: Optional[np.ndarray]) -> "AggregateState":
        """Build a state from a (possibly empty) array of column values.

        ``values`` is None only for COUNT(*) — pass the row count via
        :meth:`from_count` instead in that case.
        """
        if values is None:
            raise AggregateError("from_values requires a value array; see from_count")
        count = int(len(values))
        if count == 0:
            return cls.empty(func)
        if func == "COUNT":
            return cls(func, count=count)
        arr = np.asarray(values, dtype=float)
        return cls(
            func,
            count=count,
            total=float(arr.sum()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )

    @classmethod
    def from_count(cls, count: int) -> "AggregateState":
        """COUNT(*) state for ``count`` matching rows."""
        return cls("COUNT", count=int(count))

    def merge(self, other: "AggregateState") -> "AggregateState":
        """Combine two partial states (commutative, associative)."""
        if other.func != self.func:
            raise AggregateError(
                f"cannot merge {self.func} state with {other.func} state"
            )
        minima = [m for m in (self.minimum, other.minimum) if m is not None]
        maxima = [m for m in (self.maximum, other.maximum) if m is not None]
        return AggregateState(
            self.func,
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(minima) if minima else None,
            maximum=max(maxima) if maxima else None,
        )

    def result(self) -> Optional[float]:
        """The final aggregate value; None when no rows matched (SQL NULL)."""
        if self.func == "COUNT":
            return float(self.count)
        if self.count == 0:
            return None
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count
        if self.func == "MIN":
            return self.minimum
        return self.maximum

    def to_tuple(self) -> tuple[str, int, float, Optional[float], Optional[float]]:
        """Plain-data form: the state that crosses the wire."""
        return (self.func, self.count, self.total, self.minimum, self.maximum)

    @classmethod
    def from_tuple(
        cls, data: tuple[str, int, float, Optional[float], Optional[float]]
    ) -> "AggregateState":
        """Inverse of :meth:`to_tuple`."""
        func, count, total, minimum, maximum = data
        return cls(func, count=count, total=total, minimum=minimum, maximum=maximum)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, AggregateState):
            return NotImplemented
        return self.to_tuple() == other.to_tuple()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregateState({self.func}, n={self.count}, result={self.result()})"


def merge_states(states: list[AggregateState], func: str) -> AggregateState:
    """Fold a list of states (possibly empty) into one."""
    result = AggregateState.empty(func)
    for state in states:
        result = result.merge(state)
    return result
