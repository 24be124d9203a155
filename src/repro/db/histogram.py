"""Column histograms and selectivity estimation.

The data summary Seaweed replicates consists of per-column histograms
"computed by the local DBMS across manually selected attributes".  We
implement the two standard forms:

* :class:`EquiDepthHistogram` for numeric columns — B buckets holding
  (approximately) equal row counts, with per-bucket distinct counts, and
  the textbook uniform-within-bucket interpolation for range/equality
  selectivity;
* :class:`FrequencyHistogram` for low-cardinality (categorical) columns —
  exact value counts, capped at a most-common-values limit with a
  uniform-tail assumption for the remainder.

Estimation error for single-column range predicates is what drives the
paper's "<0.5% total row-count error" claim; the tests quantify ours.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.db.expressions import (
    Comparison,
    ExpressionError,
    Predicate,
)

#: Bucket count of every replicated equi-depth histogram; SQL Server
#: uses up to 200 histogram steps.
DEFAULT_BUCKETS = 64
#: Cap on exact values kept by a frequency histogram.
DEFAULT_MCV_LIMIT = 256


class EquiDepthHistogram:
    """Compressed equi-depth histogram over a numeric column.

    Heavy hitters (values whose frequency exceeds one bucket's depth) are
    pulled out into an exact most-common-values table, and the equi-depth
    buckets describe the residual distribution — the classic "compressed
    histogram" construction, which is also what SQL Server's EQ_ROWS
    boundary counts achieve.
    """

    def __init__(
        self,
        boundaries: np.ndarray,
        counts: np.ndarray,
        distincts: np.ndarray,
        total_rows: int,
        mcv: Optional[dict[float, float]] = None,
    ) -> None:
        self.boundaries = np.asarray(boundaries, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.distincts = np.asarray(distincts, dtype=float)
        self.total_rows = int(total_rows)
        self.mcv = dict(mcv) if mcv else {}
        if len(self.boundaries) != len(self.counts) + 1:
            raise ValueError("histogram needs len(boundaries) == len(counts) + 1")

    @classmethod
    def build(
        cls, values: np.ndarray, num_buckets: int = DEFAULT_BUCKETS
    ) -> "EquiDepthHistogram":
        """Build from a column of numeric values."""
        arr = np.asarray(values, dtype=float)
        total = len(arr)
        if total == 0:
            return cls(np.array([0.0, 0.0]), np.array([0.0]), np.array([0.0]), 0)
        # One sort yields the distinct values, their run lengths and (with
        # the heavy runs dropped) the sorted residual.
        ordered = np.sort(arr)
        starts = np.empty(total, dtype=bool)
        starts[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        run_starts = np.flatnonzero(starts)
        unique = ordered[run_starts]
        unique_counts = np.diff(np.append(run_starts, total))
        # Pull out heavy hitters: values deeper than one equi-depth bucket.
        depth_threshold = max(2.0, total / max(1, num_buckets))
        heavy = unique_counts >= depth_threshold
        mcv = {
            float(value): float(count)
            for value, count in zip(unique[heavy], unique_counts[heavy])
        }
        if mcv:
            keep = np.repeat(~heavy, unique_counts)
            ordered = ordered[keep]
            run_starts = np.flatnonzero(starts[keep])
        if len(ordered) == 0:
            return cls(
                np.array([unique[0], unique[-1]]),
                np.array([0.0]),
                np.array([0.0]),
                total,
                mcv,
            )
        num_buckets = max(1, min(num_buckets, len(ordered)))
        # Quantile boundaries give (approximately) equal-depth buckets.
        quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
        boundaries = np.quantile(ordered, quantiles)
        # Collapse duplicate boundaries to keep buckets distinct.
        boundaries = np.unique(boundaries)
        if len(boundaries) < 2:
            boundaries = np.array([boundaries[0], boundaries[0]])
        # Bucket i holds boundaries[i] <= v < boundaries[i + 1]; the final
        # bucket is right-closed so the maximum is included.  ``ordered`` is
        # sorted, so each bucket is the slice between two of these edges.
        edges = np.empty(len(boundaries), dtype=np.intp)
        edges[0] = 0
        edges[-1] = len(ordered)
        edges[1:-1] = np.searchsorted(ordered, boundaries[1:-1], side="left")
        counts = np.diff(edges)
        # A value's whole run lands in one bucket, so the run starts
        # between a bucket's edges are its distinct values.
        distincts = np.diff(np.searchsorted(run_starts, edges))
        return cls(boundaries, counts, distincts, total, mcv)

    def estimate_le(self, value: float, inclusive: bool = True) -> float:
        """Estimated number of rows with ``column <= value`` (or ``<``)."""
        if self.total_rows == 0:
            return 0.0
        total = self._mcv_le(value, inclusive)
        total += self._bucket_le(value, inclusive)
        return float(min(total, self.total_rows))

    def _mcv_le(self, value: float, inclusive: bool) -> float:
        total = 0.0
        for mcv_value, count in self.mcv.items():
            if mcv_value < value or (inclusive and mcv_value == value):
                total += count
        return total

    def _bucket_le(self, value: float, inclusive: bool) -> float:
        bucket_total = float(self.counts.sum())
        if bucket_total == 0:
            return 0.0
        lo = self.boundaries[0]
        hi = self.boundaries[-1]
        if value < lo or (not inclusive and value == lo):
            return 0.0
        if value >= hi:
            return bucket_total
        total = 0.0
        for bucket in range(len(self.counts)):
            b_lo = self.boundaries[bucket]
            b_hi = self.boundaries[bucket + 1]
            if value >= b_hi:
                total += self.counts[bucket]
                continue
            if value < b_lo:
                break
            width = b_hi - b_lo
            if width <= 0:
                fraction = 1.0 if inclusive else 0.0
            else:
                fraction = (value - b_lo) / width
                if inclusive and self.distincts[bucket] > 0:
                    # Credit the matched value itself (uniform distinct spread).
                    fraction = min(1.0, fraction + 1.0 / self.distincts[bucket])
            total += self.counts[bucket] * fraction
            break
        return total

    def estimate_range(
        self,
        lo: float = -np.inf,
        hi: float = np.inf,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> float:
        """Estimated rows with ``lo <op> column <op> hi``."""
        upper = self.estimate_le(hi, inclusive=hi_inclusive)
        lower = self.estimate_le(lo, inclusive=not lo_inclusive)
        return max(0.0, upper - lower)

    def estimate_eq(self, value: float) -> float:
        """Estimated rows with ``column = value``."""
        if self.total_rows == 0:
            return 0.0
        if value in self.mcv:
            return self.mcv[value]
        for bucket in range(len(self.counts)):
            b_lo = self.boundaries[bucket]
            b_hi = self.boundaries[bucket + 1]
            is_last = bucket == len(self.counts) - 1
            inside = b_lo <= value < b_hi or (is_last and value == b_hi)
            if inside:
                distinct = max(1.0, self.distincts[bucket])
                return float(self.counts[bucket] / distinct)
        return 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquiDepthHistogram):
            return NotImplemented
        return (
            np.array_equal(self.boundaries, other.boundaries)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.distincts, other.distincts)
            and self.total_rows == other.total_rows
            and self.mcv == other.mcv
        )

    __hash__ = object.__hash__


class FrequencyHistogram:
    """Exact value counts for a categorical (or low-cardinality) column."""

    def __init__(self, counts: dict[Any, int], total_rows: int, truncated: bool) -> None:
        self.counts = counts
        self.total_rows = int(total_rows)
        self.truncated = truncated

    @classmethod
    def build(
        cls, values: np.ndarray, mcv_limit: int = DEFAULT_MCV_LIMIT
    ) -> "FrequencyHistogram":
        """Build from a column, keeping the ``mcv_limit`` most common values."""
        # Hash-count the Python values, then sort only the distinct ones:
        # sorting a whole object column costs a Python comparison per step.
        tally = Counter(np.asarray(values).tolist())
        unique = sorted(tally)
        counts = np.array([tally[value] for value in unique], dtype=np.int64)
        total = int(counts.sum())
        order = np.argsort(counts)[::-1]
        kept = {unique[position]: int(counts[position]) for position in order[:mcv_limit]}
        truncated = len(unique) > mcv_limit
        return cls(kept, total, truncated)

    def estimate_eq(self, value: Any) -> float:
        """Estimated rows with ``column = value``."""
        if value in self.counts:
            return float(self.counts[value])
        if not self.truncated or self.total_rows == 0:
            return 0.0
        # Uniform-tail assumption over the residual mass.
        residual = self.total_rows - sum(self.counts.values())
        return max(0.0, residual / max(1, len(self.counts)))

    def estimate_ne(self, value: Any) -> float:
        """Estimated rows with ``column != value``."""
        return max(0.0, self.total_rows - self.estimate_eq(value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyHistogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.total_rows == other.total_rows
            and self.truncated == other.truncated
        )

    __hash__ = object.__hash__


Histogram = Union[EquiDepthHistogram, FrequencyHistogram]


def build_histogram(values: np.ndarray) -> Histogram:
    """Pick the right histogram type for a column.

    Numeric columns get equi-depth histograms of :data:`DEFAULT_BUCKETS`
    buckets; object (string) columns get frequency histograms.
    """
    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in ("U", "S"):
        return FrequencyHistogram.build(arr)
    return EquiDepthHistogram.build(arr)


@dataclass(frozen=True)
class _Interval:
    """A per-column interval accumulated from AND-ed comparisons."""

    lo: float = -np.inf
    hi: float = np.inf
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def tighten(self, op: str, value: float) -> "_Interval":
        lo, hi = self.lo, self.hi
        lo_inc, hi_inc = self.lo_inclusive, self.hi_inclusive
        if op in ("<", "<="):
            if value < hi or (value == hi and op == "<" and hi_inc):
                hi, hi_inc = value, op == "<="
        elif op in (">", ">="):
            if value > lo or (value == lo and op == ">" and lo_inc):
                lo, lo_inc = value, op == ">="
        elif op == "=":
            lo = hi = value
            lo_inc = hi_inc = True
        return _Interval(lo, hi, lo_inc, hi_inc)

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_inclusive and self.hi_inclusive)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and self.lo_inclusive and self.hi_inclusive


def predicate_fingerprint(predicate: Predicate) -> tuple:
    """A hashable structural fingerprint of a predicate tree.

    Two predicates share a fingerprint iff they estimate identically
    against any histogram set: same tree shape, same (case-folded)
    columns, same operators, same literal values.  This is the
    memoization key for :class:`SelectivityCache` — in a deployment the
    same handful of query predicates is estimated once per replicated
    endsystem record, thousands of times against the same histograms.
    """
    from repro.db.expressions import And, Not, Or, TruePredicate

    if isinstance(predicate, TruePredicate):
        return ("true",)
    if isinstance(predicate, Comparison):
        return ("cmp", predicate.column.lower(), predicate.op, predicate.value)
    if isinstance(predicate, Not):
        return ("not", predicate_fingerprint(predicate.inner))
    if isinstance(predicate, And):
        return (
            "and",
            predicate_fingerprint(predicate.left),
            predicate_fingerprint(predicate.right),
        )
    if isinstance(predicate, Or):
        return (
            "or",
            predicate_fingerprint(predicate.left),
            predicate_fingerprint(predicate.right),
        )
    raise ExpressionError(f"cannot fingerprint {predicate!r}")


class SelectivityCache:
    """Memo for :func:`estimate_row_count` against one fixed histogram set.

    The owner must scope the cache to an immutable snapshot of the
    histograms (e.g. one database generation — see
    ``LocalDatabase.summary_state``); the key covers the predicate and
    the row total, never the histogram contents.
    """

    __slots__ = ("_entries", "hits", "misses")

    #: Bound on retained entries (cleared wholesale when exceeded).
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._entries: dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[float]:
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put(self, key: tuple, value: float) -> None:
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = value


def estimate_row_count(
    predicate: Predicate,
    histograms: dict[str, Histogram],
    total_rows: int,
    cache: Optional[SelectivityCache] = None,
) -> float:
    """Estimate how many of ``total_rows`` rows satisfy ``predicate``.

    Standard System-R style estimation: conjunctions of single-column
    comparisons become per-column intervals estimated from histograms and
    combined under attribute-value independence; OR uses
    inclusion-exclusion; NOT complements.  Columns without a histogram
    contribute a default selectivity of 1/3 (the classic fallback).

    A ``cache`` scoped to this histogram set memoizes the result keyed by
    :func:`predicate_fingerprint` and ``total_rows``.
    """
    if cache is not None:
        key = (predicate_fingerprint(predicate), total_rows)
        found = cache.get(key)
        if found is not None:
            return found
        result = _selectivity(predicate, histograms, total_rows) * total_rows
        cache.put(key, result)
        return result
    selectivity = _selectivity(predicate, histograms, total_rows)
    return selectivity * total_rows


_DEFAULT_SELECTIVITY = 1.0 / 3.0


def _selectivity(
    predicate: Predicate, histograms: dict[str, Histogram], total_rows: int
) -> float:
    from repro.db.expressions import And, Not, Or, TruePredicate, conjuncts

    if total_rows == 0:
        return 0.0
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, Not):
        return 1.0 - _selectivity(predicate.inner, histograms, total_rows)
    if isinstance(predicate, Or):
        left = _selectivity(predicate.left, histograms, total_rows)
        right = _selectivity(predicate.right, histograms, total_rows)
        return min(1.0, left + right - left * right)
    if isinstance(predicate, And):
        # Gather per-column intervals across the whole conjunction so that
        # "ts >= a AND ts <= b" is estimated as one range, not two halves.
        factors: list[float] = []
        intervals: dict[str, _Interval] = {}
        for part in conjuncts(predicate):
            if isinstance(part, Comparison) and part.op in ("<", "<=", ">", ">=", "="):
                column = part.column.lower()
                histogram = histograms.get(column)
                if isinstance(histogram, EquiDepthHistogram):
                    current = intervals.get(column, _Interval())
                    intervals[column] = current.tighten(part.op, float(part.value))
                    continue
            factors.append(_selectivity(part, histograms, total_rows))
        for column, interval in intervals.items():
            histogram = histograms[column]
            factors.append(_interval_selectivity(histogram, interval, total_rows))
        product = 1.0
        for factor in factors:
            product *= factor
        return product
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(predicate, histograms, total_rows)
    raise ExpressionError(f"cannot estimate selectivity of {predicate!r}")


def _interval_selectivity(
    histogram: EquiDepthHistogram, interval: _Interval, total_rows: int
) -> float:
    if interval.empty:
        return 0.0
    if interval.is_point:
        rows = histogram.estimate_eq(interval.lo)
    else:
        rows = histogram.estimate_range(
            interval.lo, interval.hi, interval.lo_inclusive, interval.hi_inclusive
        )
    base = histogram.total_rows if histogram.total_rows else total_rows
    return min(1.0, rows / base) if base else 0.0


def _comparison_selectivity(
    comparison: Comparison, histograms: dict[str, Histogram], total_rows: int
) -> float:
    histogram = histograms.get(comparison.column.lower())
    if histogram is None:
        return _DEFAULT_SELECTIVITY
    base = histogram.total_rows if histogram.total_rows else total_rows
    if base == 0:
        return 0.0
    if isinstance(histogram, FrequencyHistogram):
        if comparison.op == "=":
            rows = histogram.estimate_eq(comparison.value)
        elif comparison.op == "!=":
            rows = histogram.estimate_ne(comparison.value)
        else:
            # Range over categorical values: compare lexically on the kept values.
            rows = _categorical_range(histogram, comparison)
        return min(1.0, rows / base)
    value = float(comparison.value)
    if comparison.op == "=":
        rows = histogram.estimate_eq(value)
    elif comparison.op == "!=":
        rows = base - histogram.estimate_eq(value)
    elif comparison.op in ("<", "<="):
        rows = histogram.estimate_le(value, inclusive=comparison.op == "<=")
    else:
        rows = base - histogram.estimate_le(value, inclusive=comparison.op == ">")
    return min(1.0, max(0.0, rows) / base)


def _categorical_range(histogram: FrequencyHistogram, comparison: Comparison) -> float:
    import operator as _op

    compare = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge}[comparison.op]
    return float(
        sum(
            count
            for value, count in histogram.counts.items()
            if compare(value, comparison.value)
        )
    )
