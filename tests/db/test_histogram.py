"""Tests for histograms and selectivity estimation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.expressions import And, Comparison, Not, Or, TruePredicate
from repro.db.histogram import (
    EquiDepthHistogram,
    FrequencyHistogram,
    build_histogram,
    estimate_row_count,
)
from repro.proto import codec


@pytest.fixture
def uniform_values(rng):
    return rng.uniform(0, 1000, 20000)


class TestEquiDepth:
    def test_total_preserved(self, uniform_values):
        histogram = EquiDepthHistogram.build(uniform_values, 32)
        assert histogram.counts.sum() == len(uniform_values)

    def test_buckets_roughly_equal_depth(self, uniform_values):
        histogram = EquiDepthHistogram.build(uniform_values, 32)
        depths = histogram.counts
        assert depths.max() < 2.5 * depths.min()

    def test_range_estimate_uniform(self, uniform_values):
        histogram = EquiDepthHistogram.build(uniform_values, 64)
        estimate = histogram.estimate_range(100, 300)
        exact = np.sum((uniform_values >= 100) & (uniform_values <= 300))
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_le_estimate_extremes(self, uniform_values):
        histogram = EquiDepthHistogram.build(uniform_values, 64)
        assert histogram.estimate_le(-1) == 0.0
        assert histogram.estimate_le(1e9) == len(uniform_values)

    def test_eq_estimate_on_skewed_data(self, rng):
        values = np.concatenate([np.full(9000, 80.0), rng.uniform(0, 1e5, 1000)])
        histogram = EquiDepthHistogram.build(values, 64)
        estimate = histogram.estimate_eq(80.0)
        assert estimate == pytest.approx(9000, rel=0.25)

    def test_empty_column(self):
        histogram = EquiDepthHistogram.build(np.array([]))
        assert histogram.estimate_le(5.0) == 0.0
        assert histogram.estimate_eq(5.0) == 0.0

    def test_single_value_column(self):
        histogram = EquiDepthHistogram.build(np.full(100, 7.0))
        assert histogram.estimate_eq(7.0) == pytest.approx(100)
        assert histogram.estimate_range(0, 10) == pytest.approx(100)

    def test_size_bytes_scales_with_buckets(self, uniform_values):
        small = EquiDepthHistogram.build(uniform_values, 8)
        large = EquiDepthHistogram.build(uniform_values, 64)
        assert codec.histogram_size(large) > codec.histogram_size(small)

    def test_boundary_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram(
                np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1.0, 1.0]), 3
            )


def _reference_build(values, num_buckets):
    """The per-bucket loop ``EquiDepthHistogram.build`` must reproduce."""
    arr = np.asarray(values, dtype=float)
    total = len(arr)
    if total == 0:
        return EquiDepthHistogram(
            np.array([0.0, 0.0]), np.array([0.0]), np.array([0.0]), 0
        )
    unique, unique_counts = np.unique(arr, return_counts=True)
    depth_threshold = max(2.0, total / max(1, num_buckets))
    heavy = unique_counts >= depth_threshold
    mcv = {
        float(value): float(count)
        for value, count in zip(unique[heavy], unique_counts[heavy])
    }
    residual_mask = ~np.isin(arr, unique[heavy]) if mcv else np.ones(total, bool)
    ordered = np.sort(arr[residual_mask])
    if len(ordered) == 0:
        return EquiDepthHistogram(
            np.array([unique[0], unique[-1]]),
            np.array([0.0]),
            np.array([0.0]),
            total,
            mcv,
        )
    num_buckets = max(1, min(num_buckets, len(ordered)))
    boundaries = np.unique(np.quantile(ordered, np.linspace(0.0, 1.0, num_buckets + 1)))
    if len(boundaries) < 2:
        boundaries = np.array([boundaries[0], boundaries[0]])
    counts = np.zeros(len(boundaries) - 1)
    distincts = np.zeros(len(boundaries) - 1)
    indices = np.searchsorted(boundaries, ordered, side="right") - 1
    indices = np.clip(indices, 0, len(counts) - 1)
    for bucket in range(len(counts)):
        mask = indices == bucket
        counts[bucket] = mask.sum()
        if counts[bucket]:
            distincts[bucket] = len(np.unique(ordered[mask]))
    return EquiDepthHistogram(boundaries, counts, distincts, total, mcv)


@st.composite
def _columns(draw):
    """Int or float columns drawn from a small value pool, so duplicates,
    heavy hitters and runs straddling a bucket edge are common."""
    if draw(st.booleans()):
        pool, dtype = st.integers(min_value=-10**6, max_value=10**6), np.int64
    else:
        pool, dtype = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), float
    pool_size = draw(st.sampled_from([1, 3, 40, 400]))
    distinct = draw(st.lists(pool, min_size=1, max_size=pool_size))
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(distinct) - 1), max_size=600)
    )
    return np.array([distinct[i] for i in picks], dtype=dtype)


class TestBuildMatchesReference:
    @given(_columns(), st.integers(min_value=1, max_value=200))
    @example(np.array([]), 64)
    @example(np.full(50, 7.0), 64)
    @example(np.array([3.0]), 1)
    @example(np.array([-2] * 30 + [5] * 30, dtype=np.int64), 8)
    @example(np.array([1, 2, 2, 2, 3, 3, 4, 5, 5, 6], dtype=np.int64), 3)
    @settings(max_examples=300, deadline=None)
    def test_equals_per_bucket_loop(self, values, num_buckets):
        built = EquiDepthHistogram.build(values, num_buckets)
        assert built == _reference_build(values, num_buckets)


def _reference_frequency_build(values, mcv_limit):
    """The ``np.unique`` construction ``FrequencyHistogram.build`` must reproduce."""
    unique, counts = np.unique(np.asarray(values), return_counts=True)
    total = int(counts.sum()) if len(counts) else 0
    order = np.argsort(counts)[::-1]
    kept = {}
    for position in order[:mcv_limit]:
        value = unique[position]
        kept[value.item() if hasattr(value, "item") else value] = int(counts[position])
    return FrequencyHistogram(kept, total, len(unique) > mcv_limit)


class TestFrequencyBuildMatchesReference:
    @given(
        st.lists(st.sampled_from(["http", "smb", "dns", "ssh", "", "x" * 9]), max_size=300),
        st.booleans(),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique_build(self, picks, as_object, mcv_limit):
        # Small limits make count ties at the truncation edge common.
        values = np.array(picks, dtype=object if as_object else str)
        built = FrequencyHistogram.build(values, mcv_limit=mcv_limit)
        assert built == _reference_frequency_build(values, mcv_limit)


class TestFrequency:
    def test_exact_counts(self):
        values = np.array(["a"] * 5 + ["b"] * 3, dtype=object)
        histogram = FrequencyHistogram.build(values)
        assert histogram.estimate_eq("a") == 5.0
        assert histogram.estimate_eq("b") == 3.0

    def test_missing_value_without_truncation(self):
        histogram = FrequencyHistogram.build(np.array(["x"] * 4, dtype=object))
        assert histogram.estimate_eq("zzz") == 0.0

    def test_truncation_residual(self):
        values = np.array([f"v{i}" for i in range(500)], dtype=object)
        histogram = FrequencyHistogram.build(values, mcv_limit=100)
        assert histogram.truncated
        assert histogram.estimate_eq("not-there") > 0.0

    def test_ne_complements(self):
        values = np.array(["a"] * 7 + ["b"] * 3, dtype=object)
        histogram = FrequencyHistogram.build(values)
        assert histogram.estimate_ne("a") == 3.0


class TestBuildDispatch:
    def test_numeric_gets_equi_depth(self, rng):
        histogram = build_histogram(rng.integers(0, 10, 100))
        assert isinstance(histogram, EquiDepthHistogram)

    def test_strings_get_frequency(self):
        histogram = build_histogram(np.array(["a", "b"], dtype=object))
        assert isinstance(histogram, FrequencyHistogram)


class TestEstimateRowCount:
    @pytest.fixture
    def histograms(self, rng):
        ports = rng.choice([80, 443, 445], 10000, p=[0.5, 0.3, 0.2])
        sizes = rng.exponential(1000, 10000)
        return (
            {
                "port": build_histogram(ports),
                "size": build_histogram(sizes),
            },
            ports,
            sizes,
        )

    def test_equality(self, histograms):
        hists, ports, _ = histograms
        estimate = estimate_row_count(Comparison("port", "=", 80), hists, 10000)
        assert estimate == pytest.approx(np.sum(ports == 80), rel=0.1)

    def test_range_conjunction_single_column(self, histograms):
        hists, _, sizes = histograms
        predicate = And(
            Comparison("size", ">=", 100.0), Comparison("size", "<=", 500.0)
        )
        exact = np.sum((sizes >= 100) & (sizes <= 500))
        estimate = estimate_row_count(predicate, hists, 10000)
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_independence_for_and(self, histograms):
        hists, ports, sizes = histograms
        predicate = And(Comparison("port", "=", 80), Comparison("size", ">", 1000.0))
        expected = (
            np.mean(ports == 80) * np.mean(sizes > 1000.0) * 10000
        )
        estimate = estimate_row_count(predicate, hists, 10000)
        assert estimate == pytest.approx(expected, rel=0.15)

    def test_or_inclusion_exclusion(self, histograms):
        hists, ports, _ = histograms
        predicate = Or(Comparison("port", "=", 80), Comparison("port", "=", 443))
        p = np.mean(ports == 80)
        q = np.mean(ports == 443)
        estimate = estimate_row_count(predicate, hists, 10000)
        # The estimator assumes independence: p + q - pq, not exact union.
        assert estimate == pytest.approx((p + q - p * q) * 10000, rel=0.05)

    def test_not_complements(self, histograms):
        hists, ports, _ = histograms
        predicate = Not(Comparison("port", "=", 80))
        estimate = estimate_row_count(predicate, hists, 10000)
        assert estimate == pytest.approx(np.sum(ports != 80), rel=0.15)

    def test_true_predicate_returns_all(self, histograms):
        hists, _, _ = histograms
        assert estimate_row_count(TruePredicate(), hists, 10000) == 10000

    def test_unknown_column_uses_default(self):
        estimate = estimate_row_count(Comparison("nope", "=", 1), {}, 9000)
        assert estimate == pytest.approx(3000)

    def test_zero_rows(self, histograms):
        hists, _, _ = histograms
        assert estimate_row_count(Comparison("port", "=", 80), hists, 0) == 0.0


class TestPredicateFingerprint:
    def test_structural_and_case_insensitive(self):
        from repro.db.histogram import predicate_fingerprint

        a = And(Comparison("Port", "=", 80), Comparison("size", ">", 10.0))
        b = And(Comparison("port", "=", 80), Comparison("SIZE", ">", 10.0))
        assert predicate_fingerprint(a) == predicate_fingerprint(b)

    def test_distinguishes_values_ops_and_shape(self):
        from repro.db.histogram import predicate_fingerprint

        base = Comparison("port", "=", 80)
        assert predicate_fingerprint(base) != predicate_fingerprint(
            Comparison("port", "=", 443)
        )
        assert predicate_fingerprint(base) != predicate_fingerprint(
            Comparison("port", ">", 80)
        )
        assert predicate_fingerprint(
            And(base, TruePredicate())
        ) != predicate_fingerprint(Or(base, TruePredicate()))
        assert predicate_fingerprint(Not(base)) != predicate_fingerprint(base)


class TestSelectivityCache:
    @pytest.fixture
    def histograms(self, rng):
        ports = rng.choice([80, 443, 445], 10000, p=[0.5, 0.3, 0.2])
        sizes = rng.exponential(1000, 10000)
        return (
            {
                "port": build_histogram(ports),
                "size": build_histogram(sizes),
            },
            ports,
            sizes,
        )

    def test_cached_estimates_match_uncached(self, histograms):
        from repro.db.histogram import SelectivityCache

        hists, _, _ = histograms
        cache = SelectivityCache()
        predicate = And(Comparison("port", "=", 80), Comparison("size", ">", 500.0))
        first = estimate_row_count(predicate, hists, 10000, cache=cache)
        second = estimate_row_count(predicate, hists, 10000, cache=cache)
        bare = estimate_row_count(predicate, hists, 10000)
        assert first == second == bare
        assert cache.hits == 1 and cache.misses == 1

    def test_total_rows_part_of_key(self, histograms):
        from repro.db.histogram import SelectivityCache

        hists, _, _ = histograms
        cache = SelectivityCache()
        predicate = Comparison("port", "=", 80)
        at_10k = estimate_row_count(predicate, hists, 10000, cache=cache)
        at_5k = estimate_row_count(predicate, hists, 5000, cache=cache)
        assert at_5k == pytest.approx(at_10k / 2)
        assert cache.misses == 2

    def test_overflow_clears_and_stays_correct(self, histograms):
        from repro.db.histogram import SelectivityCache

        hists, ports, _ = histograms

        class TinyCache(SelectivityCache):
            __slots__ = ()
            MAX_ENTRIES = 8

        cache = TinyCache()
        for value in range(20):
            estimate_row_count(
                Comparison("port", "=", value), hists, 10000, cache=cache
            )
        estimate = estimate_row_count(
            Comparison("port", "=", 80), hists, 10000, cache=cache
        )
        assert estimate == pytest.approx(
            estimate_row_count(Comparison("port", "=", 80), hists, 10000)
        )
