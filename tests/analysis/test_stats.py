"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    Welford,
    gini,
    mean,
    median,
    percentile,
    percentiles,
    stdev,
    summarize_distribution,
)

floats = st.floats(min_value=-1e6, max_value=1e6)
positive_floats = st.floats(min_value=0.0, max_value=1e6)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([], default=7.0) == 7.0

    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert median([], default=-1.0) == -1.0

    def test_percentile_interpolation(self):
        values = [0.0, 10.0]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 50) == 5.0
        assert percentile(values, 100) == 10.0

    def test_percentile_single_value(self):
        assert percentile([42.0], 95) == 42.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 150)

    def test_stdev(self):
        assert stdev([2.0, 4.0]) == 1.0
        assert stdev([5.0]) == 0.0
        assert stdev([], default=3.0) == 3.0

    @given(st.lists(floats, min_size=1, max_size=50))
    def test_mean_within_bounds(self, values):
        assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6

    @given(st.lists(floats, min_size=1, max_size=50), st.floats(min_value=0, max_value=100))
    def test_percentile_within_bounds(self, values, q):
        assert min(values) - 1e-6 <= percentile(values, q) <= max(values) + 1e-6


class TestReferenceForms:
    """The sampler's arithmetic, held to the forms it replaced: every
    float equal, not approximately equal (digests hash them)."""

    def test_percentiles_validate_every_q(self):
        with pytest.raises(ValueError, match="percentile"):
            percentiles([1.0], (50, 101))
        assert percentiles([], (50, 99), default=-1.0) == [-1.0, -1.0]

    @given(st.lists(floats, min_size=2, max_size=60))
    def test_stdev_equals_generator_sum(self, values):
        m = sum(values) / len(values)
        reference = math.sqrt(sum((v - m) ** 2 for v in values) / len(values))
        assert stdev(values) == reference

    @given(st.lists(positive_floats, min_size=1, max_size=60))
    def test_gini_equals_enumerate_sum(self, values):
        total = sum(values)
        ordered = sorted(values)
        n = len(ordered)
        weighted = sum((i + 1) * x for i, x in enumerate(ordered))
        reference = (2.0 * weighted) / (n * total) - (n + 1.0) / n if total else 0.0
        assert gini(values) == reference


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_total_concentration(self):
        # one provider does all the work; gini -> (n-1)/n
        assert gini([0.0, 0.0, 0.0, 12.0]) == pytest.approx(0.75)

    def test_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            gini([1.0, -1.0])

    def test_known_value(self):
        # [1, 3]: G = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    @given(st.lists(positive_floats, min_size=1, max_size=50))
    def test_bounded_in_unit_interval(self, values):
        assert -1e-9 <= gini(values) <= 1.0

    @given(st.lists(positive_floats, min_size=1, max_size=50), st.floats(min_value=0.1, max_value=10))
    def test_scale_invariant(self, values, scale):
        scaled = [v * scale for v in values]
        assert gini(scaled) == pytest.approx(gini(values), abs=1e-9)

    @given(st.lists(positive_floats, min_size=1, max_size=30))
    def test_permutation_invariant(self, values):
        assert gini(values) == pytest.approx(gini(list(reversed(values))))


class TestWelford:
    def test_matches_batch_statistics(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        accumulator = Welford()
        for v in values:
            accumulator.add(v)
        assert accumulator.mean == pytest.approx(mean(values))
        assert accumulator.stdev == pytest.approx(stdev(values))
        assert accumulator.minimum == 1.0
        assert accumulator.maximum == 10.0
        assert accumulator.count == 5

    def test_empty_accumulator(self):
        accumulator = Welford()
        assert accumulator.mean == 0.0
        assert accumulator.variance == 0.0
        assert accumulator.minimum is None

    def test_merge_matches_combined_batch(self):
        a_values = [1.0, 2.0, 3.0]
        b_values = [10.0, 20.0]
        a, b = Welford(), Welford()
        for v in a_values:
            a.add(v)
        for v in b_values:
            b.add(v)
        merged = a.merge(b)
        combined = a_values + b_values
        assert merged.count == 5
        assert merged.mean == pytest.approx(mean(combined))
        assert merged.stdev == pytest.approx(stdev(combined))
        assert merged.minimum == 1.0
        assert merged.maximum == 20.0

    def test_merge_with_empty(self):
        a = Welford()
        b = Welford()
        b.add(5.0)
        assert a.merge(b).mean == 5.0
        assert b.merge(a).mean == 5.0

    @given(st.lists(floats, min_size=2, max_size=60))
    @settings(max_examples=50)
    def test_streaming_equals_batch(self, values):
        accumulator = Welford()
        for v in values:
            accumulator.add(v)
        assert accumulator.mean == pytest.approx(mean(values), rel=1e-6, abs=1e-6)
        assert accumulator.stdev == pytest.approx(stdev(values), rel=1e-6, abs=1e-3)


class TestSummaries:
    def test_summary_fields(self):
        summary = summarize_distribution([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5

    def test_empty_summary(self):
        summary = summarize_distribution([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_as_dict(self):
        d = summarize_distribution([1.0]).as_dict()
        assert set(d) == {"count", "mean", "stdev", "min", "p50", "p95", "p99", "max"}
