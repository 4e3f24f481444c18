"""Unit tests for TimeSeries, P2Quantile and QuantileSet."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.series import QuantileSet, TimeSeries


def sorted_reference(values, q):
    """Linear-interpolated order statistic over a sorted list, written
    out independently of repro.analysis.stats."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if low == high or rank == low:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class TestAppend:
    def test_append_and_access(self):
        series = TimeSeries("s")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert series.times == [0.0, 1.0]
        assert series.values == [1.0, 2.0]
        assert series.points() == [(0.0, 1.0), (1.0, 2.0)]
        assert len(series) == 2
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]

    def test_time_must_not_go_backwards(self):
        series = TimeSeries("s")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            series.append(4.0, 1.0)

    def test_equal_times_allowed(self):
        series = TimeSeries("s")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2


class TestAccessors:
    def make(self):
        series = TimeSeries("s")
        for t, v in [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]:
            series.append(t, v)
        return series

    def test_last(self):
        assert TimeSeries("s").last is None
        assert self.make().last == 40.0

    def test_value_at_step_interpolation(self):
        series = self.make()
        assert series.value_at(-1.0) is None
        assert series.value_at(0.0) == 10.0
        assert series.value_at(15.0) == 20.0
        assert series.value_at(100.0) == 40.0

    def test_window(self):
        series = self.make()
        assert series.window(5.0, 25.0) == [(10.0, 20.0), (20.0, 30.0)]
        with pytest.raises(ValueError, match="empty window"):
            series.window(10.0, 5.0)

    def test_mean(self):
        series = self.make()
        assert series.mean() == 25.0
        assert series.mean(10.0, 20.0) == 25.0

    def test_mean_empty(self):
        assert TimeSeries("s").mean() == 0.0

    def test_tail_mean(self):
        series = self.make()
        assert series.tail_mean(0.5) == 35.0  # last two samples
        assert series.tail_mean(1.0) == 25.0
        # fraction so small it keeps at least one sample
        assert series.tail_mean(0.01) == 40.0

    def test_tail_mean_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            self.make().tail_mean(0.0)

    def test_tail_mean_empty(self):
        assert TimeSeries("s").tail_mean() == 0.0

    def test_defensive_copies(self):
        series = self.make()
        series.times.append(99.0)
        assert len(series.times) == 4


class TestP2Quantile:
    def test_validation(self):
        from repro.metrics.series import P2Quantile

        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(1.0)

    def test_empty(self):
        from repro.metrics.series import P2Quantile

        accumulator = P2Quantile(0.5)
        assert accumulator.value() is None
        assert len(accumulator) == 0

    def test_exact_below_six_samples(self):
        from repro.metrics.series import P2Quantile

        numpy = pytest.importorskip("numpy")
        data = [5.0, 1.0, 4.0, 2.0, 3.0]
        for n in range(1, 6):
            for q in (0.5, 0.95, 0.99):
                accumulator = P2Quantile(q)
                for x in data[:n]:
                    accumulator.add(x)
                expected = float(numpy.percentile(data[:n], q * 100))
                assert accumulator.value() == pytest.approx(expected), (n, q)

    def test_tracks_numpy_on_large_streams(self):
        import random

        from repro.metrics.series import P2Quantile

        numpy = pytest.importorskip("numpy")
        rng = random.Random(7)
        for q, tolerance in ((0.5, 0.05), (0.95, 0.05), (0.99, 0.10)):
            samples = [rng.expovariate(1.0) for _ in range(20000)]
            accumulator = P2Quantile(q)
            for x in samples:
                accumulator.add(x)
            expected = float(numpy.percentile(samples, q * 100))
            # P^2 is an estimate: relative error within a few percent
            assert abs(accumulator.value() - expected) <= tolerance * expected

    def test_monotone_in_q(self):
        import random

        from repro.metrics.series import P2Quantile

        rng = random.Random(11)
        samples = [rng.lognormvariate(0.0, 1.0) for _ in range(5000)]
        p50, p95, p99 = P2Quantile(0.5), P2Quantile(0.95), P2Quantile(0.99)
        for x in samples:
            p50.add(x)
            p95.add(x)
            p99.add(x)
        assert p50.value() <= p95.value() <= p99.value()

    def test_extremes_stretch_markers(self):
        from repro.metrics.series import P2Quantile

        accumulator = P2Quantile(0.5)
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0, 100.0]:
            accumulator.add(x)
        assert -100.0 <= accumulator.value() <= 100.0


class TestQuantileSet:
    def test_snapshot_keys(self):
        from repro.metrics.series import QuantileSet

        quantiles = QuantileSet("rt")
        assert quantiles.snapshot() == {
            "count": 0, "mean": None, "min": None, "max": None,
            "p50": None, "p95": None, "p99": None,
        }
        for x in (3.0, 1.0, 2.0):
            quantiles.add(x)
        snap = quantiles.snapshot()
        assert snap["count"] == 3
        assert snap["mean"] == pytest.approx(2.0)
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["p50"] == pytest.approx(2.0)

    def test_quantile_lookup(self):
        from repro.metrics.series import QuantileSet

        quantiles = QuantileSet("rt", quantiles=(0.5,))
        quantiles.add(1.0)
        assert quantiles.quantile(0.5) == 1.0
        with pytest.raises(KeyError):
            quantiles.quantile(0.95)

    def test_needs_a_quantile(self):
        from repro.metrics.series import QuantileSet

        with pytest.raises(ValueError, match="at least one"):
            QuantileSet("rt", quantiles=())

    def test_fractional_quantile_key(self):
        from repro.metrics.series import QuantileSet

        quantiles = QuantileSet("rt", quantiles=(0.999,))
        quantiles.add(1.0)
        assert "p99_9" in quantiles.snapshot()


class TestQuantileSetExact:
    """The set keeps every observation and reads it exactly."""

    # Few distinct values make ties likely; small sizes cover n <= 5.
    tied = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e3]), min_size=1, max_size=12)
    spread = st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=200)

    @given(st.one_of(tied, spread))
    def test_agrees_with_sorted_list(self, values):
        quantiles = QuantileSet("rt", quantiles=(0.01, 0.25, 0.5, 0.95, 0.99))
        for x in values:
            quantiles.add(x)
        snap = quantiles.snapshot()
        assert snap["count"] == len(values)
        assert snap["min"] == min(values)
        assert snap["max"] == max(values)
        assert snap["mean"] == sum(values) / len(values)
        for q in quantiles.quantiles:
            reference = sorted_reference(values, q)
            assert quantiles.quantile(q) == pytest.approx(reference, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_sets_exact(self, n):
        quantiles = QuantileSet("rt")
        values = [float(v) for v in range(n, 0, -1)]
        for x in values:
            quantiles.add(x)
        for q in (0.5, 0.95, 0.99):
            assert quantiles.quantile(q) == pytest.approx(sorted_reference(values, q))

    def test_all_ties(self):
        quantiles = QuantileSet("rt")
        for _ in range(7):
            quantiles.add(4.0)
        snap = quantiles.snapshot()
        assert (snap["p50"], snap["p95"], snap["p99"]) == (4.0, 4.0, 4.0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_quantiles_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            QuantileSet("rt", quantiles=(0.5, q))

    def test_add_is_one_append_to_the_array(self):
        values = array("d", [1.0])
        quantiles = QuantileSet("rt", values=values)
        quantiles.add(2.0)
        values.append(3.0)  # appends by the owner are seen too
        assert quantiles.values is values
        assert list(values) == [1.0, 2.0, 3.0]
        assert quantiles.snapshot()["count"] == 3
