"""Tests for the measurement primitives."""

import pytest

from repro.simcore import Summary, TimeSeries, cdf, percentile


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 50) == 5.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_p99_matches_numpy(self):
        import numpy as np
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 99) == pytest.approx(
            float(np.percentile(values, 99)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCdf:
    def test_shape(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)),
                          (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]

    def test_last_point_is_one(self):
        assert cdf([7.0, 7.0])[-1][1] == 1.0


class TestSummary:
    def test_mean(self):
        summary = Summary()
        summary.extend([1.0, 2.0, 3.0])
        assert summary.mean == 2.0

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            Summary().mean

    def test_min_max_count(self):
        summary = Summary()
        summary.extend([5.0, 1.0, 3.0])
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.count == 3

    def test_histogram_buckets(self):
        summary = Summary()
        summary.extend([0.5, 1.5, 2.5, 3.5])
        counts = summary.histogram([1.0, 2.0, 3.0])
        assert counts == [1, 1, 1, 1]

    def test_histogram_right_open(self):
        summary = Summary()
        summary.extend([1.0, 1.0])
        assert summary.histogram([1.0, 2.0]) == [2, 0, 0]


class TestTimeSeries:
    def test_record_appends_in_order(self):
        series = TimeSeries()
        for t in range(5):
            series.record(float(t), t * 10.0)
        assert len(series) == 5
        assert series.times[1:3] == [1.0, 2.0]
        assert series.values[1:3] == [10.0, 20.0]

    def test_out_of_order_rejected(self):
        series = TimeSeries()
        series.record(1.0, 0.0)
        with pytest.raises(ValueError):
            series.record(0.5, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        # A NaN time once passed ``t < last`` and then let any later
        # time in: [1.0, nan, 0.5].
        series = TimeSeries("water")
        series.record(1.0, 0.0)
        with pytest.raises(ValueError, match=r"time series 'water'"):
            series.record(bad, 0.0)
        with pytest.raises(ValueError, match="in order"):
            series.record(0.5, 0.0)
        series.record(1.0, 1.0)
        assert series.times == [1.0, 1.0]
        assert series.values == [0.0, 1.0]


class TestSummaryEdgeCases:
    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Summary().percentile(50)

    def test_empty_min_max_raise(self):
        with pytest.raises(ValueError):
            Summary().minimum
        with pytest.raises(ValueError):
            Summary().maximum

    def test_empty_errors_are_consistently_named(self):
        # Every empty-summary access names the summary instead of
        # leaking a bare builtin message like "min() arg is an empty
        # sequence".
        summary = Summary("rtt")
        for access in (lambda: summary.mean, lambda: summary.minimum,
                       lambda: summary.maximum,
                       lambda: summary.percentile(99),
                       lambda: summary.cdf()):
            with pytest.raises(ValueError, match=r"summary 'rtt' is empty"):
                access()
