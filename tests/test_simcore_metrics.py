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
    def test_record_and_window(self):
        series = TimeSeries()
        for t in range(5):
            series.record(float(t), t * 10.0)
        assert series.window(1.0, 3.0) == [(1.0, 10.0), (2.0, 20.0)]

    def test_out_of_order_rejected(self):
        series = TimeSeries()
        series.record(1.0, 0.0)
        with pytest.raises(ValueError):
            series.record(0.5, 0.0)

    def test_last(self):
        series = TimeSeries()
        series.record(1.0, 5.0)
        series.record(2.0, 6.0)
        assert series.last() == (2.0, 6.0)

    def test_empty_last_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().last()

    def test_bucketed_mean(self):
        series = TimeSeries()
        for t, v in [(0.0, 1.0), (0.5, 3.0), (1.0, 10.0)]:
            series.record(t, v)
        buckets = series.bucketed(1.0, agg="mean")
        assert buckets[0][1] == pytest.approx(2.0)
        assert buckets[1][1] == pytest.approx(10.0)

    def test_bucketed_rate(self):
        series = TimeSeries()
        for t in (0.0, 0.1, 0.2, 1.5):
            series.record(t, 1.0)
        buckets = series.bucketed(1.0, agg="rate")
        assert buckets[0][1] == pytest.approx(3.0)
        # The final bucket only covers [1.0, 1.5]: one event over half a
        # second is 2/s, not 1/s (the old full-width division).
        assert buckets[1][1] == pytest.approx(2.0)

    def test_bucketed_rate_clamps_partial_bucket_with_end(self):
        series = TimeSeries()
        for t in (0.0, 0.5, 1.0, 1.1):
            series.record(t, 1.0)
        buckets = series.bucketed(1.0, agg="rate", start=0.0, end=1.25)
        assert buckets[0][1] == pytest.approx(2.0)
        # Bucket 1 covers [1.0, 1.25): 2 events / 0.25 s.
        assert buckets[1][1] == pytest.approx(8.0)

    def test_bucketed_rate_sample_on_final_boundary(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(1.0, 1.0)
        buckets = series.bucketed(1.0, agg="rate")
        # The boundary sample lands in a zero-extent final bucket; the
        # rate falls back to the full bucket width instead of dividing
        # by zero.
        assert buckets[1][1] == pytest.approx(1.0)

    def test_bucketed_unknown_agg(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.bucketed(1.0, agg="wat")

    def test_bucketed_empty(self):
        assert TimeSeries().bucketed(1.0) == []

    def test_bucketed_sum_max_min_count(self):
        series = TimeSeries()
        for t, v in [(0.0, 1.0), (0.5, 3.0), (1.2, -2.0), (1.8, 7.0)]:
            series.record(t, v)
        assert series.bucketed(1.0, agg="sum")[0][1] == pytest.approx(4.0)
        assert series.bucketed(1.0, agg="max")[1][1] == pytest.approx(7.0)
        assert series.bucketed(1.0, agg="min")[1][1] == pytest.approx(-2.0)
        assert series.bucketed(1.0, agg="count")[0][1] == pytest.approx(2.0)

    def test_bucketed_respects_start_end_window(self):
        series = TimeSeries()
        for t in range(5):
            series.record(float(t), 1.0)
        buckets = series.bucketed(1.0, agg="count", start=1.0, end=3.0)
        # end is exclusive (same right-open convention as window()):
        # only the samples at t=1.0 and t=2.0 count.
        assert sum(count for _, count in buckets) == 2

    def test_bucketed_adjacent_windows_never_double_count(self):
        series = TimeSeries()
        for t in range(5):
            series.record(float(t), 1.0)
        first = series.bucketed(1.0, agg="count", start=0.0, end=2.0)
        second = series.bucketed(1.0, agg="count", start=2.0, end=4.0)
        # The sample at t=2.0 belongs to exactly one of the two calls.
        total = sum(c for _, c in first) + sum(c for _, c in second)
        assert total == 4

    def test_bucketed_default_end_includes_last_sample(self):
        series = TimeSeries()
        for t in (0.0, 1.0, 2.0):
            series.record(t, 1.0)
        buckets = series.bucketed(1.0, agg="count")
        assert sum(count for _, count in buckets) == 3

    def test_bucketed_midpoints(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(2.5, 1.0)
        buckets = series.bucketed(1.0, agg="count")
        assert buckets[0][0] == pytest.approx(0.5)
        assert buckets[1][0] == pytest.approx(2.5)

    def test_bucketed_nonpositive_width_raises(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.bucketed(0.0)
        with pytest.raises(ValueError):
            series.bucketed(-1.0)


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
