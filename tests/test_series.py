import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import TimeSeries, acf, aggregate, read_series, summary_stats, write_series


def test_summary_stats_constant():
    stats = summary_stats(TimeSeries([1, 1, 1, 1]))
    assert stats.mean == 1.0
    assert stats.variance == 0.0
    assert stats.std == 0.0


def test_summary_stats_two_points():
    stats = summary_stats(TimeSeries([0, 2]))
    assert stats.mean == 1.0
    assert stats.variance == 1.0


def test_summary_stats_by_hand():
    # direct summation: mean 2.5, squared deviations 2.25+.25+.25+2.25 over 4
    stats = summary_stats(TimeSeries([1, 2, 3, 4]))
    assert stats.mean == pytest.approx(2.5, abs=1e-15)
    assert stats.variance == pytest.approx(1.25, abs=1e-15)
    assert stats.std == pytest.approx(math.sqrt(1.25), abs=1e-15)


def test_single_point_series_has_zero_variance():
    stats = summary_stats(TimeSeries([7.0]))
    assert stats.variance == 0.0


def test_timeseries_rejects_non_finite():
    with pytest.raises(ValueError):
        TimeSeries([1.0, float("nan")])
    with pytest.raises(ValueError):
        TimeSeries([1.0, float("inf")])


def test_timeseries_values_read_only():
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_acf_lag0_exactly_one():
    rng = np.random.default_rng(3)
    curve = acf(TimeSeries(rng.standard_normal(200)), 20)
    assert curve.rho[0] == 1.0
    assert np.all(np.abs(curve.rho) <= 1.0 + 1e-12)


def test_acf_alternating_by_hand():
    # biased estimator on x = (+1,-1)*4: rho(1) = (7 * -1 / 8) / 1
    series = TimeSeries([1, -1, 1, -1, 1, -1, 1, -1])
    curve = acf(series, 1)
    assert curve.rho[1] == pytest.approx(-0.875, abs=1e-12)


def test_acf_matches_direct_sum_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(257)
    series = TimeSeries(x)
    max_lag = 40
    curve = acf(series, max_lag)
    mu = x.mean()
    var = x.var()
    for k in range(max_lag + 1):
        expected = float(np.dot(x[: len(x) - k] - mu, x[k:] - mu)) / len(x) / var
        assert curve.rho[k] == pytest.approx(expected, abs=1e-12)


def test_acf_errors():
    with pytest.raises(hk.DegenerateSeries):
        acf(TimeSeries([2.0, 2.0, 2.0]), 1)
    with pytest.raises(hk.LagOutOfRange):
        acf(TimeSeries([1.0, 2.0, 3.0]), 3)
    with pytest.raises(hk.LagOutOfRange):
        acf(TimeSeries([1.0, 2.0, 3.0]), 0)


def test_aggregate_examples():
    assert aggregate(TimeSeries([1, 2, 3, 4]), 2).values.tolist() == [1.5, 3.5]
    # trailing partial block dropped
    assert aggregate(TimeSeries([1, 2, 3, 4, 5]), 2).values.tolist() == [1.5, 3.5]


def test_aggregate_block_errors():
    series = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(hk.BadBlock):
        aggregate(series, 0)
    with pytest.raises(hk.BadBlock):
        aggregate(series, 4)


def test_aggregate_identity_and_chaining():
    rng = np.random.default_rng(5)
    series = TimeSeries(rng.standard_normal(120))
    assert np.array_equal(aggregate(series, 1).values, series.values)
    # a*b divides N=120
    chained = aggregate(aggregate(series, 4), 5)
    direct = aggregate(series, 20)
    np.testing.assert_allclose(chained.values, direct.values, rtol=1e-12)


def test_aggregate_preserves_mean_when_divisible():
    rng = np.random.default_rng(6)
    series = TimeSeries(rng.standard_normal(1000))
    agg = aggregate(series, 10)
    assert agg.values.mean() == pytest.approx(series.values.mean(), abs=1e-12)


def test_aggregate_iid_variance_scales_like_one_over_m(iid_big):
    # var of the mean of m iid unit-variance samples is 1/m
    agg = aggregate(iid_big[0], 100)
    assert agg.values.var() == pytest.approx(1.0 / 100.0, rel=0.2)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_aggregate_block_one_is_identity(values):
    series = TimeSeries(values)
    assert np.array_equal(aggregate(series, 1).values, series.values)


@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=80), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_acf_bounds_property(values, max_lag):
    series = TimeSeries(values)
    if series.stats.variance == 0.0:
        return
    lag = min(max_lag, len(series) - 1)
    curve = acf(series, lag)
    assert curve.rho[0] == 1.0
    assert np.all(np.abs(curve.rho) <= 1.0 + 1e-9)


def test_series_text_round_trip():
    values = [0.1, -3.7e-12, 12345.6789, 2.0**-40]
    buf = io.StringIO()
    write_series(TimeSeries(values), buf)
    text = "# a comment\n" + buf.getvalue() + "\n   \n"
    back = read_series(io.StringIO(text))
    assert back.values.tolist() == values


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.79e308, -1.79e308])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS, min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_series_text_round_trip_is_bit_exact(values):
    buf = io.StringIO()
    write_series(TimeSeries(values), buf)
    back = read_series(io.StringIO(buf.getvalue()))
    want = np.array(values, dtype=np.float64)
    assert np.array_equal(back.values.view(np.int64), want.view(np.int64))


def test_read_series_reports_bad_line():
    with pytest.raises(hk.MalformedLine, match="line 2"):
        read_series(io.StringIO("1.5\nnot-a-number\n"))
