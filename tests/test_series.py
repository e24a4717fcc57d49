import io
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import TimeSeries, acf, aggregate, read_series, summary_stats, write_series
from hurstkit import series
from hurstkit.series import (
    _SERIES_LINE,
    _WRITE_SLICE,
    _decimal_columns,
    _load_values,
    _scan_values,
    _whole_text,
)


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
    assert aggregate(series, 1) is series  # a series is immutable: no copy
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


def _signed_magnitudes(rng, size):
    """Values of both signs with magnitudes spread log-uniformly over 1e-8..1e8."""
    return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-8.0, 8.0, size=size)


@given(m=st.integers(1, 64), log_n=st.floats(math.log(64), math.log(70_000)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_aggregate_equals_block_mean_bitwise(m, log_n, seed):
    # no -0.0 in the values: block 1 returns the series itself, where mean would give +0.0
    values = _signed_magnitudes(np.random.default_rng(seed), max(m, int(math.exp(log_n))))
    k = values.size // m
    want = values[: k * m].reshape(k, m).mean(axis=1)
    assert aggregate(TimeSeries(values), m).values.tobytes() == want.tobytes()


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


def test_write_series_slices_keep_bytes_and_write_nothing_when_empty():
    values = np.random.default_rng(2).standard_normal((1 << 16) + 3) * 1e3
    buf = io.StringIO()
    write_series(TimeSeries(values), buf)
    assert buf.getvalue() == "".join(f"{float(v)!r}\n" for v in values)
    empty = io.StringIO()
    write_series(TimeSeries([]), empty)
    assert empty.getvalue() == ""


# --- read_series: NumPy's C reader against the line scanner -----------------


def _series_outcome(parse, text):
    try:
        return parse(text).values.tobytes()
    except hk.HurstkitError as exc:
        return (type(exc), str(exc))


def _by_series_scanner(text):
    return _scan_values(text.split("\n"))


def _check_fast_path_agrees(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on input with no data
        want = _series_outcome(_by_series_scanner, text)
        assert _series_outcome(lambda t: read_series(io.StringIO(t)), text) == want
        assert _series_outcome(lambda t: read_series(io.StringIO(t).readlines()), text) == want
        if text.isascii():
            # a binary stream reads \r\n and \r as \n, as a file opened as text does
            universal = text.replace("\r\n", "\n").replace("\r", "\n")
            assert _series_outcome(lambda t: read_series(io.BytesIO(t.encode("ascii"))), text) == (
                _series_outcome(_by_series_scanner, universal)
            )
        if text.isascii():
            fast = _load_values(text.encode("ascii"))
            assert fast is None or fast.values.tobytes() == want


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n  \n",
        "1.5\n\n  \n-2.5\n",
        "# head\n1.5\n#\n2.5\n",
        "1.0 # x\n",
        "1_000\n",
        "nan\n",
        "1.0\ninf\n",
        "1e400\n",
        "1 2\n",
        "1\n2 3\n",
        "1 2\n3 4\n",
        "1.5\r\n2.5\r\n",
        "1.5\r2.5\r",
        "7",
        " +.5e1 \t\n",
        "0x10\n",
        "1,5\n",
        "1.5\x0b\n\x1c\n",
        "\u0663\n",
        "-0.0\n5e-324\n",
    ],
)
def test_read_series_fast_path_matches_scanner(text):
    _check_fast_path_agrees(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.-+_eEnaif #x\t\r\n\x0b\x1c", max_size=40))
def test_read_series_fast_path_never_disagrees_with_scanner(text):
    _check_fast_path_agrees(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS, max_size=40),
       st.sampled_from(["\n", "\r\n"]))
def test_read_series_fast_path_reads_written_values(values, newline):
    buf = io.StringIO()
    write_series(TimeSeries(values), buf)
    text = buf.getvalue().replace("\n", newline)
    fast = _load_values(text.encode("ascii"))
    assert fast is not None if values else fast is None
    _check_fast_path_agrees(text)


# --- write_series: whole values formatted by numpy --------------------------


def _repr_lines(values):
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist())


def _written(values):
    buf = io.StringIO()
    write_series(TimeSeries(values), buf)
    return buf.getvalue()


_POWERS = [float(10**k) for k in range(16)] + [float(10**k - 1) for k in range(1, 16)]


@pytest.mark.parametrize(
    "values, whole",
    [
        ([0.0], True),
        ([-0.0], False),
        ([1.0], True),
        ([9999999999999998.0], True),
        ([1e16], False),
        ([2.0**53, 2.0**53 + 2], True),
        ([-1.0, -10.0, -2.0**53, -9999999999999998.0, 7.0], True),
        (_POWERS + [-v for v in _POWERS if v], True),
        ([0.0, 1.5, 2.0], False),
        ([3.0, -0.0, 4.0], False),
        ([5.0, 5e-324], False),
    ],
    ids=["zero", "negative-zero", "one", "below-1e16", "1e16", "2**53", "negative", "digit-counts",
         "mixed", "whole-and-negative-zero", "subnormal"],
)
def test_write_series_matches_repr(values, whole):
    assert (_whole_text(np.array(values)) is not None) == whole
    assert _written(values) == _repr_lines(values)


def test_write_series_whole_and_mixed_slices_beyond_one_slice():
    rng = np.random.default_rng(5)
    whole = np.floor(rng.pareto(1.0, _WRITE_SLICE + 7) * 1000) * rng.choice([-1.0, 1.0], _WRITE_SLICE + 7)
    whole[whole == 0] = 0.0  # no -0.0: every slice takes the numpy path
    mixed = whole.copy()
    mixed[_WRITE_SLICE + 3] += 0.5  # the second slice falls back to repr
    for values in (whole, mixed):
        assert _written(values) == _repr_lines(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**16), 10**16).map(float) | _EDGE_FLOATS, max_size=50))
def test_write_series_of_whole_values_matches_repr(values):
    assert _written(values) == _repr_lines(values)


# --- read_series: the plain-decimal kernel on D+.D+ lines -------------------


def _by_series_kernel(text):
    columns = _decimal_columns(text.encode("ascii"), _SERIES_LINE)
    return None if columns is None else columns[0].tobytes()


def _floats(lines):
    return np.array([float(line) for line in lines]).tobytes()


def _near_series_midpoints(count, seed):
    """18-digit decimals within a quarter of a 64-bit ulp of a float64
    midpoint, where a quotient rounded twice may err."""
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        value = rnd.uniform(0.0, 10.0 ** rnd.randint(0, 12))
        ulp = Fraction(2) ** (math.frexp(value)[1] - 53)
        midpoint = Fraction(value) + ulp / 2
        frac = 18 - len(str(int(midpoint)))
        scaled = round(midpoint * 10**frac)
        if abs(Fraction(scaled, 10**frac) - midpoint) * 2**13 < ulp:
            digits = str(scaled).rjust(frac + 1, "0")
            found.append(f"{digits[:-frac]}.{digits[-frac:]}")
    return found


@pytest.mark.parametrize(
    "lines",
    [
        ["9007199254740993.0", "4503599627370496.5", "4503599627370497.5", "0.50000000000000005"],
        _near_series_midpoints(60, 8),
        ["99999999999999999.9", "0.99999999999999999", "123456789.123456789", "1.00000000000000000"],
        ["0.0", "00.000", "5.0", "1500.0", "17.25"],
    ],
    ids=["midpoints", "near-midpoints", "18-digits", "short"],
)
def test_series_kernel_reads_float_bits(lines):
    text = "".join(f"{line}\n" for line in lines)
    assert _by_series_kernel(text) == _floats(lines)
    assert _by_series_kernel(text[:-1]) == _floats(lines)  # no final newline
    assert read_series(io.BytesIO(text.encode("ascii"))).values.tobytes() == _floats(lines)


@pytest.mark.parametrize(
    "text",
    [
        "1234567890.123456789\n",  # 19 digits
        "0.1234567890123456789\n",
        "-1.5\n",
        "1.5\n-2.5\n",
        "1.0e5\n",
        "1.5\n\n2.5\n",
        "# c\n1.5\n",
        "1.5 # c\n",
        " 1.5\n",
        "1.5 \n",
        "15\n",
        ".5\n",
        "5.\n",
        "1.5 64\n",
        "1.2.3\n",
        "",
    ],
)
def test_series_kernel_declines_other_text(text):
    assert _by_series_kernel(text) is None
    _check_fast_path_agrees(text)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.text("0123456789", min_size=1, max_size=10),
                          st.text("0123456789", min_size=1, max_size=10)), min_size=1, max_size=30))
def test_series_kernel_reads_up_to_18_digits(fields):
    lines = [f"{whole}.{frac}" for whole, frac in fields]
    got = _by_series_kernel("".join(f"{line}\n" for line in lines))
    if max(len(line) - 1 for line in lines) > 18:
        assert got is None
    else:
        assert got == _floats(lines)


def test_series_kernel_declines_without_the_extended_format(monkeypatch):
    monkeypatch.setattr(series, "_EXTENDED", False)
    assert _by_series_kernel("1.5\n") is None
    assert read_series(io.BytesIO(b"1.5\n2.0\n")).values.tolist() == [1.5, 2.0]


def test_binary_stream_reports_a_non_ascii_byte_at_its_offset():
    text = b"".join(b"%d.0\n" % i for i in range(5000))
    with pytest.raises(UnicodeDecodeError) as exc:
        read_series(io.BytesIO(text[:20000] + b"\xc3\xa9" + text[20000:]))
    assert str(exc.value) == "'ascii' codec can't decode byte 0xc3 in position 20000: ordinal not in range(128)"


def test_binary_stream_reads_crlf_and_cr_line_ends():
    values = [float(i) for i in range(1000)] + [0.25, -3.5]
    lf = "".join(f"{v!r}\n" for v in values).encode("ascii")
    for text in (lf, lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r")):
        assert read_series(io.BytesIO(text)).values.tolist() == values
