import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit as hk
from hurstkit import (
    CorruptionKind,
    FilterKind,
    TimeSeries,
    apply_filter,
    corrupt,
    filter_linear_detrend,
    filter_log,
    filter_poly_detrend,
)
from hurstkit.transforms import _detrend


@pytest.fixture()
def base():
    rng = np.random.default_rng(17)
    return TimeSeries(rng.standard_normal(5000) * 2.3 + 1.0)


ALL_KINDS = [CorruptionKind.ar1(), CorruptionKind.sine(), CorruptionKind.linear_trend()]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_corruption_std_matches_exactly(base, kind):
    out = corrupt(base, kind, seed=99)
    residual = out.values - base.values
    assert residual.std() == pytest.approx(base.stats.std, rel=1e-9)


@pytest.mark.parametrize("n", [4999, 5000])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_corrupt_keeps_the_bits_of_the_summed_form(n, kind):
    series = TimeSeries(np.random.default_rng(n).standard_normal(n) * 2.3 + 1.0)
    t = np.arange(n, dtype=np.float64)
    if kind.name == "ar1":
        raw = hk.gen_ar1(hk.Ar1Spec(phi=kind.phi, n=n, seed=9)).values
    elif kind.name == "sine":
        raw = np.sin(2.0 * np.pi * kind.cycles * t / n)
    else:
        raw = t - (n - 1) / 2.0
    want = series.values + raw * (series.stats.std / raw.std())
    assert corrupt(series, kind, seed=9).values.tobytes() == want.tobytes()


def test_corrupt_rejects_constant_series():
    with pytest.raises(hk.DegenerateSeries):
        corrupt(TimeSeries([3.0] * 100), CorruptionKind.sine())


def test_sine_corruption_zero_crossings(base):
    out = corrupt(base, CorruptionKind.sine(cycles=10), seed=0)
    residual = out.values - base.values
    signs = np.sign(residual)
    signs = signs[signs != 0]
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    assert abs(crossings - 20) <= 1


def test_sine_and_trend_ignore_seed(base):
    for kind in (CorruptionKind.sine(), CorruptionKind.linear_trend()):
        a = corrupt(base, kind, seed=1).values
        b = corrupt(base, kind, seed=2).values
        assert np.array_equal(a, b)


def test_ar1_corruption_seed_deterministic(base):
    a = corrupt(base, CorruptionKind.ar1(), seed=5).values
    b = corrupt(base, CorruptionKind.ar1(), seed=5).values
    c = corrupt(base, CorruptionKind.ar1(), seed=6).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trend_corruption_cancelled_by_detrend(base):
    # the added ramp is affine in t, so detrending the corrupted series
    # equals detrending the original
    corrupted = corrupt(base, CorruptionKind.linear_trend(), seed=0)
    got = filter_linear_detrend(corrupted).values
    want = filter_linear_detrend(base).values
    np.testing.assert_allclose(got, want, atol=1e-9)


# --- log filter -----------------------------------------------------------


def test_log_all_ones():
    out = filter_log(TimeSeries([1.0] * 8))
    assert np.all(out.values == 0.0)


def test_log_exponentials():
    out = filter_log(TimeSeries([math.e, math.e**2, math.e**3]))
    np.testing.assert_allclose(out.values, [1.0, 2.0, 3.0], rtol=1e-12)


def test_log_rejects_zero_with_index():
    with pytest.raises(hk.NonPositiveData, match="index 2"):
        filter_log(TimeSeries([1.0, 2.0, 0.0, 3.0]))


def test_log_rejects_negative():
    with pytest.raises(hk.NonPositiveData):
        filter_log(TimeSeries([1.0, -0.5]))


# --- linear detrend -------------------------------------------------------


def test_linear_detrend_kills_exact_line():
    t = np.arange(500, dtype=float)
    out = filter_linear_detrend(TimeSeries(3.0 * t + 7.0))
    assert np.max(np.abs(out.values)) < 1e-9


def test_linear_detrend_idempotent():
    rng = np.random.default_rng(23)
    series = TimeSeries(rng.standard_normal(400) + 0.01 * np.arange(400))
    once = filter_linear_detrend(series)
    twice = filter_linear_detrend(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)


def test_linear_detrend_output_mean_and_slope_vanish():
    rng = np.random.default_rng(29)
    out = filter_linear_detrend(TimeSeries(rng.standard_normal(1000) * 5))
    y = out.values
    t = np.arange(1000, dtype=float)
    t -= t.mean()
    assert abs(y.mean()) < 1e-10
    # OLS normal equation: slope = <t, y> / <t, t>
    assert abs(float(t @ y) / float(t @ t)) < 1e-10


def test_linear_detrend_too_short():
    with pytest.raises(hk.SeriesTooShort):
        filter_linear_detrend(TimeSeries([1.0]))


# --- polynomial detrend ---------------------------------------------------


def test_poly_detrend_annihilates_degree_ten_polynomial():
    n = 4000
    u = 2.0 * np.arange(n) / (n - 1) - 1.0
    coeffs = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.1, 0.2, -0.4, 0.9, -0.2, 0.6])
    values = np.polynomial.polynomial.polyval(u, coeffs)
    out = filter_poly_detrend(TimeSeries(values), degree=10)
    assert np.max(np.abs(out.values)) < 1e-6 * np.max(np.abs(values))


def test_poly_degree_one_matches_linear_detrend():
    rng = np.random.default_rng(31)
    series = TimeSeries(rng.standard_normal(800) + 0.02 * np.arange(800))
    a = filter_poly_detrend(series, degree=1).values
    b = filter_linear_detrend(series).values
    assert np.array_equal(a, b)


def test_poly_residual_orthogonal_to_basis():
    rng = np.random.default_rng(37)
    n = 3000
    series = TimeSeries(rng.standard_normal(n))
    resid = filter_poly_detrend(series, degree=10).values
    u = 2.0 * np.arange(n) / (n - 1) - 1.0
    basis = np.polynomial.chebyshev.chebvander(u, 10)
    for col in basis.T:
        cos = abs(float(col @ resid)) / (np.linalg.norm(col) * np.linalg.norm(resid))
        assert cos < 1e-6


def test_poly_residual_mean_vanishes():
    rng = np.random.default_rng(41)
    resid = filter_poly_detrend(TimeSeries(rng.standard_normal(2000)), degree=10).values
    assert abs(resid.mean()) < 1e-10


# --- the shared detrend -----------------------------------------------------
#
# On an equispaced grid the least-squares polynomial is well conditioned
# only up to a degree of order sqrt(N): beyond it, any two float64
# computations of the fit drift apart (at N = 100, degree 60, _detrend and
# Chebyshev.fit each differ from a 60-digit reference by about 1e-9 of
# max|y|).  The comparisons with Chebyshev.fit therefore stay at degree
# <= 2 sqrt(N); removing an exact polynomial holds at every degree.


@st.composite
def _detrend_case(draw, max_n=2000, full_degree=False):
    n = draw(st.integers(3, max_n))
    top = n - 2 if full_degree else max(1, min(n - 2, int(2 * math.sqrt(n))))
    degree = draw(st.integers(1, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    offset = draw(st.sampled_from([0.0, 1.0, -1e3]))
    return n, degree, rng, (rng.standard_normal(n) + offset) * scale


@given(_detrend_case(max_n=400, full_degree=True))
@settings(max_examples=80, deadline=None)
def test_detrend_removes_polynomials_of_its_degree(case):
    n, degree, rng, _ = case
    coeffs = rng.standard_normal(rng.integers(1, degree + 2)) * 10.0 ** rng.uniform(-3, 3)
    y = np.polynomial.chebyshev.chebval(np.linspace(-1.0, 1.0, n), coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _detrend(y, degree)
    assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(y))


@given(_detrend_case())
@settings(max_examples=80, deadline=None)
def test_detrend_matches_chebyshev_fit(case):
    n, degree, _, y = case
    t = np.arange(n, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        want = y - np.polynomial.Chebyshev.fit(t, y, degree)(t)
    assert np.max(np.abs(_detrend(y, degree) - want)) <= 1e-12 * np.max(np.abs(y))


@given(_detrend_case(), st.floats(-1e3, 1e3).filter(lambda a: abs(a) > 1e-3))
@settings(max_examples=80, deadline=None)
def test_detrend_is_affine_equivariant(case, a):
    n, degree, rng, y = case
    coeffs = rng.standard_normal(degree + 1) * np.max(np.abs(y)) * abs(a)
    z = a * y + np.polynomial.chebyshev.chebval(np.linspace(-1.0, 1.0, n), coeffs)
    got = _detrend(z, degree)
    assert np.max(np.abs(got - a * _detrend(y, degree))) <= 1e-12 * np.max(np.abs(z))


@given(_detrend_case())
@settings(max_examples=80, deadline=None)
def test_detrend_residual_orthogonal_to_chebyshev_columns(case):
    n, degree, _, y = case
    resid = _detrend(y, degree)
    basis = np.polynomial.chebyshev.chebvander(np.linspace(-1.0, 1.0, n), degree)
    for col in basis.T:
        assert abs(np.add.reduce(col * resid)) <= 1e-12 * np.linalg.norm(col) * np.linalg.norm(y)


def test_poly_too_short():
    with pytest.raises(hk.SeriesTooShort):
        filter_poly_detrend(TimeSeries(np.arange(11.0)), degree=10)


def test_apply_filter_dispatch(base):
    np.testing.assert_array_equal(
        apply_filter(base, FilterKind.linear_detrend()).values,
        filter_linear_detrend(base).values,
    )
    np.testing.assert_array_equal(
        apply_filter(base, FilterKind.poly_detrend(4)).values,
        filter_poly_detrend(base, degree=4).values,
    )


def test_kind_validation():
    with pytest.raises(ValueError):
        CorruptionKind(name="bogus")
    with pytest.raises(ValueError):
        FilterKind(name="bogus")
    with pytest.raises(ValueError):
        CorruptionKind.sine(cycles=0)
    for phi in [1.5, math.nan, -math.inf]:
        with pytest.raises(hk.ExplosiveAR, match=f"corruption AR\\(1\\) needs \\|phi\\| < 1, got {phi}"):
            CorruptionKind.ar1(phi)
    with pytest.raises(ValueError):
        FilterKind.poly_detrend(degree=0)


@given(st.lists(st.floats(-100.0, 100.0), min_size=32, max_size=200), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_std_match_property(values, seed):
    series = TimeSeries(values)
    if series.stats.std == 0.0:
        return
    for kind in ALL_KINDS:
        out = corrupt(series, kind, seed=seed)
        residual = out.values - series.values
        assert residual.std() == pytest.approx(series.stats.std, rel=1e-9)
