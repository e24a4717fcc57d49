import math

import numpy as np
import pytest

import hurstkit as hk
from hurstkit import (
    TimeSeries,
    est_aggvar,
    est_local_whittle,
    est_periodogram,
    est_rs,
    est_wavelet,
    estimate,
    local_whittle_minimize,
    loglog_fit,
)


# --- loglog_fit -----------------------------------------------------------


def test_loglog_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = loglog_fit(x, 4.0 * x**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(4.0), abs=1e-12)
    assert fit.slope_se == pytest.approx(0.0, abs=1e-9)


def test_loglog_fit_constant():
    x = np.array([1.0, 3.0, 9.0, 27.0])
    fit = loglog_fit(x, np.full(4, 5.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_loglog_fit_matches_normal_equations():
    # independent oracle: solve the 2x2 normal equations directly
    x = np.array([2.0, 3.0, 5.0, 11.0, 17.0])
    y = np.array([1.3, 0.8, 2.9, 4.1, 9.7])
    lx, ly = np.log(x), np.log(y)
    a = np.array([[len(lx), lx.sum()], [lx.sum(), (lx * lx).sum()]])
    b = np.array([ly.sum(), (lx * ly).sum()])
    intercept, slope = np.linalg.solve(a, b)
    fit = loglog_fit(x, y)
    assert fit.slope == pytest.approx(slope, abs=1e-9)
    assert fit.intercept == pytest.approx(intercept, abs=1e-9)
    # classic OLS standard error for the slope
    resid = ly - (intercept + slope * lx)
    s2 = float(resid @ resid) / (len(lx) - 2)
    se = math.sqrt(s2 / float(((lx - lx.mean()) ** 2).sum()))
    assert fit.slope_se == pytest.approx(se, rel=1e-9)


def test_loglog_fit_subrange_and_storage():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    y = np.array([1.0, 2.0, 4.0, 8.0, 1000.0, 4000.0])
    fit = loglog_fit(x, y, fit_range=(0, 3))
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.fit_lo == 0 and fit.fit_hi == 3
    assert fit.xs.size == 6  # full grid retained for dumping


def test_loglog_fit_errors():
    with pytest.raises(hk.InsufficientPoints):
        loglog_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(hk.NonPositivePoint):
        loglog_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(hk.NonPositivePoint):
        loglog_fit([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(hk.InsufficientPoints):
        loglog_fit(np.arange(1.0, 6.0), np.arange(1.0, 6.0), fit_range=(1, 2))
    with pytest.raises(hk.InsufficientPoints):
        loglog_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])  # degenerate abscissae


def test_loglog_fit_weights_reduce_to_known_variance_se():
    # perfect fit with inverse-variance weights: se ~ 0 regardless of weights
    x = np.array([2.0, 4.0, 8.0, 16.0])
    fit = loglog_fit(x, 3.0 * x, weights=np.array([4.0, 3.0, 2.0, 1.0]))
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.slope_se == pytest.approx(0.0, abs=1e-9)


# --- local Whittle objective oracle ----------------------------------------


@pytest.mark.parametrize("h0", [0.6, 0.75, 0.9])
def test_local_whittle_recovers_exact_power_law(h0):
    n = 10_000
    m = 1000
    lam = 2.0 * np.pi * np.arange(1, m + 1) / n
    power = lam ** (1.0 - 2.0 * h0)
    got = local_whittle_minimize(lam, power)
    assert got == pytest.approx(h0, abs=1e-4)


def test_local_whittle_objective_shape():
    lam = 2.0 * np.pi * np.arange(1, 101) / 1000
    power = lam ** (1.0 - 2.0 * 0.7)
    at_min = hk.local_whittle_objective(0.7, lam, power)
    assert hk.local_whittle_objective(0.5, lam, power) > at_min
    assert hk.local_whittle_objective(0.9, lam, power) > at_min


def test_local_whittle_minimize_minimises_the_public_objective():
    series = hk.gen_fgn(hk.FgnSpec(hurst=0.8, n=4096, seed=3))
    pgram = hk.periodogram(series)
    lam, power = pgram.frequencies, pgram.power
    got = local_whittle_minimize(lam, power)
    at_min = hk.local_whittle_objective(got, lam, power)
    assert hk.local_whittle_objective(got - 1e-3, lam, power) > at_min
    assert hk.local_whittle_objective(got + 1e-3, lam, power) > at_min


# --- preconditions ----------------------------------------------------------


def test_estimator_minimum_lengths():
    short = TimeSeries(np.random.default_rng(0).standard_normal(63))
    with pytest.raises(hk.SeriesTooShort):
        est_rs(short)
    mid = TimeSeries(np.random.default_rng(0).standard_normal(999))
    with pytest.raises(hk.SeriesTooShort):
        est_aggvar(mid)
    with pytest.raises(hk.SeriesTooShort):
        est_periodogram(mid)
    with pytest.raises(hk.SeriesTooShort):
        est_local_whittle(mid)
    with pytest.raises(hk.SeriesTooShort):
        est_wavelet(TimeSeries(np.random.default_rng(0).standard_normal(1023)))


def test_estimators_reject_constant_series():
    const = TimeSeries(np.full(2048, 3.0))
    for fn in (est_rs, est_aggvar, est_periodogram, est_local_whittle, est_wavelet):
        with pytest.raises(hk.DegenerateSeries):
            fn(const)


def test_local_whittle_bandwidth_validation():
    series = TimeSeries(np.random.default_rng(1).standard_normal(2000))
    with pytest.raises(hk.BandwidthOutOfRange):
        est_local_whittle(series, m=7)
    with pytest.raises(hk.BandwidthOutOfRange):
        est_local_whittle(series, m=1000)
    report = est_local_whittle(series, m=64)
    assert report.diagnostics["bandwidth"] == 64


def test_estimate_dispatch_unknown():
    series = TimeSeries(np.random.default_rng(2).standard_normal(2048))
    with pytest.raises(ValueError):
        estimate(series, "nope")


# --- shared behavioural properties ------------------------------------------


@pytest.fixture(scope="module")
def medium_iid():
    return TimeSeries(np.random.default_rng(1234).standard_normal(8192))


@pytest.mark.parametrize("method", hk.METHOD_ORDER)
def test_affine_invariance(medium_iid, method):
    scaled = TimeSeries(3.7 * medium_iid.values - 11.0)
    h0 = estimate(medium_iid, method).hurst
    h1 = estimate(scaled, method).hurst
    assert abs(h1 - h0) < 1e-9


def test_no_clamping_outside_half_one(medium_iid):
    # cumulative sum of positively correlated noise looks like H > 1 to the
    # periodogram; the estimate must come back verbatim, flagged
    walk = TimeSeries(np.cumsum(hk.gen_fgn(hk.FgnSpec(0.7, 8192, 3)).values))
    report = est_periodogram(walk)
    assert report.hurst > 1.0
    assert report.diagnostics["outside_nominal_range"] is True
    lrd = est_periodogram(hk.gen_fgn(hk.FgnSpec(0.7, 8192, 4)))
    assert lrd.diagnostics["outside_nominal_range"] is False


def test_aggvar_depends_only_on_block_statistics(medium_iid):
    # permuting whole blocks of the largest fitted size leaves the variance
    # of block means at that size unchanged
    report = est_aggvar(medium_iid)
    m_max = int(round(math.exp(report.fit.xs[report.fit.fit_hi])))
    values = medium_iid.values
    nblocks = values.size // m_max
    blocks = values[: nblocks * m_max].reshape(nblocks, m_max)
    perm = np.random.default_rng(7).permutation(nblocks)
    shuffled = np.concatenate([blocks[perm].reshape(-1), values[nblocks * m_max :]])
    a = hk.aggregate(medium_iid, m_max).values.var()
    b = hk.aggregate(TimeSeries(shuffled), m_max).values.var()
    assert a == pytest.approx(b, rel=1e-12)


def test_wavelet_trend_invariance(medium_iid):
    ramp = np.arange(len(medium_iid), dtype=float)
    shifted = TimeSeries(medium_iid.values + 0.01 * ramp)
    h0 = est_wavelet(medium_iid).hurst
    h1 = est_wavelet(shifted).hurst
    assert abs(h1 - h0) < 1e-6


def test_wavelet_ci_brackets_h(fgn07):
    report = est_wavelet(fgn07[0])
    lo, hi = report.ci95
    assert lo < report.hurst < hi
    # fitted-line half width is around a percent at N = 100k
    assert 0.003 < (hi - lo) / 2 < 0.03


def test_rs_diagnostics_expose_ch(fgn07):
    report = est_rs(fgn07[0])
    assert report.fit is not None
    assert report.diagnostics["c_h"] == pytest.approx(math.exp(report.fit.intercept))


def test_periodogram_diagnostics_expose_beta(fgn07):
    report = est_periodogram(fgn07[0])
    assert report.diagnostics["beta"] == pytest.approx(-report.fit.slope)
    assert report.diagnostics["beta"] == pytest.approx(2.0 * report.hurst - 1.0, abs=1e-12)


def test_local_whittle_diagnostic_ci(fgn07):
    report = est_local_whittle(fgn07[0])
    lo, hi = report.diagnostics["asymptotic_ci95"]
    assert lo < report.hurst < hi
    assert report.ci95 is None  # interval is advisory, not authoritative


def test_trend_inflates_periodogram(fgn07):
    base = fgn07[0]
    trended = hk.corrupt(base, hk.CorruptionKind.linear_trend())
    clean = est_periodogram(base).hurst
    inflated = est_periodogram(trended).hurst
    assert inflated == pytest.approx(0.775, abs=0.04)
    assert inflated > clean + 0.03


def test_strong_ar1_pushes_whittle_past_one(fgn09):
    corrupted = hk.corrupt(fgn09[0], hk.CorruptionKind.ar1(), seed=2**32)
    report = est_local_whittle(corrupted)
    assert report.hurst > 1.0  # returned verbatim, never clamped
    assert report.diagnostics["outside_nominal_range"] is True
    assert report.hurst == pytest.approx(1.065, abs=0.04)


def test_sine_lifts_whittle_mildly(fgn07):
    corrupted = hk.corrupt(fgn07[0], hk.CorruptionKind.sine())
    assert est_local_whittle(corrupted).hurst == pytest.approx(0.785, abs=0.04)


def test_estimators_work_at_minimum_lengths():
    rs_min = TimeSeries(np.random.default_rng(5).standard_normal(64))
    assert math.isfinite(est_rs(rs_min).hurst)
    thousand = TimeSeries(np.random.default_rng(6).standard_normal(1000))
    for fn in (est_aggvar, est_periodogram, est_local_whittle):
        assert math.isfinite(fn(thousand).hurst)
    wav_min = TimeSeries(np.random.default_rng(7).standard_normal(1024))
    assert math.isfinite(est_wavelet(wav_min).hurst)
