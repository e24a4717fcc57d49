import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurstkit as hk
import hurstkit.estimators as estimators
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


def test_spectral_estimators_take_the_series_own_periodogram_alone():
    series = hk.gen_fgn(hk.FgnSpec(hurst=0.7, n=4096, seed=5))
    own = hk.periodogram(series)
    others = [hk.periodogram(TimeSeries(series.values[:size])) for size in (4095, 4000)]  # same bins; fewer
    for fn in (est_periodogram, est_local_whittle):
        given, computed = fn(series, periodogram=own), fn(series)
        assert (given.hurst.hex(), given.diagnostics) == (computed.hurst.hex(), computed.diagnostics)
        for other in others:
            with pytest.raises(ValueError, match="periodogram= is not of a series of 4096 points"):
                fn(series, periodogram=other)


def test_estimate_each_runs_in_order_and_takes_the_periodogram_at_the_first_spectral_method(monkeypatch):
    series = hk.gen_fgn(hk.FgnSpec(hurst=0.7, n=2048, seed=1))
    calls = []
    compute = estimators.compute_periodogram
    monkeypatch.setattr(estimators, "compute_periodogram", lambda s: calls.append("fft") or compute(s))
    reports = estimators.estimate_each(
        series, hk.METHOD_ORDER, lambda s, name, **kw: calls.append((name, sorted(kw))) or name
    )
    assert reports == list(hk.METHOD_ORDER)
    assert calls == [
        ("rs", []), ("aggvar", []), "fft", ("periodogram", ["periodogram"]), ("wavelet", []),
        ("local_whittle", ["periodogram"]),
    ]


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


# local Whittle is only as exact as its minimiser's xatol
_AFFINE_TOLERANCE = {"rs": 1e-9, "aggvar": 1e-9, "periodogram": 1e-9, "wavelet": 1e-9, "local_whittle": 1e-6}


@pytest.fixture(scope="module")
def affine_base():
    series = hk.gen_fgn(hk.FgnSpec(hurst=0.7, n=2048, seed=17))
    return series, {method: estimate(series, method).hurst for method in hk.METHOD_ORDER}


@settings(max_examples=40, deadline=None)
@given(
    log_scale=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    offset=st.floats(-1e5, 1e5),
)
def test_estimators_are_invariant_under_affine_maps(affine_base, log_scale, sign, offset):
    # x -> a x + b with |a| in [1e-3, 1e3] of either sign and |b| <= 1e5 |a|
    series, want = affine_base
    scale = sign * 10.0**log_scale
    moved = TimeSeries(scale * series.values + offset * abs(scale))
    for method, tolerance in _AFFINE_TOLERANCE.items():
        assert abs(estimate(moved, method).hurst - want[method]) <= tolerance, method


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


# Reversal leaves |X(f)| unchanged, so the spectral estimates stay put.  R/S and
# aggregated variance drop a different tail and db2 is asymmetric: not asserted.
@pytest.mark.parametrize("n", [1000, 1001, 4096, 5000, 2**14, 30000])
@pytest.mark.parametrize("hurst", [0.55, 0.8])
def test_spectral_estimates_ignore_time_reversal(n, hurst):
    for seed in range(8):
        series = hk.gen_fgn(hk.FgnSpec(hurst=hurst, n=n, seed=seed))
        reversed_ = TimeSeries(series.values[::-1])
        assert abs(est_periodogram(reversed_).hurst - est_periodogram(series).hurst) <= 1e-12
        # local Whittle is only as exact as its minimiser's xatol
        assert abs(est_local_whittle(reversed_).hurst - est_local_whittle(series).hurst) <= 1e-6


@pytest.fixture(scope="module")
def wavelet_base():
    series = hk.gen_fgn(hk.FgnSpec(hurst=0.7, n=2048, seed=17))
    return series, {order: est_wavelet(series, order=order).hurst for order in (2, 3, 4)}


@settings(max_examples=60, deadline=None)
@given(order=st.integers(2, 4), data=st.data())
def test_wavelet_estimate_ignores_polynomial_trends(wavelet_base, order, data):
    # order p has p vanishing moments: a trend of degree < p cancels on the wrap-free
    # prefix; here t in [0, 1) and |coefficients| <= 1e3 against a unit-variance series
    series, want = wavelet_base
    coefficients = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=order))
    t = np.arange(len(series)) / len(series)
    trended = TimeSeries(series.values + np.polynomial.polynomial.polyval(t, coefficients))
    assert abs(est_wavelet(trended, order=order).hurst - want[order]) <= 1e-10


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


@pytest.mark.parametrize(
    "fn, fit_min, fit_max",
    [(est_rs, 20, 200), (est_rs, 16, 72), (est_aggvar, 4, 120), (est_aggvar, 12, 60)],
    ids=["rs-wide", "rs-default", "aggvar-wide", "aggvar-narrow"],
)
def test_block_estimators_report_the_fit_window_they_were_given(medium_iid, fn, fit_min, fit_max):
    report = fn(medium_iid, fit_min=fit_min, fit_max=fit_max)
    sizes = np.rint(np.exp(report.fit.xs))
    inside = np.flatnonzero((sizes >= fit_min) & (sizes <= fit_max))
    assert (report.fit.fit_lo, report.fit.fit_hi) == (inside[0], inside[-1])
    assert report.diagnostics["fit_window"] == (sizes[inside[0]], sizes[inside[-1]])
    assert "fit_range" not in report.diagnostics


@pytest.mark.parametrize("fraction", [0.05, 0.1, 0.3, 1.0])
def test_periodogram_bins_used_follows_freq_fraction(medium_iid, fraction):
    report = est_periodogram(medium_iid, freq_fraction=fraction)
    used = int(fraction * len(report.fit.xs))
    assert report.diagnostics["bins_used"] == used
    assert (report.fit.fit_lo, report.fit.fit_hi) == (0, used - 1)


@pytest.mark.parametrize("j1, min_level_coeffs", [(3, 64), (2, 32), (1, 100)])
def test_wavelet_reports_the_octaves_it_was_given(medium_iid, j1, min_level_coeffs):
    report = est_wavelet(medium_iid, j1=j1, min_level_coeffs=min_level_coeffs)
    diags = report.diagnostics
    assert (diags["j1"], diags["min_level_coeffs"]) == (j1, min_level_coeffs)
    assert report.fit.xs[report.fit.fit_lo] == pytest.approx(j1 * math.log(2.0))
    deepest = max(j for j, c in enumerate(diags["clean_coeffs"], start=1) if c >= min_level_coeffs)
    assert diags["j2"] == deepest
    assert report.fit.xs[report.fit.fit_hi] == pytest.approx(deepest * math.log(2.0))


@pytest.mark.parametrize("j1, usable", [(6, 1), (7, 0)])
def test_wavelet_refuses_fewer_than_three_octaves(j1, usable):
    series = TimeSeries(np.random.default_rng(7).standard_normal(1024))
    with pytest.raises(hk.SeriesTooShort) as exc:
        est_wavelet(series, j1=j1)
    assert str(exc.value) == f"wavelet estimator needs >= 3 usable octaves from j1={j1}, got {usable}"


# --- R/S kernel against its plain per-block form --------------------------


def _reference_rs_ratios(values, grid):
    """The plain form of _rs_ratios: a cumsum per block and chunk.std."""
    ratios = []
    for block in grid:
        nblocks = values.size // block
        chunk = values[: nblocks * block].reshape(nblocks, block)
        dev = chunk - chunk.mean(axis=1, keepdims=True)
        walks = np.cumsum(dev, axis=1)
        rng_ = walks.max(axis=1) - walks.min(axis=1)
        std = chunk.std(axis=1)
        ok = std > 0.0
        ratios.append(float((rng_[ok] / std[ok]).mean()) if ok.any() else 0.0)
    return ratios


def _rs_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "step":  # constant 16-point runs: blocks of std 0, and sizes made only of them
        return np.repeat(np.arange(n // 16 + 1) % 3, 16)[:n].astype(float)
    if kind == "bytes":  # zero-heavy packet byte counts
        return rng.choice([0.0, 0.0, 0.0, 40.0, 576.0, 1500.0], size=n)
    if kind == "fgn":
        return hk.gen_fgn(hk.FgnSpec(hurst=0.8, n=n, seed=seed)).values
    return rng.standard_normal(n) + (1e8 if kind == "offset" else 0.0)


def _rs_with(kernel, series, n_min):
    """(grid, ratios, report) of est_rs with ``kernel`` as its ratio loop, or the refusal's text."""
    seen = []

    def record(values, grid):
        seen.append((grid, kernel(values, grid)))
        return seen[-1][1]

    with mock.patch.object(estimators, "_rs_ratios", record):
        try:
            report = est_rs(series, n_min=n_min)
        except hk.HurstkitError as exc:
            return f"{type(exc).__name__}: {exc}"
    return (*seen[0], report)


def _assert_rs_matches_reference(values, n_min):
    series = TimeSeries(values)
    got = _rs_with(estimators._rs_ratios, series, n_min)
    want = _rs_with(_reference_rs_ratios, series, n_min)
    if isinstance(want, str):
        assert got == want
        return
    (grid, ratios, report), (_, want_ratios, want_report) = got, want
    assert [r.hex() for r in ratios] == [r.hex() for r in want_ratios]

    def bits(r):
        return [float(v).hex() for v in (r.hurst, r.fit.slope_se, r.fit.intercept, *r.fit.xs, *r.fit.ys)]

    assert bits(report) == bits(want_report)
    assert report.diagnostics == want_report.diagnostics
    return grid


@pytest.mark.parametrize(
    "kind, n, n_min",
    [("fgn", 2**17, 10), ("iid", 300_000, 10), ("bytes", 300_000, 2), ("step", 65_536, 2), ("offset", 100_000, 10),
     ("iid", 64, 2), ("step", 2_000, 10)],
)
def test_rs_matches_the_per_row_reference(kind, n, n_min):
    grid = _assert_rs_matches_reference(_rs_series(kind, n, seed=n), n_min)
    if n >= 100_000:  # both walk layouts ran
        nblocks = n // grid
        assert nblocks.max() >= estimators._RS_STEPPED_BLOCKS > nblocks.min()


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["iid", "bytes", "step", "offset"]),
    log_n=st.floats(math.log(64), math.log(300_000)),
    n_min=st.sampled_from([2, 10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rs_matches_the_per_row_reference_property(kind, log_n, n_min, seed):
    _assert_rs_matches_reference(_rs_series(kind, int(math.exp(log_n)), seed), n_min)


# --- scratch buffers against the allocate-per-step forms -------------------


def _rs_ratios_allocating(values, grid):
    """_rs_ratios with fresh deviation, square and walk arrays for every block size."""
    ratios = []
    for block in grid:
        nblocks = values.size // block
        chunk = values[: nblocks * block].reshape(nblocks, block)
        dev = chunk - chunk.mean(axis=1)[:, None]
        std = chunk.std(axis=1)
        if nblocks >= estimators._RS_STEPPED_BLOCKS:
            walks = np.empty((block, nblocks))
            walks[0] = dev[:, 0]
            for k in range(1, block):
                np.add(walks[k - 1], dev[:, k], out=walks[k])
            rng_ = walks.max(axis=0) - walks.min(axis=0)
        else:
            walks = np.cumsum(dev, axis=1, out=dev)
            rng_ = walks.max(axis=1) - walks.min(axis=1)
        ok = std > 0.0
        ratios.append(float((rng_[ok] / std[ok]).mean()) if ok.any() else 0.0)
    return ratios


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["iid", "bytes", "step", "offset"]),
    n=st.one_of(st.sampled_from([98_183, 2**17]), st.integers(64, 200_000)),
    n_min=st.sampled_from([2, 10]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="fgn", n=2**17, n_min=10, seed=1)
@example(kind="iid", n=98_183, n_min=2, seed=2)
@example(kind="bytes", n=4_097, n_min=2, seed=3)
def test_rs_scratch_rows_match_the_allocating_form(kind, n, n_min, seed):
    values = _rs_series(kind, n, seed)
    grid = estimators._log_grid(n_min, max(n // 10, 2 * n_min), 30)
    assert grid.min() < 16
    got = estimators._rs_ratios(values, grid)
    assert [r.hex() for r in got] == [r.hex() for r in _rs_ratios_allocating(values, grid)]


def _local_whittle_objective_allocating(hurst, log_lam, mean_log, power):
    scaled = power * np.exp((2.0 * hurst - 1.0) * log_lam)
    return float(np.log(scaled.mean()) - (2.0 * hurst - 1.0) * mean_log)


@settings(max_examples=25, deadline=None)
@given(
    n=st.one_of(st.sampled_from([98_183, 2**17]), st.integers(1000, 200_000)),
    share=st.floats(0.0, 1.0),
    hurst=st.floats(0.55, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=98_183, share=1.0, hurst=0.8, seed=11)
@example(n=2**17, share=0.1, hurst=0.7, seed=12)
@example(n=1001, share=0.0, hurst=0.6, seed=13)
def test_local_whittle_work_buffer_matches_the_allocating_form(n, share, hurst, seed):
    pgram = hk.periodogram(hk.gen_fgn(hk.FgnSpec(hurst=hurst, n=n, seed=seed)))
    m = max(8, int(share * pgram.power.size))
    lam, power = pgram.frequencies[:m], pgram.power[:m]
    log_lam = np.log(lam)
    mean_log = log_lam.mean()
    want = estimators._fminbound(
        lambda h: _local_whittle_objective_allocating(h, log_lam, mean_log, power), 0.01, 1.49, 1e-6
    )
    got = local_whittle_minimize(lam, power)
    assert got.hex() == want.hex()
    out = np.full_like(log_lam, np.nan)
    for h in (0.01, 0.5, got, 1.49):  # one buffer over many evaluations, as in the minimiser
        assert estimators._local_whittle_objective(h, log_lam, mean_log, power, out).hex() == (
            _local_whittle_objective_allocating(h, log_lam, mean_log, power).hex()
        )


# --- aggregated variance against its plain per-size form -------------------


def _assert_aggvar_matches_reference(values):
    """est_aggvar's fit equals one built from plain ``chunk.mean(axis=1).var()`` per size."""
    sizes = []

    def spy(series, m):
        sizes.append(m)
        return hk.aggregate(series, m)

    with mock.patch.object(estimators, "aggregate", spy):
        report = est_aggvar(TimeSeries(values))
    want = []
    for m in sizes:
        k = values.size // m
        want.append(float(values[: k * m].reshape(k, m).mean(axis=1).var()))
    want_fit, _ = estimators._block_fit(sizes, want, 10, values.size // 100)  # est_aggvar's default window
    assert [float(v).hex() for v in report.fit.ys] == [float(v).hex() for v in want_fit.ys]
    assert report.fit.slope.hex() == want_fit.slope.hex()
    assert report.hurst.hex() == (1.0 + want_fit.slope / 2.0).hex()
    return np.array(sizes)


@pytest.mark.parametrize(
    "kind, n",
    [("fgn", 2**17), ("iid", 300_000), ("bytes", 300_000), ("step", 65_536), ("offset", 100_000),
     ("iid", 1000), ("step", 2_000)],
)
def test_aggvar_matches_the_per_size_reference(kind, n):
    sizes = _assert_aggvar_matches_reference(_rs_series(kind, n, seed=n))
    assert sizes.min() < 16 and sizes.max() >= 16  # both row-sum paths ran


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["iid", "bytes", "step", "offset"]),
    log_n=st.floats(math.log(1001), math.log(300_000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggvar_matches_the_per_size_reference_property(kind, log_n, seed):
    _assert_aggvar_matches_reference(_rs_series(kind, int(math.exp(log_n)), seed))


# --- window-only block fits against the full grid --------------------------


def _fit_bits(fn, series, **kwargs):
    """(H, slope, intercept, slope_se as float.hex, fit_window, fit_range) of one call, or the exception class."""
    try:
        report = fn(series, **kwargs)
    except hk.HurstkitError as exc:
        return type(exc)
    fit = report.fit
    hexes = [float(v).hex() for v in (report.hurst, fit.slope, fit.intercept, fit.slope_se)]
    return hexes, report.diagnostics["fit_window"], report.diagnostics.get("fit_range")


def _assert_window_only_matches_full(values):
    """fit_only=True gives the default path's bits for R/S and aggregated variance; True where it fell back."""
    series = TimeSeries(values)
    fell_back = []
    for fn in (est_rs, est_aggvar):
        full = _fit_bits(fn, series)
        assert _fit_bits(fn, series, fit_only=True) == full
        if isinstance(full, type):
            continue
        fell_back.append(full[2] == "full(fallback)")
        report = fn(series, fit_only=True)
        if not fell_back[-1]:  # only the fitted sizes were kept
            assert report.fit.fit_lo == 0 and report.fit.fit_hi == report.fit.xs.size - 1
            assert report.diagnostics["block_sizes"] == report.fit.xs.size
            lo, hi = report.diagnostics["fit_window"]
            assert np.exp(report.fit.xs[[0, -1]]) == pytest.approx([lo, hi])
    return fell_back


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["fgn", "iid", "step", "bytes"]),
    log_n=st.floats(math.log(64), math.log(2**17)),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="fgn", log_n=math.log(2**17), seed=1)
@example(kind="iid", log_n=math.log(98_183) + 1e-9, seed=2)
@example(kind="step", log_n=math.log(98_183) + 1e-9, seed=3)
@example(kind="step", log_n=math.log(64), seed=4)
def test_window_only_block_fits_match_the_full_grid(kind, log_n, seed):
    _assert_window_only_matches_full(_rs_series(kind, int(math.exp(log_n)), seed))


@pytest.mark.parametrize(
    "n, fell_back",
    [(1000, [True, True]), (1500, [True, False]), (2048, [True, False]), (2**17, [False, False])],
)
def test_window_only_block_fits_fall_back_like_the_full_grid(n, fell_back):
    assert _assert_window_only_matches_full(_rs_series("iid", n, seed=n)) == fell_back


def test_spectral_estimators_use_a_fully_positive_periodogram_as_it_is(fgn07):
    pgram = hk.periodogram(fgn07[0])
    assert (pgram.power > 0.0).all()
    report = est_periodogram(fgn07[0])
    used = report.diagnostics["bins_used"]
    want = loglog_fit(pgram.frequencies.copy(), pgram.power.copy(), fit_range=(0, used - 1))
    assert report.fit.slope.hex() == want.slope.hex()
    assert report.fit.intercept.hex() == want.intercept.hex()
    assert report.fit.slope_se.hex() == want.slope_se.hex()
    lw = est_local_whittle(fgn07[0])
    assert lw.hurst.hex() == local_whittle_minimize(pgram.frequencies.copy(), pgram.power.copy()).hex()


def test_spectral_estimators_drop_a_zero_periodogram_bin(fgn07, monkeypatch):
    real = hk.periodogram(fgn07[0])
    power = real.power.copy()
    power[4] = 0.0
    monkeypatch.setattr(estimators, "compute_periodogram", lambda series: hk.Periodogram(real.frequencies, power))
    keep = power > 0.0
    freqs, kept = real.frequencies[keep], power[keep]

    report = est_periodogram(fgn07[0])
    used = max(3, int(0.10 * freqs.size))
    want = loglog_fit(freqs, kept, fit_range=(0, used - 1))
    assert report.fit.xs.size == power.size - 1
    assert [float(v).hex() for v in report.fit.xs] == [float(v).hex() for v in want.xs]
    assert report.hurst.hex() == ((1.0 - want.slope) / 2.0).hex()
    assert report.fit.slope_se.hex() == want.slope_se.hex()

    m = 200
    lw = est_local_whittle(fgn07[0], m=m)
    sub = keep[:m]
    want_h = local_whittle_minimize(real.frequencies[:m][sub], power[:m][sub])
    assert lw.hurst.hex() == want_h.hex()
    assert lw.hurst.hex() != local_whittle_minimize(real.frequencies[:m], power[:m]).hex()  # the bin counted


# --- window-only periodogram fit against the full one -----------------------


def _pgram_bits(report):
    """H, slope, intercept, slope_se, beta and c_f as float.hex, with bins_used and the fit's range."""
    fit, diags = report.fit, report.diagnostics
    hexes = [float(v).hex() for v in (report.hurst, fit.slope, fit.intercept, fit.slope_se, diags["beta"], diags["c_f"])]
    return hexes, diags["bins_used"], (fit.fit_lo, fit.fit_hi), diags["outside_nominal_range"]


def _assert_window_only_periodogram_matches_full(series):
    full = est_periodogram(series)
    window = est_periodogram(series, fit_only=True)
    assert _pgram_bits(window) == _pgram_bits(full)
    used = full.diagnostics["bins_used"]
    assert window.fit.xs.size == window.fit.ys.size == window.fit.weights.size == used
    for name in ("xs", "ys", "weights"):
        assert getattr(window.fit, name).tobytes() == getattr(full.fit, name)[:used].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["fgn", "iid", "bytes", "offset"]),
    n=st.integers(1000, 2**17),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="fgn", n=1000, seed=1)
@example(kind="iid", n=98_183, seed=2)
@example(kind="fgn", n=2**17, seed=3)
def test_window_only_periodogram_fit_matches_the_full_one(kind, n, seed):
    _assert_window_only_periodogram_matches_full(TimeSeries(_rs_series(kind, n, seed)))


def test_window_only_periodogram_fit_drops_a_zero_bin_like_the_full_one(fgn07, monkeypatch):
    real = hk.periodogram(fgn07[0])
    power = real.power.copy()
    power[4] = 0.0
    monkeypatch.setattr(estimators, "compute_periodogram", lambda series: hk.Periodogram(real.frequencies, power))
    _assert_window_only_periodogram_matches_full(fgn07[0])
    window = est_periodogram(fgn07[0], fit_only=True)
    keep = power > 0.0
    used = window.diagnostics["bins_used"]
    assert used == int(0.10 * np.count_nonzero(keep))
    assert window.fit.xs.tobytes() == np.log(real.frequencies[keep][:used]).tobytes()
