"""The five Hurst estimators and the shared log-log regression machinery.

Methods and their slope-to-H maps:

* ``rs``             mean rescaled range over blocks; H = slope.
* ``aggvar``         variance of block means ~ m^(2H-2); H = 1 + slope/2.
* ``periodogram``    low-frequency log-log periodogram; H = (1 - slope)/2.
* ``local_whittle``  semi-parametric frequency-domain likelihood
                     (Robinson 1995) on the m lowest Fourier frequencies.
* ``wavelet``        per-octave detail energy ~ 2^(j(2H-1)); H = (slope+1)/2,
                     with a fitted-line 95% interval (Abry-Veitch style).

No estimator clamps its output: values outside (1/2, 1) are returned
verbatim and flagged in the diagnostics.  Default fit ranges are package
defaults, not ground truth, and every one is overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    BandwidthOutOfRange,
    DegenerateSeries,
    InsufficientPoints,
    NonPositivePoint,
    SeriesTooShort,
)
from .series import TimeSeries, aggregate
from .spectral import periodogram as compute_periodogram
from .wavelet import dwt

__all__ = [
    "LogLogFit",
    "EstimatorReport",
    "loglog_fit",
    "est_rs",
    "est_aggvar",
    "est_periodogram",
    "est_local_whittle",
    "est_wavelet",
    "local_whittle_objective",
    "local_whittle_minimize",
    "estimate",
    "METHOD_ORDER",
]

METHOD_ORDER = ("rs", "aggvar", "periodogram", "wavelet", "local_whittle")


@dataclass(frozen=True)
class LogLogFit:
    """Weighted least squares of ln y on ln x over an index range.

    ``xs``/``ys`` hold the log coordinates of every supplied point;
    ``fit_lo``/``fit_hi`` are the inclusive indices actually regressed.
    ``slope_se`` uses the standard WLS formula with the weighted residual
    mean square (for unit weights this is the classic OLS standard
    error; for inverse-variance weights it reduces to the theoretical
    value when the fit is good and inflates when it is not).
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    fit_lo: int
    fit_hi: int
    slope: float
    intercept: float
    slope_se: float


@dataclass(frozen=True)
class EstimatorReport:
    """One estimator's H, the regression behind it and optional 95% CI."""

    method: str
    hurst: float
    fit: LogLogFit | None
    ci95: tuple[float, float] | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)


def loglog_fit(
    x,
    y,
    weights=None,
    fit_range: tuple[int, int] | None = None,
) -> LogLogFit:
    """Fit ln y on ln x by (weighted) least squares over ``fit_range``.

    ``weights`` are per-point inverse variances of ln y (all ones for
    plain OLS).  Needs >= 3 points in range; every coordinate must be
    strictly positive.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise NonPositivePoint("log-log fit needs strictly positive coordinates")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != x.shape or np.any(w <= 0.0):
        raise ValueError("weights must be positive and match the data length")

    lo, hi = (0, x.size - 1) if fit_range is None else fit_range
    if not (0 <= lo <= hi < x.size):
        raise ValueError(f"fit range ({lo}, {hi}) out of bounds for {x.size} points")
    npts = hi - lo + 1
    if npts < 3:
        raise InsufficientPoints(f"log-log fit needs >= 3 points in range, got {npts}")

    lx = np.log(x)
    ly = np.log(y)
    sl = slice(lo, hi + 1)
    ws, xs, ys = w[sl], lx[sl], ly[sl]
    if np.unique(xs).size < 2:
        raise InsufficientPoints("log-log fit needs at least two distinct abscissae")
    s0 = ws.sum()
    sx = float(ws @ xs)
    sy = float(ws @ ys)
    sxx = float(ws @ (xs * xs))
    sxy = float(ws @ (xs * ys))
    delta = s0 * sxx - sx * sx
    slope = (s0 * sxy - sx * sy) / delta
    intercept = (sy - slope * sx) / s0
    resid = ys - (intercept + slope * xs)
    mse = float(ws @ (resid * resid)) / (npts - 2)
    slope_se = math.sqrt(max(mse, 0.0) * s0 / delta)
    return LogLogFit(
        xs=lx,
        ys=ly,
        weights=w,
        fit_lo=lo,
        fit_hi=hi,
        slope=slope,
        intercept=intercept,
        slope_se=slope_se,
    )


def _log_grid(lo: int, hi: int, points: int) -> np.ndarray:
    grid = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(int))
    return grid[grid >= lo]


def _fit_indices(grid: np.ndarray, lo: float, hi: float) -> tuple[int, int, bool]:
    """Inclusive index range of grid values in [lo, hi]; full-range fallback."""
    inside = np.flatnonzero((grid >= lo) & (grid <= hi))
    if inside.size >= 3:
        return int(inside[0]), int(inside[-1]), False
    return 0, grid.size - 1, True


def _flag_range(report_diags: dict[str, Any], hurst: float) -> dict[str, Any]:
    report_diags["outside_nominal_range"] = not (0.5 < hurst < 1.0)
    return report_diags


def est_rs(
    series: TimeSeries,
    *,
    grid_points: int = 30,
    n_min: int = 10,
    n_max: int | None = None,
    fit_min: int = 16,
    fit_max: int | None = None,
) -> EstimatorReport:
    """Rescaled-range estimator: mean R/S(n) ~ C n^H.

    Blocks of each size n partition the series; R is the range of the
    block's cumulative mean-adjusted sums and S its population std
    (degenerate blocks are skipped).  H is the log-log slope over the
    fit window, n in [16, N/100] by default: small blocks carry the
    transient that makes R/S understate strong dependence without
    pushing iid data past H = 0.55, and blocks much longer than that
    start reacting to slow additive components.
    """
    n = len(series)
    if n < 64:
        raise SeriesTooShort(f"R/S needs N >= 64, got {n}")
    if series.stats.std == 0.0:
        raise DegenerateSeries("R/S undefined for a constant series")
    n_max = n_max if n_max is not None else max(n // 10, 2 * n_min)
    fit_max = fit_max if fit_max is not None else max(n // 100, fit_min + 2)
    grid = _log_grid(max(2, n_min), max(n_min + 1, n_max), grid_points)
    grid = grid[grid <= n]

    sizes = []
    ratios = []
    for block in grid:
        nblocks = n // block
        chunk = series.values[: nblocks * block].reshape(nblocks, block)
        dev = chunk - chunk.mean(axis=1, keepdims=True)
        walks = np.cumsum(dev, axis=1)
        rng_ = walks.max(axis=1) - walks.min(axis=1)
        std = chunk.std(axis=1)
        ok = std > 0.0
        if not ok.any():
            continue
        sizes.append(block)
        ratios.append(float((rng_[ok] / std[ok]).mean()))
    sizes = np.asarray(sizes, dtype=np.float64)
    ratios = np.asarray(ratios, dtype=np.float64)
    keep = ratios > 0.0
    sizes, ratios = sizes[keep], ratios[keep]

    lo, hi, fell_back = _fit_indices(sizes, fit_min, fit_max)
    fit = loglog_fit(sizes, ratios, fit_range=(lo, hi))
    hurst = fit.slope
    diags: dict[str, Any] = {
        "block_sizes": int(sizes.size),
        "c_h": math.exp(fit.intercept),
        "fit_window": (float(sizes[lo]), float(sizes[hi])),
    }
    if fell_back:
        diags["fit_range"] = "full(fallback)"
    return EstimatorReport(method="rs", hurst=hurst, fit=fit, diagnostics=_flag_range(diags, hurst))


def est_aggvar(
    series: TimeSeries,
    *,
    grid_points: int = 30,
    m_min: int = 2,
    m_max: int | None = None,
    fit_min: int = 10,
    fit_max: int | None = None,
) -> EstimatorReport:
    """Aggregated-variance estimator: var of block means ~ m^(2H-2)."""
    n = len(series)
    if n < 1000:
        raise SeriesTooShort(f"aggregated variance needs N >= 1000, got {n}")
    if series.stats.std == 0.0:
        raise DegenerateSeries("aggregated variance undefined for a constant series")
    m_max = m_max if m_max is not None else max(n // 30, 2 * m_min)
    fit_max = fit_max if fit_max is not None else n // 100
    grid = _log_grid(m_min, m_max, grid_points)

    sizes = []
    variances = []
    for m in grid:
        var = float(aggregate(series, int(m)).values.var())
        if var > 0.0:
            sizes.append(m)
            variances.append(var)
    sizes = np.asarray(sizes, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)

    lo, hi, fell_back = _fit_indices(sizes, fit_min, fit_max)
    fit = loglog_fit(sizes, variances, fit_range=(lo, hi))
    hurst = 1.0 + fit.slope / 2.0
    diags: dict[str, Any] = {
        "block_sizes": int(sizes.size),
        "fit_window": (float(sizes[lo]), float(sizes[hi])),
    }
    if fell_back:
        diags["fit_range"] = "full(fallback)"
    return EstimatorReport(method="aggvar", hurst=hurst, fit=fit, diagnostics=_flag_range(diags, hurst))


def est_periodogram(series: TimeSeries, *, freq_fraction: float = 0.10) -> EstimatorReport:
    """Periodogram estimator: log I(lambda) vs log lambda has slope 1 - 2H.

    Fits the lowest ``freq_fraction`` of the Fourier frequencies.
    """
    n = len(series)
    if n < 1000:
        raise SeriesTooShort(f"periodogram estimator needs N >= 1000, got {n}")
    if series.stats.std == 0.0:
        raise DegenerateSeries("periodogram estimator undefined for a constant series")
    if not (0.0 < freq_fraction <= 1.0):
        raise ValueError(f"freq_fraction must be in (0, 1], got {freq_fraction}")
    pgram = compute_periodogram(series)
    positive = pgram.power > 0.0
    freqs = pgram.frequencies[positive]
    power = pgram.power[positive]
    used = max(3, int(freq_fraction * freqs.size))
    fit = loglog_fit(freqs, power, fit_range=(0, used - 1))
    hurst = (1.0 - fit.slope) / 2.0
    diags: dict[str, Any] = {
        "bins_used": used,
        "beta": -fit.slope,
        "c_f": math.exp(fit.intercept),
    }
    return EstimatorReport(
        method="periodogram", hurst=hurst, fit=fit, diagnostics=_flag_range(diags, hurst)
    )


def _local_whittle_objective(
    hurst: float, log_lam: np.ndarray, mean_log: float, power: np.ndarray
) -> float:
    scaled = power * np.exp((2.0 * hurst - 1.0) * log_lam)
    return float(np.log(scaled.mean()) - (2.0 * hurst - 1.0) * mean_log)


def local_whittle_objective(hurst: float, frequencies: np.ndarray, power: np.ndarray) -> float:
    """R(H) = ln[mean(lambda^(2H-1) I)] - (2H-1) mean(ln lambda)."""
    log_lam = np.log(frequencies)
    return _local_whittle_objective(hurst, log_lam, log_lam.mean(), power)


def local_whittle_minimize(
    frequencies: np.ndarray,
    power: np.ndarray,
    *,
    lo: float = 0.01,
    hi: float = 1.49,
    tol: float = 1e-6,
) -> float:
    """Minimise the local Whittle objective over [lo, hi] to tolerance tol."""
    log_lam = np.log(np.asarray(frequencies, dtype=np.float64))
    power = np.asarray(power, dtype=np.float64)
    res = minimize_scalar(
        _local_whittle_objective,
        args=(log_lam, log_lam.mean(), power),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": tol},
    )
    return float(res.x)


def est_local_whittle(series: TimeSeries, m: int | None = None) -> EstimatorReport:
    """Local Whittle estimator on the m lowest Fourier frequencies.

    Defaults to every positive non-Nyquist frequency; the asymptotic
    interval H +/- 1.96/(2 sqrt(m)) is reported in the diagnostics only
    and is not authoritative.
    """
    n = len(series)
    if n < 1000:
        raise SeriesTooShort(f"local Whittle needs N >= 1000, got {n}")
    if series.stats.std == 0.0:
        raise DegenerateSeries("local Whittle undefined for a constant series")
    nfreq = (n - 1) // 2
    bandwidth = nfreq if m is None else m
    if not (8 <= bandwidth <= nfreq):
        raise BandwidthOutOfRange(f"bandwidth must be in [8, {nfreq}], got {bandwidth}")
    pgram = compute_periodogram(series)
    freqs = pgram.frequencies[:bandwidth]
    power = pgram.power[:bandwidth]
    keep = power > 0.0
    hurst = local_whittle_minimize(freqs[keep], power[keep])
    half = 1.96 / (2.0 * math.sqrt(bandwidth))
    diags: dict[str, Any] = {
        "bandwidth": bandwidth,
        "asymptotic_ci95": (hurst - half, hurst + half),
        "ci_note": "asymptotic, non-authoritative",
    }
    return EstimatorReport(
        method="local_whittle", hurst=hurst, fit=None, diagnostics=_flag_range(diags, hurst)
    )


def est_wavelet(
    series: TimeSeries,
    *,
    order: int = 2,
    j1: int = 3,
    min_level_coeffs: int = 64,
) -> EstimatorReport:
    """Wavelet (logscale) estimator with a fitted-line confidence interval.

    Per octave j the mean squared detail coefficient mu_j is computed
    over the wrap-free prefix (so added polynomial trends cancel
    exactly); log2 mu_j regressed on j with weights 1/Var(ln mu_j) ~
    n_j/2 gives slope zeta and H = (zeta + 1)/2.  The top octave is the
    deepest with at least ``min_level_coeffs`` clean coefficients
    (relaxed to 8 when that leaves fewer than three octaves).  ci95 is a
    95% interval ON THE FITTED LINE, not on H itself.
    """
    n = len(series)
    if n < 1024:
        raise SeriesTooShort(f"wavelet estimator needs N >= 1024, got {n}")
    if series.stats.std == 0.0:
        raise DegenerateSeries("wavelet estimator undefined for a constant series")
    if j1 < 1:
        raise ValueError(f"j1 must be >= 1, got {j1}")
    pyramid = dwt(series, order=order)

    levels = []
    energies = []
    counts = []
    for j, (detail, clean) in enumerate(zip(pyramid.details, pyramid.clean_counts), start=1):
        if clean < 1:
            break
        mu = float(np.mean(detail[:clean] ** 2))
        if mu <= 0.0:
            continue
        levels.append(j)
        energies.append(mu)
        counts.append(clean)
    levels = np.asarray(levels)
    energies = np.asarray(energies)
    counts = np.asarray(counts, dtype=np.float64)

    threshold = min_level_coeffs
    usable = levels[(levels >= j1) & (counts >= threshold)]
    if usable.size < 3 and threshold > 8:
        threshold = 8
        usable = levels[(levels >= j1) & (counts >= threshold)]
    if usable.size < 3:
        raise SeriesTooShort(
            f"wavelet estimator needs >= 3 usable octaves from j1={j1}, got {usable.size}"
        )
    j2 = int(usable.max())
    lo = int(np.searchsorted(levels, j1))
    hi = int(np.searchsorted(levels, j2, side="right")) - 1

    scales = np.exp2(levels.astype(np.float64))
    weights = counts / 2.0  # 1 / Var(ln mu_j) for a chi-square mean
    fit = loglog_fit(scales, energies, weights=weights, fit_range=(lo, hi))
    zeta = fit.slope
    hurst = (zeta + 1.0) / 2.0
    half = 1.96 * fit.slope_se / 2.0
    diags: dict[str, Any] = {
        "order": order,
        "j1": j1,
        "j2": j2,
        "clean_coeffs": [int(c) for c in counts],
        "min_level_coeffs": threshold,
        "ci_note": "fitted-line interval, not an interval on H",
    }
    return EstimatorReport(
        method="wavelet",
        hurst=hurst,
        fit=fit,
        ci95=(hurst - half, hurst + half),
        diagnostics=_flag_range(diags, hurst),
    )


_ESTIMATORS: dict[str, Callable[..., EstimatorReport]] = {
    "rs": est_rs,
    "aggvar": est_aggvar,
    "periodogram": est_periodogram,
    "local_whittle": est_local_whittle,
    "wavelet": est_wavelet,
}


def estimate(series: TimeSeries, method: str, **kwargs) -> EstimatorReport:
    """Run one estimator by canonical name (see METHOD_ORDER)."""
    try:
        fn = _ESTIMATORS[method]
    except KeyError:
        raise ValueError(f"unknown estimator {method!r}; choose from {METHOD_ORDER}") from None
    return fn(series, **kwargs)
