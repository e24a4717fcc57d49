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
from itertools import accumulate
from typing import Any, Callable

import numpy as np

from .errors import (
    BandwidthOutOfRange,
    DegenerateSeries,
    InsufficientPoints,
    NonPositivePoint,
    SeriesTooShort,
)
from .series import TimeSeries, _run_threads, _thread_cpus, aggregate
from .spectral import Periodogram, periodogram as compute_periodogram
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
    if xs.min() == xs.max() or np.isnan(xs).all():  # one distinct value, or only NaN
        raise InsufficientPoints("log-log fit needs at least two distinct abscissae")
    # np.add.reduce, not ``@``: BLAS splits long dot products by thread count
    s0 = ws.sum()
    sx = float(np.add.reduce(ws * xs))
    sy = float(np.add.reduce(ws * ys))
    sxx = float(np.add.reduce(ws * (xs * xs)))
    sxy = float(np.add.reduce(ws * (xs * ys)))
    delta = s0 * sxx - sx * sx
    slope = (s0 * sxy - sx * sy) / delta
    intercept = (sy - slope * sx) / s0
    resid = ys - (intercept + slope * xs)
    mse = float(np.add.reduce(ws * (resid * resid))) / (npts - 2)
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
    grid = np.sort(np.rint(np.geomspace(lo, hi, points)).astype(int))
    keep = grid >= lo
    keep[1:] &= grid[1:] != grid[:-1]  # each size once
    return grid[keep]


def _fit_indices(grid: np.ndarray, lo: float, hi: float) -> tuple[int, int, bool]:
    """Inclusive index range of grid values in [lo, hi]; full-range fallback."""
    inside = np.flatnonzero((grid >= lo) & (grid <= hi))
    if inside.size >= 3:
        return int(inside[0]), int(inside[-1]), False
    return 0, grid.size - 1, True


def _require(series: TimeSeries, n_min: int, what: str) -> int:
    """N of a series that is long enough and not constant, else the refusal."""
    n = len(series)
    if n < n_min:
        raise SeriesTooShort(f"{what} needs N >= {n_min}, got {n}")
    if series.stats.std == 0.0:
        raise DegenerateSeries(f"{what} undefined for a constant series")
    return n


def _report(
    method: str, hurst: float, fit: LogLogFit | None, diags: dict[str, Any], ci95=None
) -> EstimatorReport:
    """The report, with H outside (1/2, 1) flagged in the diagnostics."""
    diags["outside_nominal_range"] = not (0.5 < hurst < 1.0)
    return EstimatorReport(method=method, hurst=hurst, fit=fit, ci95=ci95, diagnostics=diags)


def _block_fit(sizes, values, fit_min: float, fit_max: float) -> tuple[LogLogFit, dict[str, Any]]:
    """Log-log fit of the positive per-block-size statistics over [fit_min, fit_max].

    Falls back to every block size when fewer than three lie in the
    window, and says so in the diagnostics.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = values > 0.0
    sizes, values = sizes[keep], values[keep]
    lo, hi, fell_back = _fit_indices(sizes, fit_min, fit_max)
    fit = loglog_fit(sizes, values, fit_range=(lo, hi))
    diags: dict[str, Any] = {
        "block_sizes": int(sizes.size),
        "fit_window": (float(sizes[lo]), float(sizes[hi])),
    }
    if fell_back:
        diags["fit_range"] = "full(fallback)"
    return fit, diags


def _grid_fit(
    grid: np.ndarray, statistic: Callable[[np.ndarray], Any], fit_min: float, fit_max: float, fit_only: bool
) -> tuple[LogLogFit, dict[str, Any]]:
    """_block_fit of ``statistic(sizes)`` over ``grid``, evaluating only what the fit reads.

    With ``fit_only`` the sizes in [fit_min, fit_max] are evaluated first;
    if three of them have a positive statistic they alone are fitted, else
    the rest of the grid is evaluated and the fit is the full one, fallback
    included.  Each size's statistic is independent of the others, so the
    fit's numbers keep their bits either way.
    """
    inside = (grid >= fit_min) & (grid <= fit_max) if fit_only else np.ones(grid.size, dtype=bool)
    values = np.empty(grid.size)
    values[inside] = statistic(grid[inside])
    if fit_only and np.count_nonzero(values[inside] > 0.0) >= 3:
        return _block_fit(grid[inside], values[inside], fit_min, fit_max)
    if not inside.all():
        values[~inside] = statistic(grid[~inside])
    return _block_fit(grid, values, fit_min, fit_max)


_RS_STEPPED_BLOCKS = 512  # a thread's block count from which _rs_ratios steps every walk at once
# Series points per R/S thread, at least: below 2^16 points in all a second
# thread costs more to start than it saves.
_RS_PART = 1 << 15


def _rs_ratios(values: np.ndarray, grid: np.ndarray) -> list[float]:
    """Mean R/S over the blocks of each size; 0 where every block is constant.

    Each thread of ``_thread_cpus`` takes a contiguous range of every size's
    blocks, with no wait between sizes, and writes each block's R/S and
    whether its S is positive; the means are taken here over all of them, so
    the ratios do not depend on the thread count.  Steps of the walks are
    numpy calls on one value per block, and numpy holds the interpreter lock
    through a call on 500 values or fewer: a thread steps its walks only from
    ``_RS_STEPPED_BLOCKS`` blocks.
    """
    n = values.size
    sizes = [int(block) for block in grid]
    counts = [n // block for block in sizes]
    starts = [0, *accumulate(counts)]  # each size's first block in rs and positive
    rs = np.empty(starts[-1])  # each block's R/S, where its S is positive
    positive = np.empty(starts[-1], dtype=bool)
    cpu_sets = _thread_cpus(max(1, n // _RS_PART))
    threads = len(cpu_sets)
    # Two rows reused by every size, one pair per thread: the deviations, then
    # their squares and the stepped walks.  Series-length arrays allocated per
    # size would be mapped and unmapped by the allocator each time, faulting on
    # every page they touch.
    span = max((-(-count // threads) * block for block, count in zip(sizes, counts)), default=0)
    scratch = np.empty((threads, 2, span))
    rows = np.empty((threads, 2, -(-max(counts, default=0) // threads)))  # each thread's walk minima and S

    def part(thread: int) -> None:
        # Every array is the caller's: a helper's own allocations would stay in its
        # malloc arena, beside the caller's, and raise the process's peak.
        for block, count, start in zip(sizes, counts, starts):
            lo, hi = count * thread // threads, count * (thread + 1) // threads
            nblocks = hi - lo
            if nblocks == 0:
                continue
            used = nblocks * block
            chunk = values[lo * block : hi * block].reshape(nblocks, block)
            dev = scratch[thread, 0, :used].reshape(nblocks, block)
            square = scratch[thread, 1, :used].reshape(nblocks, block)
            (low, std), rng_ = rows[thread, :, :nblocks], rs[start + lo : start + hi]
            np.add.reduce(chunk, axis=1, out=std)  # the means first, by chunk.mean's own arithmetic
            std /= block
            np.subtract(chunk, std[:, None], out=dev)
            np.add.reduce(np.multiply(dev, dev, out=square), axis=1, out=std)  # and chunk.std's
            std /= block
            np.sqrt(std, out=std)
            if nblocks >= _RS_STEPPED_BLOCKS:
                # A per-row cumsum is latency-bound; stepping all walks at once vectorises
                # across blocks while each walk still adds left to right, so the bits match.
                walks = square.reshape(block, nblocks)
                walks[0] = dev[:, 0]
                for k in range(1, block):
                    np.add(walks[k - 1], dev[:, k], out=walks[k])
                axis = 0
            else:
                walks = np.cumsum(dev, axis=1, out=dev)
                axis = 1
            np.subtract(walks.max(axis=axis, out=rng_), walks.min(axis=axis, out=low), out=rng_)
            np.divide(rng_, std, out=rng_, where=np.greater(std, 0.0, out=positive[start + lo : start + hi]))

    _run_threads(cpu_sets, part)
    ratios = []
    for start, stop in zip(starts, starts[1:]):
        ok = positive[start:stop]
        ratios.append(float(rs[start:stop][ok].mean()) if ok.any() else 0.0)
    return ratios


def est_rs(
    series: TimeSeries,
    *,
    grid_points: int = 30,
    n_min: int = 10,
    n_max: int | None = None,
    fit_min: int = 16,
    fit_max: int | None = None,
    fit_only: bool = False,
) -> EstimatorReport:
    """Rescaled-range estimator: mean R/S(n) ~ C n^H.

    Blocks of each size n partition the series; R is the range of the
    block's cumulative mean-adjusted sums and S its population std
    (degenerate blocks are skipped).  H is the log-log slope over the
    fit window, n in [16, N/100] by default: small blocks carry the
    transient that makes R/S understate strong dependence without
    pushing iid data past H = 0.55, and blocks much longer than that
    start reacting to slow additive components.

    ``fit_only`` skips the block sizes outside the fit window when at
    least three inside it have a positive R/S: ``fit.xs``/``fit.ys`` then
    hold the fitted sizes alone (``fit_lo`` is 0) and ``block_sizes``
    counts them.  H, slope, intercept and ``slope_se`` keep their bits.
    """
    n = _require(series, 64, "R/S")
    n_max = n_max if n_max is not None else max(n // 10, 2 * n_min)
    fit_max = fit_max if fit_max is not None else max(n // 100, fit_min + 2)
    grid = _log_grid(max(2, n_min), max(n_min + 1, n_max), grid_points)
    grid = grid[grid <= n]
    # a size whose ratio is 0 has only constant blocks: _block_fit drops it
    fit, diags = _grid_fit(grid, lambda sizes: _rs_ratios(series.values, sizes), fit_min, fit_max, fit_only)
    diags["c_h"] = math.exp(fit.intercept)
    return _report("rs", fit.slope, fit, diags)


def est_aggvar(
    series: TimeSeries,
    *,
    grid_points: int = 30,
    m_min: int = 2,
    m_max: int | None = None,
    fit_min: int = 10,
    fit_max: int | None = None,
    fit_only: bool = False,
) -> EstimatorReport:
    """Aggregated-variance estimator: var of block means ~ m^(2H-2).

    ``fit_only`` skips the block sizes outside the fit window when at
    least three inside it have a positive variance, as in :func:`est_rs`:
    H, slope, intercept and ``slope_se`` keep their bits.
    """
    n = _require(series, 1000, "aggregated variance")
    m_max = m_max if m_max is not None else max(n // 30, 2 * m_min)
    fit_max = fit_max if fit_max is not None else n // 100
    grid = _log_grid(m_min, m_max, grid_points)

    def variances(sizes: np.ndarray) -> list[float]:
        return [float(aggregate(series, int(m)).values.var()) for m in sizes]

    fit, diags = _grid_fit(grid, variances, fit_min, fit_max, fit_only)
    return _report("aggvar", 1.0 + fit.slope / 2.0, fit, diags)


def _positive_bins(freqs: np.ndarray, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bins of positive power; the arrays themselves, uncopied, when that is all of them."""
    keep = power > 0.0
    return (freqs, power) if keep.all() else (freqs[keep], power[keep])


def _own_periodogram(series: TimeSeries, periodogram: Periodogram | None) -> Periodogram:
    """``periodogram`` if its bins are those of a series this long, else refused; or the series' own."""
    if periodogram is None:
        return compute_periodogram(series)
    n = len(series)
    if periodogram.power.size != (n - 1) // 2 or periodogram.frequencies[:1].tolist() != [2.0 * np.pi / n]:
        raise ValueError(f"periodogram= is not of a series of {n} points")
    return periodogram


def est_periodogram(
    series: TimeSeries, *, freq_fraction: float = 0.10, fit_only: bool = False,
    periodogram: Periodogram | None = None,
) -> EstimatorReport:
    """Periodogram estimator: log I(lambda) vs log lambda has slope 1 - 2H.

    Fits the lowest ``freq_fraction`` of the Fourier frequencies of the
    series' ``periodogram``, taken here where the caller has not.

    ``fit_only`` hands the fit the fitted bins alone: ``fit.xs``/``fit.ys``
    then hold ``bins_used`` points instead of every positive bin.  The log
    is elementwise and the sums run over the same bins, so H, slope,
    intercept, ``slope_se`` and the diagnostics keep their bits.
    """
    _require(series, 1000, "periodogram estimator")
    if not (0.0 < freq_fraction <= 1.0):
        raise ValueError(f"freq_fraction must be in (0, 1], got {freq_fraction}")
    pgram = _own_periodogram(series, periodogram)
    freqs, power = _positive_bins(pgram.frequencies, pgram.power)
    used = max(3, int(freq_fraction * freqs.size))
    if fit_only:
        fit = loglog_fit(freqs[:used], power[:used])
    else:
        fit = loglog_fit(freqs, power, fit_range=(0, used - 1))
    diags = {"bins_used": used, "beta": -fit.slope, "c_f": math.exp(fit.intercept)}
    return _report("periodogram", (1.0 - fit.slope) / 2.0, fit, diags)


def _local_whittle_objective(
    hurst: float, log_lam: np.ndarray, mean_log: float, power: np.ndarray, out: np.ndarray | None = None
) -> float:
    """The objective; ``out``, shaped as ``log_lam``, is a work buffer to reuse."""
    scaled = np.multiply(2.0 * hurst - 1.0, log_lam, out=out)
    np.exp(scaled, out=scaled)
    np.multiply(power, scaled, out=scaled)
    return float(np.log(scaled.mean()) - (2.0 * hurst - 1.0) * mean_log)


def local_whittle_objective(hurst: float, frequencies: np.ndarray, power: np.ndarray) -> float:
    """R(H) = ln[mean(lambda^(2H-1) I)] - (2H-1) mean(ln lambda)."""
    log_lam = np.log(frequencies)
    return _local_whittle_objective(hurst, log_lam, log_lam.mean(), power)


def _fminbound(func: Callable[[float], float], x1: float, x2: float, xatol: float) -> float:
    """Brent's bounded minimiser (Brent 1973): golden-section steps with
    parabolic interpolation, at most 500 evaluations.

    scipy 1.17's ``_minimize_scalar_bounded`` (``minimize_scalar(method=
    "bounded")``; BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and
    2003- SciPy Developers) on plain floats, without its printing and result
    object.  Every floating-point operation keeps scipy's order, so every
    ``x`` it returns has the same bits.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = func(xf)
    rat = e = 0.0
    for _ in range(499):  # 500 evaluations in all, with the first
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        parabolic = abs(e) > tol1
        if parabolic:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            # take the parabola's step if it is under half the step before last and lands in (a, b)
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabolic:
            rat = (p + 0.0) / q
            x = xf + rat
            if x - a < tol2 or b - x < tol2:
                rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
        else:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return float(xf)


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
    mean_log = log_lam.mean()
    out = np.empty_like(log_lam)
    return _fminbound(lambda h: _local_whittle_objective(h, log_lam, mean_log, power, out), lo, hi, tol)


def est_local_whittle(
    series: TimeSeries, m: int | None = None, *, periodogram: Periodogram | None = None
) -> EstimatorReport:
    """Local Whittle estimator on the m lowest Fourier frequencies.

    Defaults to every positive non-Nyquist frequency; the asymptotic
    interval H +/- 1.96/(2 sqrt(m)) is reported in the diagnostics only
    and is not authoritative.  ``periodogram`` is as in :func:`est_periodogram`.
    """
    nfreq = (_require(series, 1000, "local Whittle") - 1) // 2
    bandwidth = nfreq if m is None else m
    if not (8 <= bandwidth <= nfreq):
        raise BandwidthOutOfRange(f"bandwidth must be in [8, {nfreq}], got {bandwidth}")
    pgram = _own_periodogram(series, periodogram)
    hurst = local_whittle_minimize(*_positive_bins(pgram.frequencies[:bandwidth], pgram.power[:bandwidth]))
    half = 1.96 / (2.0 * math.sqrt(bandwidth))
    diags: dict[str, Any] = {
        "bandwidth": bandwidth,
        "asymptotic_ci95": (hurst - half, hurst + half),
        "ci_note": "asymptotic, non-authoritative",
    }
    return _report("local_whittle", hurst, None, diags)


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
    _require(series, 1024, "wavelet estimator")
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
    return _report("wavelet", hurst, fit, diags, ci95=(hurst - half, hurst + half))


_ESTIMATORS: dict[str, Callable[..., EstimatorReport]] = {
    "rs": est_rs,
    "aggvar": est_aggvar,
    "periodogram": est_periodogram,
    "wavelet": est_wavelet,
    "local_whittle": est_local_whittle,
}
METHOD_ORDER = tuple(_ESTIMATORS)  # the order of every table and of --method all
SPECTRAL_METHODS = ("periodogram", "local_whittle")  # the estimators that read a periodogram


def estimate(series: TimeSeries, method: str, **kwargs) -> EstimatorReport:
    """Run one estimator by canonical name (see METHOD_ORDER)."""
    try:
        fn = _ESTIMATORS[method]
    except KeyError:
        raise ValueError(f"unknown estimator {method!r}; choose from {METHOD_ORDER}") from None
    return fn(series, **kwargs)


def estimate_each(series: TimeSeries, methods: tuple[str, ...], run: Callable[..., Any]) -> list:
    """``run(series, method, **kwargs)`` for each of ``methods``, in their order.

    The spectral ones get ``periodogram=``, the series' one periodogram,
    taken when the first of them is reached.
    """
    results, shared = [], None
    for method in methods:
        if method in SPECTRAL_METHODS and shared is None:
            try:
                shared = {"periodogram": compute_periodogram(series)}
            except SeriesTooShort:  # none to hand: each spectral estimator refuses the series itself
                shared = {}
        results.append(run(series, method, **(shared if method in SPECTRAL_METHODS else {})))
    return results
