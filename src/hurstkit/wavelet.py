"""Pyramid discrete wavelet transform with Daubechies filters.

The transform uses periodic (circular) boundary handling; at each level
an odd-length input drops its final approximation coefficient before
filtering.  Because circular wrapping mixes the two ends of the signal,
the trailing coefficients whose support wraps are tracked per level
(``clean_counts``): restricting to the clean prefix preserves the
filter's polynomial annihilation exactly, which is what makes the
wavelet Hurst estimator immune to additive polynomial trends.

Filters: 'order' p gives the 2p-tap orthonormal Daubechies pair with p
vanishing wavelet moments.  db1 (Haar) and db2 come from closed forms;
db3/db4 from the minimum-phase spectral factorisation, solved to 50
digits and rounded to double (widely copied 10-12 digit tables leave
them orthonormal only to ~1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SeriesTooShort
from .series import TimeSeries

__all__ = ["DwtPyramid", "daubechies_filters", "dwt"]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_SCALING_FILTERS: dict[int, tuple[float, ...]] = {
    1: (1.0 / _SQRT2, 1.0 / _SQRT2),
    2: (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    3: (
        0.33267055295008263,
        0.8068915093110925,
        0.45987750211849154,
        -0.13501102001025458,
        -0.08544127388202666,
        0.03522629188570953,
    ),
    4: (
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
}


def daubechies_filters(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaling filter h and wavelet filter g[m] = (-1)^m h[L-1-m]."""
    if order not in _SCALING_FILTERS:
        raise ValueError(f"Daubechies order must be in {sorted(_SCALING_FILTERS)}, got {order}")
    h = np.asarray(_SCALING_FILTERS[order], dtype=np.float64)
    signs = np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)
    g = signs * h[::-1]
    return h, g


@dataclass(frozen=True)
class DwtPyramid:
    """Per-level detail coefficients, final approximations and bookkeeping.

    ``details[j-1]`` holds level j (level 1 is the finest scale);
    ``clean_counts[j-1]`` is the length of the prefix unaffected by the
    periodic wrap.
    """

    details: tuple[np.ndarray, ...]
    approx: np.ndarray
    clean_counts: tuple[int, ...]
    order: int


def _analysis_step(
    approx: np.ndarray, h: np.ndarray, g: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scaling and wavelet coefficients of one level.

    Row k of the window block holds approx[(2k + t) % n] for t < taps; the
    block is written into ``scratch``, a float64 buffer of at least
    ``n // 2 * taps`` values.
    """
    n = approx.size
    taps = h.size
    windows = scratch[: n // 2 * taps].reshape(n // 2, taps)
    whole = max(0, (n - taps) // 2 + 1)  # rows whose window does not wrap
    if whole:
        np.copyto(windows[:whole], sliding_window_view(approx, taps)[: 2 * whole : 2])
    rows = np.arange(whole, n // 2)[:, None]
    windows[whole:] = approx[(2 * rows + np.arange(taps)) % n]
    return windows @ h, windows @ g


def dwt(series: TimeSeries, order: int = 2, max_level: int | None = None) -> DwtPyramid:
    """Pyramid DWT with periodic boundaries; level j has ~N/2^j details."""
    h, g = daubechies_filters(order)
    n = len(series)
    if max_level is None:
        max_level = max(1, int(math.floor(math.log2(n))) - 2) if n >= 8 else 1
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    if n < 2 ** (max_level + 2):
        raise SeriesTooShort(f"DWT to level {max_level} needs N >= {2 ** (max_level + 2)}, got {n}")

    taps = h.size
    approx = np.asarray(series.values, dtype=np.float64)
    scratch = np.empty(n // 2 * taps)  # every level's window block; the first is the largest
    contaminated = 0
    details: list[np.ndarray] = []
    clean_counts: list[int] = []
    for _ in range(max_level):
        if approx.size % 2:
            approx = approx[:-1]
            contaminated = max(0, contaminated - 1)
        next_approx, detail = _analysis_step(approx, h, g, scratch)
        # coefficient k reads inputs 2k..2k+taps-1; it is clean iff that
        # window avoids both the wrap and the contaminated tail
        clean = (approx.size - taps - contaminated) // 2 + 1
        clean = max(0, clean)
        details.append(detail)
        clean_counts.append(clean)
        contaminated = detail.size - clean
        approx = next_approx
    return DwtPyramid(
        details=tuple(details),
        approx=approx,
        clean_counts=tuple(clean_counts),
        order=order,
    )
