"""Discrete Fourier machinery and the raw periodogram.

The periodogram is evaluated on the Fourier grid lambda_j = 2*pi*j/N for
j = 1..floor((N-1)/2): zero frequency and the Nyquist bin are excluded,
and the sample mean is subtracted first so that the lowest bins are not
polluted by the squared mean.  No tapering or smoothing is applied.

``periodogram`` computes afresh on every call.  The periodogram and local
Whittle estimators read the same I(lambda_j) of a series, so a caller that
runs both takes it once and hands it to each (their ``periodogram=``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort
from .series import TimeSeries

__all__ = ["Periodogram", "dft", "periodogram"]


@dataclass(frozen=True)
class Periodogram:
    """Power I(lambda_j) on the strictly increasing grid lambda_j in (0, pi)."""

    frequencies: np.ndarray
    power: np.ndarray


# The forward transform X_k = sum_t x_t e^{-2*pi*i*t*k/N}, for any N (mixed radix)
dft = np.fft.fft


def periodogram(series: TimeSeries) -> Periodogram:
    """Raw periodogram I(lambda_j) = |sum_t x_t e^{i*t*lambda_j}|^2 / (2*pi*N).

    The series mean is subtracted before transforming.  The arrays are
    read-only, since one result may be handed to both spectral estimators.
    """
    n = len(series)
    if n < 8:
        raise SeriesTooShort(f"periodogram needs N >= 8, got {n}")
    centered = series.values - series.values.mean()
    spec = np.fft.rfft(centered)
    nfreq = (n - 1) // 2
    power = (spec.real[1 : nfreq + 1] ** 2 + spec.imag[1 : nfreq + 1] ** 2) / (2.0 * np.pi * n)
    freqs = 2.0 * np.pi * np.arange(1, nfreq + 1) / n
    freqs.setflags(write=False)
    power.setflags(write=False)
    return Periodogram(frequencies=freqs, power=power)
