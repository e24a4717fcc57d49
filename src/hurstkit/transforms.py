"""Additive corruptions and preprocessing filters.

Corruptions add a contaminating signal rescaled so that its realised
population standard deviation equals the input's exactly: AR(1) noise
(phi = 0.9 by default), a sinusoid completing a whole number of cycles
(10 by default, zero phase at t = 0), or a zero-mean linear ramp.

Filters are the elementwise natural log (positive data only), ordinary
least-squares linear detrending, and removal of the least-squares
polynomial of a given degree (10 by default).  Both detrends project the
series off the discrete orthonormal polynomials of the grid
u = linspace(-1, 1, N), built by the Stieltjes three-term recurrence
(Forsythe 1957); raw-power fitting on t = 0..N-1 is hopelessly
ill-conditioned at realistic lengths.  Every inner product is an
elementwise product summed by ``np.add.reduce``, so no BLAS call runs
and the output bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, ExplosiveAR, NonPositiveData, SeriesTooShort
from .generators import Ar1Spec, gen_ar1
from .series import TimeSeries

__all__ = [
    "CorruptionKind",
    "FilterKind",
    "corrupt",
    "apply_filter",
    "filter_log",
    "filter_linear_detrend",
    "filter_poly_detrend",
]

CORRUPTION_NAMES = ("ar1", "sine", "linear_trend")
FILTER_NAMES = ("log", "linear_detrend", "poly_detrend")


@dataclass(frozen=True)
class CorruptionKind:
    """One of the additive corruptions with its parameters."""

    name: str
    phi: float = 0.9
    cycles: int = 10

    def __post_init__(self) -> None:
        if self.name not in CORRUPTION_NAMES:
            raise ValueError(f"unknown corruption {self.name!r}")
        if not abs(self.phi) < 1.0:
            raise ExplosiveAR(f"corruption AR(1) needs |phi| < 1, got {self.phi}")
        if self.cycles < 1:
            raise ValueError(f"sine corruption needs cycles >= 1, got {self.cycles}")

    @classmethod
    def ar1(cls, phi: float = 0.9) -> "CorruptionKind":
        return cls(name="ar1", phi=phi)

    @classmethod
    def sine(cls, cycles: int = 10) -> "CorruptionKind":
        return cls(name="sine", cycles=cycles)

    @classmethod
    def linear_trend(cls) -> "CorruptionKind":
        return cls(name="linear_trend")


@dataclass(frozen=True)
class FilterKind:
    """One of the preprocessing filters with its parameters."""

    name: str
    degree: int = 10

    def __post_init__(self) -> None:
        if self.name not in FILTER_NAMES:
            raise ValueError(f"unknown filter {self.name!r}")
        if self.degree < 1:
            raise ValueError(f"polynomial removal needs degree >= 1, got {self.degree}")

    @classmethod
    def log(cls) -> "FilterKind":
        return cls(name="log")

    @classmethod
    def linear_detrend(cls) -> "FilterKind":
        return cls(name="linear_detrend")

    @classmethod
    def poly_detrend(cls, degree: int = 10) -> "FilterKind":
        return cls(name="poly_detrend", degree=degree)


def _raw_corruption(kind: CorruptionKind, n: int, seed: int) -> np.ndarray:
    if kind.name == "ar1":
        return gen_ar1(Ar1Spec(phi=kind.phi, n=n, seed=seed)).values
    t = np.arange(n, dtype=np.float64)
    if kind.name == "sine":
        return np.sin(2.0 * np.pi * kind.cycles * t / n)
    return t - (n - 1) / 2.0  # zero-mean ramp


def corrupt(series: TimeSeries, kind: CorruptionKind, seed: int = 0) -> TimeSeries:
    """Add the corrupting signal, rescaled so std(c) = std(series) exactly.

    The match uses the realised population std over the N points, so
    ``corrupted - original`` has the input's std to floating precision.
    Sine and trend are deterministic; the seed only drives AR(1).
    """
    sigma = series.stats.std
    if sigma == 0.0:
        raise DegenerateSeries("cannot std-match a corruption to a constant series")
    raw = _raw_corruption(kind, len(series), seed)
    raw_std = raw.std()
    if raw_std == 0.0:
        raise DegenerateSeries("corrupting signal degenerate at this length")
    scaled = raw * (sigma / raw_std)
    scaled += series.values  # the same bits as series.values + scaled: addition commutes
    return TimeSeries._from_values(scaled)


def filter_log(series: TimeSeries) -> TimeSeries:
    """Elementwise natural log; requires strictly positive data."""
    v = series.values
    bad = np.flatnonzero(v <= 0.0)
    if bad.size:
        raise NonPositiveData(
            f"log filter needs positive data; value {v[bad[0]]} at index {int(bad[0])}"
        )
    return TimeSeries._from_values(np.log(v))


def _detrend(values: np.ndarray, degree: int) -> np.ndarray:
    """``values`` minus its least-squares polynomial of ``degree`` (constant term included).

    p_0..p_degree are the orthonormal polynomials of the grid
    u = linspace(-1, 1, N) from the three-term recurrence
    p_{k+1} ~ (u - a_k) p_k - b_k p_{k-1}; each projection is taken off
    the running residual as soon as its polynomial is built (modified
    Gram-Schmidt order).  Needs N > degree.
    """
    n = values.size
    u = np.linspace(-1.0, 1.0, n)
    p = np.full(n, 1.0 / math.sqrt(n))
    scratch = np.empty(n)  # every product lands here: no N-point temporaries

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.add.reduce(np.multiply(a, b, out=scratch)))

    def sub(y: np.ndarray, c: float, x: np.ndarray) -> None:  # y -= c * x
        y -= np.multiply(x, c, out=scratch)

    resid = values - dot(values, p) * p
    prev, b = None, 0.0
    for _ in range(degree):
        q = u * p
        sub(q, dot(q, p), p)
        if prev is not None:
            sub(q, b, prev)
        b = math.sqrt(dot(q, q))
        q /= b
        prev, p = p, q
        sub(resid, dot(resid, p), p)
    return resid


def filter_linear_detrend(series: TimeSeries) -> TimeSeries:
    """Subtract the OLS best-fit line over t = 0..N-1 (removes the mean too)."""
    n = len(series)
    if n < 2:
        raise SeriesTooShort("linear detrending needs N >= 2")
    return TimeSeries._from_values(_detrend(series.values, 1))


def filter_poly_detrend(series: TimeSeries, degree: int = 10) -> TimeSeries:
    """Subtract the least-squares polynomial of the given degree.

    The output is the unique L2 best fit's residual, constant term
    included, whatever the basis; it is computed by :func:`_detrend`.
    """
    n = len(series)
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if n < degree + 2:
        raise SeriesTooShort(f"polynomial removal of degree {degree} needs N >= {degree + 2}")
    return TimeSeries._from_values(_detrend(series.values, degree))


def apply_filter(series: TimeSeries, kind: FilterKind) -> TimeSeries:
    """Dispatch a FilterKind onto the matching filter function."""
    if kind.name == "log":
        return filter_log(series)
    if kind.name == "linear_detrend":
        return filter_linear_detrend(series)
    return filter_poly_detrend(series, degree=kind.degree)
