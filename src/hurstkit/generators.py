"""Seeded synthesis of the test processes: iid Gaussian noise, fractional
Gaussian noise, FARIMA(p,d,q) and AR(1).

FGN is synthesised with Paxson's spectral method: the FGN spectral density
is evaluated on the Fourier grid, each value is multiplied by an
independent unit-mean exponential (the asymptotic periodogram law) and
given a uniform random phase, and the inverse transform's real part is
kept.  The alias sum in the density uses Paxson's three-term truncation
plus his integral tail correction.  Output is normalised post hoc to zero
mean and unit variance.

FARIMA paths come from the truncated MA(infinity) representation of
fractional integration (psi_0 = 1, psi_k = psi_{k-1} * (k-1+d)/k) applied
to the innovations, followed by the MA and AR filters; a warm-up prefix
of K = N samples is generated and discarded.

AR(1) paths hold, bit for bit, what the scalar loop x = e + phi * x gives,
but most steps are vectorised.  The innovations are cut into spans of at
most 2^18 points and each span into blocks of L points that run in
lockstep, one multiply and one add per step across all blocks, each block
starting from a guess at the path value just before it.  Each block's
first W values are then recomputed from the end of the block before, and
the value at step W-1 must have the bits of the guessed run.  Two runs of
this deterministic recursion that agree at one step agree at every later
one, and block 0 starts from the exact value before the span, so by
induction a span whose blocks all pass their checks holds the loop's
bits.  The loop redoes a span in which any block fails, and it finishes
the tail of fewer than L points.  W = 10 / -ln|phi| steps (guessed runs
met the exact path within about 8 / -ln|phi|) and L is max(128, 2W).  The
loop runs alone where fewer than 32 blocks fit: below 32 L points, or for
|phi| above 0.99512 at N = 2^17 and above 0.99756 at any N.

Every generator is a pure function of its spec: the random generator is
instantiated per call from the seed and no global state is touched.

References: Paxson (1997), "Fast, approximate synthesis of fractional
Gaussian noise"; Granger & Joyeux (1980) for fractional differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadHurst, ExplosiveAR, NonStationaryAR, SeriesTooShort
from .series import TimeSeries

__all__ = [
    "FgnSpec",
    "FarimaSpec",
    "Ar1Spec",
    "gen_iid_gaussian",
    "gen_fgn",
    "gen_farima",
    "gen_ar1",
    "fgn_spectral_density",
    "fractional_ma_coefficients",
]

_AR1_CHUNK = 4096  # innovations turned into Python floats at a time
_AR1_CHECK = 10.0  # checked steps per block, in units of 1 / -ln|phi|
_AR1_MIN_BLOCK = 128  # points per block at least; a block is twice its checked steps
_AR1_MIN_BLOCKS = 32  # per span: with fewer, the loop alone is faster
_AR1_SPAN = 1 << 18  # points per span at most: the size of the transposed scratch


@dataclass(frozen=True)
class FgnSpec:
    """Fractional Gaussian noise sample: Hurst parameter, length, seed."""

    hurst: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not (0.5 <= self.hurst < 1.0):
            raise BadHurst(f"FGN synthesis needs H in [0.5, 1), got {self.hurst}")
        if self.n < 16:
            raise SeriesTooShort(f"FGN synthesis needs N >= 16, got {self.n}")


@dataclass(frozen=True)
class FarimaSpec:
    """FARIMA(p,d,q) sample path specification.

    ``ar``/``ma`` follow the convention
    (1 - sum phi_j B^j)(1 - B)^d X = (1 - sum theta_j B^j) eps.
    Stationarity of the AR polynomial is checked with explicit
    inequalities for p <= 2; higher orders are rejected unless
    ``allow_unchecked_ar`` is set.
    """

    d: float
    n: int
    seed: int
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    sigma: float = 1.0
    allow_unchecked_ar: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ar", tuple(float(v) for v in self.ar))
        object.__setattr__(self, "ma", tuple(float(v) for v in self.ma))
        if not (0.0 <= self.d < 0.5):
            raise BadHurst(f"fractional differencing needs d in [0, 0.5), got {self.d}")
        if self.n < 16:
            raise SeriesTooShort(f"FARIMA synthesis needs N >= 16, got {self.n}")
        if not (self.sigma > 0):
            raise ValueError(f"innovation std must be positive, got {self.sigma}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"innovation std must be finite, got {self.sigma}")
        if not all(map(math.isfinite, self.ma)):
            raise ValueError(f"MA coefficients must be finite, got {self.ma}")
        self._check_ar_stationarity()

    def _check_ar_stationarity(self) -> None:
        p = len(self.ar)
        if p == 0:
            return
        if p == 1:
            if not abs(self.ar[0]) < 1.0:
                raise NonStationaryAR(f"AR(1) needs |phi_1| < 1, got {self.ar[0]}")
            return
        if p == 2:
            phi1, phi2 = self.ar
            if not (phi1 + phi2 < 1.0 and phi2 - phi1 < 1.0 and abs(phi2) < 1.0):
                raise NonStationaryAR(
                    f"AR(2) stationarity triangle violated: phi=({phi1}, {phi2})"
                )
            return
        if not self.allow_unchecked_ar:
            raise NonStationaryAR(
                f"AR order {p} > 2 is not validated; pass allow_unchecked_ar=True to proceed"
            )


@dataclass(frozen=True)
class Ar1Spec:
    """Stationary AR(1): X_t = phi * X_{t-1} + eps_t with X_0 stationary."""

    phi: float
    n: int
    seed: int
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not abs(self.phi) < 1.0:
            raise ExplosiveAR(f"AR(1) needs |phi| < 1, got {self.phi}")
        if self.n < 1:
            raise SeriesTooShort(f"AR(1) needs N >= 1, got {self.n}")
        if not (self.sigma > 0):
            raise ValueError(f"innovation std must be positive, got {self.sigma}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"innovation std must be finite, got {self.sigma}")


def gen_iid_gaussian(n: int, seed: int) -> TimeSeries:
    """N independent standard-normal values, deterministic given the seed."""
    if n < 1:
        raise SeriesTooShort(f"need N >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return TimeSeries._from_values(rng.standard_normal(n))


def fgn_spectral_density(frequencies: np.ndarray, hurst: float) -> np.ndarray:
    """Approximate FGN spectral density f(lambda; H) on (0, pi].

    f = 2 sin(pi H) Gamma(2H+1) (1 - cos lambda) * [|lambda|^(-2H-1) + B3]
    where B3 truncates the alias sum sum_{j>=1} (2*pi*j +/- lambda)^(-2H-1)
    at three terms and corrects the tail with its integral approximation.
    """
    lam = np.asarray(frequencies, dtype=np.float64)
    d = -(2.0 * hurst + 1.0)
    dprime = -2.0 * hurst
    two_pi = 2.0 * np.pi
    a3 = 3.0 * two_pi + lam
    b3 = 3.0 * two_pi - lam
    tail = (a3**dprime + b3**dprime + (4.0 * two_pi + lam) ** dprime + (4.0 * two_pi - lam) ** dprime) / (
        8.0 * hurst * np.pi
    )
    alias = (
        (two_pi + lam) ** d
        + (two_pi - lam) ** d
        + (2.0 * two_pi + lam) ** d
        + (2.0 * two_pi - lam) ** d
        + a3**d
        + b3**d
        + tail
    )
    scale = 2.0 * math.sin(math.pi * hurst) * math.gamma(2.0 * hurst + 1.0) * (1.0 - np.cos(lam))
    return scale * (np.abs(lam) ** d + alias)


def gen_fgn(spec: FgnSpec) -> TimeSeries:
    """Approximate FGN path: zero mean, unit variance, deterministic in seed.

    Draw order (fixed for reproducibility): exponential magnitudes for
    j = 1..floor(N/2), then uniform phases for the same bins.
    """
    n, hurst = spec.n, spec.hurst
    rng = np.random.default_rng(spec.seed)
    m = n // 2
    lam = 2.0 * np.pi * np.arange(1, m + 1) / n
    mags = fgn_spectral_density(lam, hurst)
    del lam
    mags *= rng.exponential(1.0, m)
    np.sqrt(mags, out=mags)
    phases = rng.uniform(0.0, 2.0 * np.pi, m)

    # z = mags * exp(1j * phases), built in place in its bins, then mirrored
    coeffs = np.zeros(n, dtype=np.complex128)
    z = coeffs[1 : m + 1]
    np.multiply(1j, phases, out=z)
    np.exp(z, out=z)
    np.multiply(mags, z, out=z)
    # for even n the Nyquist bin keeps z_m (real part below), so z_m is not mirrored
    np.conjugate(z[-2::-1] if n % 2 == 0 else z[::-1], out=coeffs[m + 1 :])
    del z, mags, phases  # hold only the coefficients through the inverse FFT and the real part's copy
    path = np.fft.ifft(coeffs, out=coeffs).real.copy()
    del coeffs
    path -= path.mean()
    path /= path.std()
    return TimeSeries._from_values(path)


def fractional_ma_coefficients(d: float, count: int) -> np.ndarray:
    """psi_0..psi_count of (1-B)^(-d): psi_k = psi_{k-1} * (k-1+d)/k."""
    k = np.arange(1, count + 1, dtype=np.float64)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 + d) / k)))


def gen_farima(spec: FarimaSpec) -> TimeSeries:
    """FARIMA(p,d,q) sample path (variance model-determined, not rescaled)."""
    # The one scipy user: imported here so that nothing else pays for it.
    from scipy.signal import fftconvolve, lfilter

    n = spec.n
    warmup = n  # full-history truncation: K = N
    total = n + warmup
    rng = np.random.default_rng(spec.seed)
    eps = rng.standard_normal(total) * spec.sigma

    if spec.d > 0.0:
        psi = fractional_ma_coefficients(spec.d, total - 1)
        x = fftconvolve(eps, psi)[:total]
    else:
        x = eps
    if spec.ma:
        x = lfilter(np.concatenate(([1.0], -np.asarray(spec.ma))), [1.0], x)
    if spec.ar:
        x = lfilter([1.0], np.concatenate(([1.0], -np.asarray(spec.ar))), x)
    return TimeSeries(x[warmup:])


def _ar1_loop(out: np.ndarray, eps: np.ndarray, phi: float, x: float) -> None:
    """out[i] = x = eps[i] + phi * x for each i in turn, in Python floats.

    The exact recursion, one step at a time, whose bits the block path
    reproduces; it carries the block path's guesses, redoes a span with a
    missed block and finishes the tail.  ``out`` may be ``eps`` itself:
    each chunk's innovations are read before it is written.
    """
    # Python floats a chunk at a time: the whole innovation array as a list would be 4x its size
    for start in range(0, eps.size, _AR1_CHUNK):
        steps = []
        for e in eps[start : start + _AR1_CHUNK].tolist():
            x = e + phi * x
            steps.append(x)
        out[start : start + len(steps)] = steps


def _ar1_plan(phi: float, n: int) -> tuple[int, int] | None:
    """(block length, checked steps) for the block path on n points, or None
    where the loop alone is faster: too few points for its fixed cost, or
    |phi| so close to 1 that a block could not be checked in good time."""
    checks = 1 if phi == 0.0 else max(1, math.ceil(_AR1_CHECK / -math.log(abs(phi))))
    block = max(_AR1_MIN_BLOCK, 2 * checks)
    if _AR1_MIN_BLOCKS * block > min(n - 1, _AR1_SPAN):
        return None
    return block, checks


def _ar1_starts(eps: np.ndarray, phi: float, x: float) -> np.ndarray:
    """Approximate path values at the end of each block of innovations (one
    block per row of ``eps``), the path before the first block ending at ``x``.

    Each block's end from a zero start is a weighted sum of its innovations
    (an einsum: no BLAS), which the loop carries from block to block with
    coefficient phi**L.  Its rounding differs from the recursion's, so the
    block path uses these values only as guesses that it then checks.
    """
    ends = np.einsum("ij,j->i", eps, phi ** np.arange(eps.shape[1] - 1, -1, -1, dtype=np.float64))
    _ar1_loop(ends, ends, phi ** eps.shape[1], x)
    return ends


def _ar1_span(eps: np.ndarray, rows: np.ndarray, prev: np.ndarray, phi: float, x: float, checks: int) -> None:
    """Overwrite ``eps`` (blocks x L innovations, the path before it ending at
    ``x``) with the path values the recursion gives, exactly.

    ``rows`` (L x blocks) and ``prev`` (blocks) are scratch: the blocks run
    in lockstep down the rows of ``rows``, a transposed copy, so that every
    step is one contiguous multiply and one add.
    """
    length = eps.shape[1]
    prev[0] = x
    prev[1:] = _ar1_starts(eps[:-1], phi, x)
    np.copyto(rows, eps.T)
    np.multiply(prev, phi, out=prev)
    np.add(rows[0], prev, out=rows[0])
    for k in range(1, length):
        np.multiply(rows[k - 1], phi, out=prev)
        np.add(rows[k], prev, out=rows[k])
    # Recompute the first values of blocks 1.. from the end of the block
    # before; a block whose value at step checks-1 has the same bits as its
    # guessed run continues exactly as that run does.
    guessed = rows[checks - 1, 1:].copy()
    lead = prev[1:]
    np.multiply(rows[-1, :-1], phi, out=lead)
    np.add(eps[1:, 0], lead, out=rows[0, 1:])
    for k in range(1, checks):
        np.multiply(rows[k - 1, 1:], phi, out=lead)
        np.add(eps[1:, k], lead, out=rows[k, 1:])
    if (rows[checks - 1, 1:].view(np.int64) == guessed.view(np.int64)).all():
        np.copyto(eps, rows.T)
    else:  # a block missed: the loop redoes the span from the innovations still in eps
        _ar1_loop(eps.reshape(-1), eps.reshape(-1), phi, x)


def _ar1_blocks(path: np.ndarray, phi: float, block: int, checks: int) -> int:
    """Make path[1 : end + 1] exact over whole blocks of ``block`` points and
    return ``end``; path[0] is exact, and path[1:] holds the innovations."""
    blocks = (path.size - 1) // block
    spans = -(-blocks // (_AR1_SPAN // block))
    widest = -(-blocks // spans)
    rows, prev = np.empty(widest * block), np.empty(widest)
    end = 0
    for i in range(spans):
        count = (blocks + i) // spans  # the spans' counts add up to blocks
        eps = path[end + 1 : end + 1 + count * block].reshape(count, block)
        _ar1_span(eps, rows[: count * block].reshape(block, count), prev[:count], phi, float(path[end]), checks)
        end += count * block
    return end


def gen_ar1(spec: Ar1Spec) -> TimeSeries:
    """Zero-mean AR(1) path, stationary from t=0.

    X_0 ~ N(0, sigma^2 / (1 - phi^2)); X_t = phi X_{t-1} + eps_t, each step
    rounded as the loop x = e + phi * x rounds it.  Whole blocks of points
    run in lockstep from guessed starts, and a span of them is kept only
    where a recomputed value in each block has the guessed run's bits, which
    makes them exact from there on (module docstring); the loop redoes a span
    with a missed block, finishes the tail and runs short or |phi| ~ 1 paths
    alone.
    """
    rng = np.random.default_rng(spec.seed)
    phi = float(spec.phi)
    path = np.empty(spec.n)
    path[0] = rng.standard_normal() * spec.sigma / math.sqrt(1.0 - spec.phi**2)
    rng.standard_normal(out=path[1:])  # the innovations, overwritten by the path in place
    path[1:] *= spec.sigma
    plan = _ar1_plan(phi, spec.n)
    end = 0 if plan is None else _ar1_blocks(path, phi, *plan)
    _ar1_loop(path[end + 1 :], path[end + 1 :], phi, float(path[end]))
    return TimeSeries._from_values(path)
