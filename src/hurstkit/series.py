"""Core time-series value type, summary statistics, autocorrelation and
block aggregation.

A :class:`TimeSeries` is an immutable, equally spaced sequence of finite
real values; the array index is the time coordinate.  All statistics use
the population convention (denominator ``N``) and the autocorrelation
estimator is the biased one (denominator ``N`` at every lag), which keeps
``|rho(k)| <= 1`` and the estimated sequence positive semi-definite.

Series text and packet-trace text share one reader, :func:`_parse_text`:
the input is read once, NumPy's C text reader tries it first, and a
line scanner that names the offending line reads whatever that reader
refuses.
"""

from __future__ import annotations

import io
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from typing import IO, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import BadBlock, DegenerateSeries, LagOutOfRange, MalformedLine, SeriesTooShort

T = TypeVar("T")

__all__ = [
    "TimeSeries",
    "SummaryStats",
    "AcfCurve",
    "summary_stats",
    "acf",
    "aggregate",
    "read_series",
    "write_series",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, population variance and standard deviation of a series."""

    mean: float
    variance: float
    std: float


class TimeSeries:
    """Immutable sequence of equally spaced, finite sample values.

    The empty series is allowed only as a degenerate container (a packet
    trace may bin to nothing); every statistical operation checks its own
    minimum-length precondition.
    """

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-d sequence, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at index {bad}")
        arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the sample values."""
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"TimeSeries(n={len(self)})"

    @cached_property
    def stats(self) -> SummaryStats:
        if len(self) < 1:
            raise SeriesTooShort("summary statistics need at least one value")
        v = self._values
        mean = float(v.mean())
        var = float(v.var())
        return SummaryStats(mean=mean, variance=var, std=float(np.sqrt(var)))


@dataclass(frozen=True)
class AcfCurve:
    """Autocorrelation rho(k) for lags 0..max_lag (biased estimator)."""

    lags: np.ndarray
    rho: np.ndarray


def summary_stats(series: TimeSeries) -> SummaryStats:
    """Mean, population variance (denominator N) and std of the values."""
    return series.stats


@cache
def _smooth_numbers(limit: int) -> list[int]:
    """Every 2^a 3^b 5^c 7^d 11^e <= limit, ascending."""
    numbers = [1]
    for prime in (2, 3, 5, 7, 11):
        grown = []
        for m in numbers:
            while m <= limit:
                grown.append(m)
                m *= prime
        numbers = grown
    return sorted(numbers)


def _fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target, the FFT length rule of
    ``scipy.fft.next_fast_len`` (default ``real=False``)."""
    numbers = _smooth_numbers(1 << (target - 1).bit_length())
    return numbers[bisect_left(numbers, target)]


def acf(series: TimeSeries, max_lag: int) -> AcfCurve:
    """Biased sample autocorrelation up to ``max_lag``.

    rho(k) = [sum_{t=1}^{N-k} (x_t - mu)(x_{t+k} - mu) / N] / sigma^2,
    evaluated via FFT; rho(0) is exactly 1.
    """
    n = len(series)
    if n < 1:
        raise SeriesTooShort("autocorrelation needs a non-empty series")
    if max_lag < 1 or max_lag > n - 1:
        raise LagOutOfRange(f"max_lag must be in [1, {n - 1}], got {max_lag}")
    stats = series.stats
    if stats.variance == 0.0:
        raise DegenerateSeries("autocorrelation undefined for a constant series")

    centered = series.values - stats.mean
    nfft = _fast_len(2 * n)
    spec = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1] / n
    rho = acov / acov[0] + 0.0  # +0.0 normalises -0.0
    return AcfCurve(lags=np.arange(max_lag + 1), rho=rho)


def _row_sums(chunk: np.ndarray) -> np.ndarray:
    """``np.add.reduce(chunk, axis=1)`` of a C-contiguous 2-d float64 array, same bits.

    numpy reduces each row in its own inner-loop call, which dominates
    for short rows.  Rows shorter than 16 are summed here as column adds
    into one accumulator, in numpy's pairwise order: left to right below
    8 points; from 8 to 15, ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` of the
    first eight, then the tail left to right.  numpy's sum starts from
    +0.0, so a row of -0.0 sums to +0.0 here too.
    """
    block = chunk.shape[1]
    if block >= 16:
        return np.add.reduce(chunk, axis=1)
    if block < 8:
        acc = chunk[:, 0] + 0.0
        tail = range(1, block)
    else:
        acc = chunk[:, 0] + chunk[:, 1]
        acc += chunk[:, 2] + chunk[:, 3]
        high = chunk[:, 4] + chunk[:, 5]
        high += chunk[:, 6] + chunk[:, 7]
        acc += high
        acc += 0.0
        tail = range(8, block)
    for j in tail:
        acc += chunk[:, j]
    return acc


def aggregate(series: TimeSeries, block: int) -> TimeSeries:
    """Block means at size ``block``; the trailing partial block is dropped."""
    n = len(series)
    if block < 1 or block > n:
        raise BadBlock(f"block size must be in [1, {n}], got {block}")
    if block == 1:
        return TimeSeries(series.values)
    nblocks = n // block
    # ``.mean(axis=1)`` is this sum divided by the count: the same bits
    means = _row_sums(series.values[: nblocks * block].reshape(nblocks, block)) / block
    return TimeSeries(means)


_WRITE_SLICE = 1 << 16  # values formatted per write: bounded memory at any length
_VALUE = np.dtype([("v", np.float64)])  # one field, so a line of two values is refused
# a byte that is not whitespace to both NumPy's reader and str.split()
_DATA_BYTE = re.compile(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]")


def write_series(series: TimeSeries, stream: IO[str]) -> None:
    """Write one value per line in plain decimal text (round-trip exact)."""
    values = series.values
    for start in range(0, values.size, _WRITE_SLICE):
        stream.write("".join(f"{v!r}\n" for v in values[start : start + _WRITE_SLICE].tolist()))


def _loadtxt(buf: bytes, dtype: np.dtype) -> np.ndarray | None:
    """One record of ``dtype`` per line of ``buf`` by NumPy's C text reader,
    or None where a line scanner must decide: the reader refuses the text,
    or the text holds no data."""
    if _DATA_BYTE.search(buf) is None:
        return None  # loadtxt would warn about empty input
    try:
        return np.loadtxt(io.BytesIO(buf), dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None


def _parse_text(
    lines: Iterable[str], load: Callable[[bytes], T | None], scan: Callable[[list[str]], T]
) -> T:
    """``load`` the text of ``lines`` encoded as ASCII; where it is not ASCII
    or ``load`` returns None, ``scan`` its lines instead.

    ``lines`` is read once: a text stream whole, or an iterable of lines
    with or without their newline.  ``scan`` is the reference for what a
    format accepts and the only source of diagnostics; ``load`` is the
    fast path, which returns None for any text it cannot read exactly as
    ``scan`` would.
    """
    read = getattr(lines, "read", None)
    if read is not None:
        text = read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in lines)
    try:
        buf = text.encode("ascii")
    except UnicodeEncodeError:
        return scan(text.split("\n"))
    del text  # keep one copy of the characters alive, not two
    parsed = load(buf)
    if parsed is None:
        return scan(buf.decode("ascii").split("\n"))
    return parsed


def _load_values(buf: bytes) -> TimeSeries | None:
    """The series via NumPy's C reader, or None if the scanner must decide."""
    table = _loadtxt(buf, _VALUE)
    if table is None:
        return None
    try:
        return TimeSeries(table["v"])
    except ValueError:
        return None


def _scan_values(lines: Iterable[str]) -> TimeSeries:
    """Reference line-by-line parse, raising on the first bad line."""
    values: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise MalformedLine(f"line {lineno}: not a decimal value: {line!r}") from None
    try:
        return TimeSeries(values)
    except ValueError as exc:
        raise MalformedLine(str(exc)) from None


def read_series(stream: Iterable[str]) -> TimeSeries:
    """Read the one-value-per-line format; '#' comments and blanks allowed.

    The text goes through NumPy's C reader when it can; comment lines,
    ``1_000``, non-ASCII digits and every error take the line scanner,
    whose diagnostics name the line.
    """
    return _parse_text(stream, _load_values, _scan_values)
