"""Core time-series value type, summary statistics, autocorrelation and
block aggregation.

A :class:`TimeSeries` is an immutable, equally spaced sequence of finite
real values; the array index is the time coordinate.  All statistics use
the population convention (denominator ``N``) and the autocorrelation
estimator is the biased one (denominator ``N`` at every lag), which keeps
``|rho(k)| <= 1`` and the estimated sequence positive semi-definite.

Series text and packet-trace text share one reader, :func:`_parse_text`:
the input is read once as ASCII bytes and tried by up to three readers,
each only where the one before declines:

1. ``_decimal_columns``, a numpy-only kernel that serves both line
   shapes: ``D+ "." D+`` for a series (what :func:`write_series` writes
   for whole values) and ``D+ "." D+ " " D+`` for a packet trace, with at
   most 18 digits per number (the last newline optional).  It reads 8
   digits per 64-bit word and forms each decimal's digits as an integer
   m < 10**18 and its fraction length k.  Both m and 10**k are exact in
   the x87 extended format (64-bit significand), so the quotient
   m / 10**k is rounded once, to 64 bits, and converting it to float64
   rounds a second time.  Two roundings agree with one unless the first
   lands exactly on a float64 midpoint, whose last 11 significand bits
   read 0b10000000000; those rows are read again with ``float()``.
   Where longdouble is not that format the kernel declines every input.
   A serial pass cuts the text into windows of at most 1 MiB after a
   newline, counts each one's rows (its first row follows) and declines
   a byte above ``9`` or a count of bytes below ``0`` other than one per
   separator.  The windows are then read on the threads of
   ``_run_threads``, which R/S shares: one per CPU in
   ``os.sched_getaffinity`` (at most ``_MAX_THREADS``, the caller's thread
   among them), each kept to its own CPUs and reusing one copy buffer.
   One window, one CPU or a call off the main thread is read inline.  A
   window's arithmetic, midpoint re-reads included, is its own, so the
   columns do not depend on the thread count.
2. NumPy's C text reader, for any other text it accepts.
3. A line scanner, the reference for what each format accepts and the
   only source of diagnostics, which name the offending line.

:func:`write_series` writes whole values below 1e16 (bytes per bin, for
one) by forming their digits with numpy; every other value is written
with ``repr``, and both give the same text.
"""

from __future__ import annotations

import io
import os
import re
import sys
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import IO, Callable, Iterable, TypeVar

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

_MAX_POINTS = int(np.iinfo(np.intp).max) // 8  # float64 values whose byte count fits in intp


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
        self._adopt(np.array(values, dtype=np.float64))

    @classmethod
    def _from_values(cls, arr: np.ndarray) -> TimeSeries:
        """A series that keeps (and freezes) a 1-d float64 array the package
        has just built and holds no other reference to, without a copy."""
        series = cls.__new__(cls)
        series._adopt(arr)
        return series

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-d sequence, got shape {arr.shape}")
        if arr.dtype != np.float64:
            raise ValueError(f"expected float64 values, got {arr.dtype}")
        if not arr.flags.c_contiguous or arr.base is not None:
            raise ValueError("expected a contiguous array that owns its data")
        if arr.size and not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at index {bad}")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the sample values."""
        return self._values

    def __len__(self) -> int:
        return self._values.size

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


def aggregate(series: TimeSeries, block: int) -> TimeSeries:
    """Block means at size ``block``; the trailing partial block is dropped."""
    n = len(series)
    if block < 1 or block > n:
        raise BadBlock(f"block size must be in [1, {n}], got {block}")
    if block == 1:
        return series  # a series is immutable
    nblocks = n // block
    return TimeSeries._from_values(series.values[: nblocks * block].reshape(nblocks, block).mean(axis=1))


_WRITE_SLICE = 1 << 16  # values formatted per write: bounded memory at any length
_VALUE = np.dtype([("v", np.float64)])  # one field, so a line of two values is refused
# a byte that is not whitespace to both NumPy's reader and str.split()
_DATA_BYTE = re.compile(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]")

# The plain-decimal kernel reads the text in windows cut at a newline, each
# copied behind a pad so that every digit word it loads lies in its copy.
_WINDOW = 1 << 20  # bytes
# Threads that run one job's parts at once, at most: a reader thread holds a
# window copy and a few MiB of temporaries, so the cap bounds that memory on a
# many-CPU host.
_MAX_THREADS = 8
_PAD = 8
_MAX_DIGITS = 18  # 10**18 < 2**63: every field is exact in uint64 and int64
_SERIES_LINE = b".\n"  # D+ "." D+
_TRACE_LINE = b". \n"  # D+ "." D+ " " D+
# x87 extended precision, stored little-endian: the midpoint test reads its bits
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_POW10 = np.array([10**k for k in range(_MAX_DIGITS + 1)], dtype=np.uint64)
_POW10_LD = _POW10.astype(np.longdouble)


def _digit_mask(digits: int) -> int:
    """Low nibbles of the top ``digits`` bytes of a little-endian word."""
    return (0x0F0F0F0F0F0F0F0F << 8 * (8 - digits)) & 0xFFFFFFFFFFFFFFFF


# _KEEP[k][n]: the bytes of word k (k = 0 ends at the last digit) that hold
# digits of an n-digit field
_KEEP = np.array(
    [[_digit_mask(min(max(n - 8 * k, 0), 8)) for n in range(_MAX_DIGITS + 1)] for k in range(3)],
    dtype=np.uint64,
)


def _whole_text(values: np.ndarray) -> str | None:
    """``"".join(f"{v!r}\n" for v in values)`` where every value is whole,
    below 1e16 in magnitude and not -0.0, and None for any other values.

    ``repr`` of such a value is its integer and ".0", so the digits are
    formed by numpy: right-aligned by repeated ``// 10`` in a
    ``(rows, width)`` byte block, whose leading pad one mask drops.
    """
    if not np.abs(values).max() < 1e16:
        return None
    ints = values.astype(np.int64)
    negative = np.signbit(values)
    if not np.array_equal(ints, values) or (negative & (ints == 0)).any():
        return None
    digits = np.abs(ints)
    width = len(str(int(digits.max()))) + 1  # a sign column, then the digits
    block = np.empty((values.size, width + 3), np.uint8)
    block[:, width:] = np.frombuffer(b".0\n", np.uint8)
    lead = (~negative).astype(np.intp)  # first column kept: 0 for a sign, else 1
    for col in range(width - 1, 0, -1):
        if col < width - 1:
            lead += digits == 0  # a leading pad column
        quotient = digits // 10
        block[:, col] = digits - quotient * 10
        digits = quotient
    block[:, 1:width] += 48
    rows = np.flatnonzero(negative)
    block[rows, lead[rows]] = 45
    keep = np.arange(width + 3) >= lead[:, None]
    return block[keep].tobytes().decode("ascii")


def write_series(series: TimeSeries, stream: IO[str]) -> None:
    """Write one value per line in plain decimal text (round-trip exact)."""
    values = series.values
    for start in range(0, values.size, _WRITE_SLICE):
        chunk = values[start : start + _WRITE_SLICE]
        text = _whole_text(chunk)
        if text is None:
            text = "".join(f"{v!r}\n" for v in chunk.tolist())
        stream.write(text)


def _swar8(words: np.ndarray) -> np.ndarray:
    """Each word's eight digit values, most significant in the low byte, as
    one number (in place): pairs, then quads, then all eight."""
    words *= 10 << 8 | 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10000 << 32 | 1
    words >>= 32
    return words


def _field(words: np.ndarray, end: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The values of the digit fields that end just before ``end``.

    ``words[i]`` is the little-endian word of bytes i to i + 7, so the word
    ending at ``end`` holds a field's last 8 digits.  A word wholly before a
    short field may start before the copy; its negative index wraps to the
    copy's tail, and ``_KEEP`` zeroes all of it.
    """
    value = 0
    for k in range(-(-int(digits.max()) // 8)):
        word = words[end - 8 * (k + 1)]
        word &= _KEEP[k][digits]
        _swar8(word)
        if k:
            word *= 10 ** (8 * k)
        value += word
    return value


def _thread_cpus(parts: int) -> list[set[int] | None]:
    """The CPU set of each thread that ``parts`` independent parts of one job
    run on: min(parts, CPUs, _MAX_THREADS) threads that split the calling
    thread's CPUs between them, so no two share one (None each, unsplit,
    where the platform cannot name CPUs or refuses to).  Off the main thread
    there is one: a caller on its own threads (matrix cells with
    ``workers`` > 1) already fills the CPUs."""
    if threading.current_thread() is not threading.main_thread():
        return [None]
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform, or a refused one
        return [None] * min(parts, os.cpu_count() or 1, _MAX_THREADS)
    threads = min(parts, len(cpus), _MAX_THREADS)
    return [set(cpus[i::threads]) for i in range(threads)]


def _pin(cpus: set[int] | None) -> None:
    """Keep the calling thread to ``cpus``; where the call is refused (a
    seccomp filter may refuse it), the thread runs unpinned."""
    if cpus is not None:
        try:
            os.sched_setaffinity(0, cpus)  # the calling thread only
        except OSError:
            pass


def _run_threads(cpu_sets: list[set[int] | None], work: Callable[[int], None]) -> None:
    """Run ``work(i)`` for each thread i of ``cpu_sets`` (``_thread_cpus``),
    each thread kept to its own CPUs.

    The calling thread is thread 0 and gets its CPU set back at the end;
    one thread runs inline, with no pool.  Left to the scheduler, a thread
    that the interpreter lock wakes is often put on the CPU of the thread
    that woke it, and the parts then run one after another.
    """
    if len(cpu_sets) == 1:
        work(0)
        return

    def pinned(i: int) -> None:
        _pin(cpu_sets[i])
        work(i)

    with ThreadPoolExecutor(max_workers=len(cpu_sets) - 1) as pool:
        helpers = [pool.submit(pinned, i) for i in range(1, len(cpu_sets))]
        mask = None if cpu_sets[0] is None else os.sched_getaffinity(0)
        try:
            pinned(0)
        finally:
            _pin(mask)
        for helper in helpers:
            helper.result()


def _cut_windows(buf: bytes, text: np.ndarray, fields: int) -> tuple[list[tuple[int, int, int]], int] | None:
    """The kernel's windows as ``(start, stop, first row)``, cut after a
    newline at most ``_WINDOW`` bytes apart, and the row count; None for a
    line longer than a window, or a window with a byte above ``9`` (an
    exponent, inf, nan) or with other than ``fields`` bytes below ``0`` per
    line (a sign, a ``#``, a blank line, a stray space), so such text
    declines before any window is parsed.
    """
    windows = []
    start = row = 0
    while start < text.size:
        stop = start + _WINDOW
        if stop < text.size:
            stop = buf.rfind(b"\n", start, stop) + 1
            if stop <= start:
                return None
        else:
            stop = text.size
        chunk = text[start:stop]
        if (chunk > 57).any():
            return None
        lines = int(np.count_nonzero(chunk == 10))
        below = int(np.count_nonzero(chunk < 48))
        if chunk[-1] != 10:  # a last line without its newline
            lines += 1
            below += 1
        if below != fields * lines:
            return None
        windows.append((start, stop, row))
        row += lines
        start = stop
    return windows, row


def _read_window(
    text: np.ndarray,
    separators: np.ndarray,
    decimals: np.ndarray,
    integers: np.ndarray | None,
    window: tuple[int, int, int],
    copy: np.ndarray,
    words: np.ndarray,
) -> bool:
    """Write one window's rows into the columns from its first row on, via
    the ``copy`` buffer and its ``words``; False where it declines."""
    start, stop, row = window
    n = stop - start
    copy[_PAD : _PAD + n] = text[start:stop]
    if text[stop - 1] != 10:
        copy[_PAD + n] = 10
        n += 1
    view = copy[_PAD : _PAD + n]
    at = np.flatnonzero(view < 48)  # fields per line, as _cut_windows counted
    if (view[at].reshape(-1, separators.size) != separators).any():
        return False
    lengths = np.diff(at, prepend=-1).reshape(-1, separators.size)
    lengths -= 1
    whole, frac = lengths[:, 0], lengths[:, 1]
    if lengths.min() < 1 or (whole + frac).max() > _MAX_DIGITS or lengths.max() > _MAX_DIGITS:
        return False
    at += _PAD
    ends = at.reshape(-1, separators.size).T
    dot, after = ends[0], ends[1]  # around the fraction
    mantissa = _field(words, dot, whole)
    mantissa *= _POW10[frac]
    mantissa += _field(words, after, frac)
    quotient = mantissa.astype(np.longdouble)
    quotient /= _POW10_LD[frac]
    end = row + dot.size
    decimals[row:end] = quotient
    if integers is not None:
        integers[row:end] = _field(words, ends[2], lengths[:, 2])
    # quotients on a float64 midpoint, where the second rounding may err
    low = np.ndarray(buffer=quotient, dtype="<u2", shape=quotient.shape, strides=(quotient.itemsize,))
    for i in np.flatnonzero((low & 0x7FF) == 0x400).tolist():
        decimals[row + i] = float(copy[dot[i] - whole[i] : after[i]].tobytes())
    return True


def _read_windows(windows: list[tuple[int, int, int]], read: Callable[..., bool]) -> bool:
    """Whether ``read(window, copy, words)`` accepts every window.

    The threads of ``_run_threads`` take windows in turn, each reading
    through one copy buffer of its own.  The first window to decline stops
    the rest.
    """
    pending = iter(windows)
    lock = threading.Lock()
    declined = False

    def work(thread: int) -> None:
        nonlocal declined
        copy = np.zeros(_PAD + _WINDOW + 1, np.uint8)  # + the newline a last line may lack
        words = np.ndarray(buffer=copy, dtype="<u8", shape=(copy.size - 7,), strides=(1,))
        while not declined:
            with lock:
                window = next(pending, None)
            if window is None:
                return
            if not read(window, copy, words):
                declined = True

    _run_threads(_thread_cpus(len(windows)), work)
    return not declined


def _decimal_columns(buf: bytes, line: bytes) -> tuple[np.ndarray, ...] | None:
    """The columns of text whose every line is ``D+ "." D+`` (``line`` is
    ``b".\n"``) or ``D+ "." D+ " " D+`` (``line`` is ``b". \n"``), with at
    most 18 digits per number and the last newline optional, exactly as
    ``float()`` and ``int()`` read them: a float64 column, then an int64
    column for the second shape.  None for any other text.
    """
    if not _EXTENDED or not buf:
        return None
    separators = np.frombuffer(line, np.uint8)
    text = np.frombuffer(buf, np.uint8)
    head = text[:64]  # most other text shows on its first line: decline before counting lines
    if np.isin(head[head < 48], separators, invert=True).any():
        return None
    cut = _cut_windows(buf, text, separators.size)
    if cut is None:
        return None
    windows, rows = cut
    decimals = np.empty(rows, np.float64)
    integers = np.empty(rows, np.int64) if separators.size == 3 else None
    if not _read_windows(windows, partial(_read_window, text, separators, decimals, integers)):
        return None
    return (decimals,) if integers is None else (decimals, integers)


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
    lines: Iterable[str] | IO[bytes], load: Callable[[bytes], T | None], scan: Callable[[list[str]], T]
) -> T:
    """``load`` the ASCII text of ``lines``; where it is not ASCII or ``load``
    returns None, ``scan`` its lines instead.

    ``lines`` is read once: a binary or text stream whole, or an iterable of
    lines with or without their newline.  A binary stream must hold ASCII
    (else ``UnicodeDecodeError`` names the byte's offset), and its ``\r\n``
    and ``\r`` line ends read as ``\n``, as a text stream's would.  ``scan``
    is the reference for what a format accepts and the only source of
    diagnostics; ``load`` is the fast path, which returns None for any text
    it cannot read exactly as ``scan`` would.
    """
    read = getattr(lines, "read", None)
    if read is not None:
        text = read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in lines)
    if isinstance(text, bytes):
        buf = text
        if not buf.isascii():
            buf.decode("ascii")  # raises, naming the offset
        if b"\r" in buf:
            buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    else:
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
    """The series via the plain-decimal kernel or NumPy's C reader, or None
    if the scanner must decide."""
    columns = _decimal_columns(buf, _SERIES_LINE)
    if columns is not None:
        return TimeSeries._from_values(columns[0])
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


def read_series(stream: Iterable[str] | IO[bytes]) -> TimeSeries:
    """Read the one-value-per-line format; '#' comments and blanks allowed.

    ``stream`` is a binary or text stream, or an iterable of lines.  Plain
    ``D+.D+`` lines go through the plain-decimal kernel and other text
    through NumPy's C reader when it can; comment lines, ``1_000``,
    non-ASCII digits (in a text stream) and every error take the line
    scanner, whose diagnostics name the line.
    """
    return _parse_text(stream, _load_values, _scan_values)
