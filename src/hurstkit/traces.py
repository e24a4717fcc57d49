"""Packet-trace parsing and the two derived series: bytes per time bin
and interarrival times.

Trace format: ASCII text, one packet per line as
``<timestamp-seconds> <size-bytes>``; '#' comments and blank lines are
allowed.  Timestamps must be non-decreasing (violations are an error,
never silently reordered) and sizes must fit in a signed 64-bit integer.
Bins are anchored at the first packet's timestamp; empty bins are
legitimate zeros (they are what rules out the log filter on binned
traffic).

A :class:`PacketTrace` is columnar: one read-only float64 array of
timestamps and one read-only int64 array of sizes, with no per-packet
Python objects.  :func:`parse_packet_trace` reads its input once into a
buffer and tries three readers on it, each only where the one before
declines:

1. ``_decimal_columns``, a numpy-only kernel for the common shape, every
   line ``D+ "." D+ " " D+ "\n"`` with at most 18 digits in the
   timestamp and 18 in the size (the last newline optional).  It reads
   8 digits per 64-bit word and forms each timestamp's digits as an
   integer m < 10**18 and its fraction length k.  Both m and 10**k are
   exact in the x87 extended format (64-bit significand), so the
   quotient m / 10**k is rounded once, to 64 bits, and converting it to
   float64 rounds a second time.  Two roundings agree with one unless
   the first lands exactly on a float64 midpoint, whose last 11
   significand bits read 0b10000000000; those rows are read again with
   ``float()``.  Where longdouble is not that format the kernel declines
   every input.
2. NumPy's C text reader, for any other text it accepts.
3. The line-by-line scanner ``_scan``, for the rest: text the readers
   above refuse, text :class:`PacketTrace` refuses from them (a
   timestamp that is not finite or decreases, a negative size), empty
   text and text that is not ASCII.

The scanner is the reference for what the format accepts and the only
source of diagnostics, so every error names the line and column it
always did; inputs only the scanner accepts (comment lines, ``1_000``,
non-ASCII digits) still parse, just at the scanner's speed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    BadBinWidth,
    EmptyTrace,
    MalformedLine,
    NonMonotoneTimestamp,
    TooFewRecords,
)
from .series import _WRITE_SLICE, TimeSeries, _loadtxt, _parse_text

__all__ = [
    "PacketRecord",
    "PacketTrace",
    "parse_packet_trace",
    "serialize_packet_trace",
    "bin_bytes",
    "interarrival_series",
]

_INT64_MAX = int(np.iinfo(np.int64).max)
_MAX_BINS = int(np.iinfo(np.intp).max) // 8  # float64 bins whose byte count fits in intp
_COLUMNS = np.dtype([("t", np.float64), ("s", np.int64)])

# The plain-decimal kernel reads the text in windows cut at a newline, each
# copied behind a pad so that every digit word it loads lies in its copy.
_WINDOW = 1 << 20  # bytes
_PAD = 8
_MAX_DIGITS = 18  # 10**18 < 2**63: every field is exact in uint64 and int64
_SEPARATORS = np.frombuffer(b". \n", np.uint8)
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


@dataclass(frozen=True)
class PacketRecord:
    """One packet: arrival time in seconds and size in bytes.

    Fields are coerced to plain ``float`` and ``int``, so a record built
    from NumPy scalars prints and serializes like any other; a size that
    is not a whole number is rejected.
    """

    timestamp: float
    size: int

    def __post_init__(self) -> None:
        size = int(self.size)
        if size != self.size:
            raise ValueError(f"packet size must be a whole number, got {self.size!r}")
        object.__setattr__(self, "timestamp", float(self.timestamp))
        object.__setattr__(self, "size", size)


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d column, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class PacketTrace:
    """Ordered packets as two columns plus a free-form source label.

    ``timestamps`` (seconds) and ``sizes`` (bytes) are copied into
    read-only float64 and int64 arrays; timestamps must be finite and
    must not decrease, sizes must be non-negative whole numbers: what
    :func:`parse_packet_trace` accepts, so every trace serializes to
    text that parses back to it.
    """

    __slots__ = ("_timestamps", "_sizes", "source")

    def __init__(
        self,
        timestamps: Sequence[float] | np.ndarray = (),
        sizes: Sequence[int] | np.ndarray = (),
        source: str = "",
    ):
        ts = _read_only(timestamps, np.float64)
        given = np.asarray(sizes)
        sz = _read_only(given, np.int64)
        if not np.array_equal(sz, given):
            raise ValueError("packet sizes must be whole numbers")
        if ts.size != sz.size:
            raise ValueError(f"{ts.size} timestamps but {sz.size} sizes")
        if not np.isfinite(ts).all():
            raise ValueError("packet timestamps must be finite")
        if (sz < 0).any():
            raise ValueError("packet sizes must be >= 0")
        drops = np.flatnonzero(np.diff(ts) < 0)
        if drops.size:
            i = int(drops[0]) + 1
            raise NonMonotoneTimestamp(f"record {i + 1}: timestamp {ts[i]} < {ts[i - 1]}")
        self._timestamps = ts
        self._sizes = sz
        self.source = source

    def __len__(self) -> int:
        return self._timestamps.size

    def __repr__(self) -> str:
        return f"PacketTrace(n={len(self)}, source={self.source!r})"

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only float64 arrival times in seconds."""
        return self._timestamps

    @property
    def sizes(self) -> np.ndarray:
        """Packet sizes as a new float64 array (the int64 column stays exact)."""
        return self._sizes.astype(np.float64)

    @property
    def records(self) -> tuple[PacketRecord, ...]:
        """The packets as :class:`PacketRecord` objects, built on each access."""
        return tuple(
            PacketRecord(t, s) for t, s in zip(self._timestamps.tolist(), self._sizes.tolist())
        )


def _scan(lines: Iterable[str]) -> tuple[list[float], list[int]]:
    """Reference line-by-line parse, raising on the first bad entry."""
    timestamps: list[float] = []
    sizes: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(f"line {lineno}: expected '<timestamp> <size>', got {line!r}")
        try:
            ts = float(fields[0])
        except ValueError:
            raise MalformedLine(f"line {lineno}, column 1: bad timestamp {fields[0]!r}") from None
        if not math.isfinite(ts):
            raise MalformedLine(f"line {lineno}, column 1: non-finite timestamp {fields[0]!r}")
        try:
            size = int(fields[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}, column 2: bad size {fields[1]!r}") from None
        if size < 0:
            raise MalformedLine(f"line {lineno}, column 2: negative size {size}")
        if size > _INT64_MAX:
            raise MalformedLine(f"line {lineno}, column 2: size {fields[1]!r} does not fit in int64")
        if timestamps and ts < timestamps[-1]:
            raise NonMonotoneTimestamp(
                f"record {len(timestamps) + 1} (line {lineno}): timestamp {ts} < {timestamps[-1]}"
            )
        timestamps.append(ts)
        sizes.append(size)
    return timestamps, sizes


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


def _decimal_columns(buf: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Timestamps and sizes of text whose every line is ``D+ "." D+ " " D+``
    (at most 18 digits per number, the last newline optional), exactly as
    ``float()`` and ``int()`` read them; None for any other text."""
    if not _EXTENDED or not buf:
        return None
    text = np.frombuffer(buf, np.uint8)
    rows = sum(int(np.count_nonzero(text[i : i + _WINDOW] == 10)) for i in range(0, text.size, _WINDOW))
    rows += not buf.endswith(b"\n")
    timestamps = np.empty(rows, np.float64)
    sizes = np.empty(rows, np.int64)
    copy = np.zeros(_PAD + _WINDOW + 1, np.uint8)  # + the newline a last line may lack
    words = np.ndarray(buffer=copy, dtype="<u8", shape=(copy.size - 7,), strides=(1,))
    start = row = 0
    while start < text.size:
        stop = start + _WINDOW
        if stop < text.size:
            stop = buf.rfind(b"\n", start, stop) + 1
            if stop <= start:
                return None  # a line longer than a window
        else:
            stop = text.size
        n = stop - start
        copy[_PAD : _PAD + n] = text[start:stop]
        if text[stop - 1] != 10:
            copy[_PAD + n] = 10
            n += 1
        window = copy[_PAD : _PAD + n]
        if (window > 57).any():
            return None
        at = np.flatnonzero(window < 48)
        if at.size % 3 or (window[at].reshape(-1, 3) != _SEPARATORS).any():
            return None
        lengths = np.diff(at, prepend=-1).reshape(-1, 3)
        lengths -= 1
        whole, frac, size = lengths.T
        if lengths.min() < 1 or (whole + frac).max() > _MAX_DIGITS or size.max() > _MAX_DIGITS:
            return None
        at += _PAD
        dot, space, newline = at.reshape(-1, 3).T
        mantissa = _field(words, dot, whole)
        mantissa *= _POW10[frac]
        mantissa += _field(words, space, frac)
        quotient = mantissa.astype(np.longdouble)
        quotient /= _POW10_LD[frac]
        end = row + dot.size
        timestamps[row:end] = quotient
        sizes[row:end] = _field(words, newline, size)
        # quotients on a float64 midpoint, where the second rounding may err
        low = np.ndarray(buffer=quotient, dtype="<u2", shape=quotient.shape, strides=(quotient.itemsize,))
        for i in np.flatnonzero((low & 0x7FF) == 0x400).tolist():
            timestamps[row + i] = float(copy[dot[i] - whole[i] : space[i]].tobytes())
        row = end
        start = stop
    return timestamps, sizes


def _load_trace(buf: bytes, source: str) -> PacketTrace | None:
    """The trace via the plain-decimal kernel or NumPy's C reader, or None
    if the scanner must decide."""
    columns = _decimal_columns(buf)
    if columns is None:
        table = _loadtxt(buf, _COLUMNS)
        if table is None:
            return None
        columns = table["t"], table["s"]
    try:
        return PacketTrace(*columns, source=source)
    except (ValueError, NonMonotoneTimestamp):
        return None


def parse_packet_trace(lines: Iterable[str], source: str = "") -> PacketTrace:
    """Parse the two-column text format, reporting the first bad entry.

    ``lines`` is a text stream, or an iterable of lines with or without
    their newline.
    """
    return _parse_text(
        lines,
        lambda buf: _load_trace(buf, source),
        lambda scanned: PacketTrace(*_scan(scanned), source=source),
    )


def serialize_packet_trace(trace: PacketTrace, stream: IO[str]) -> None:
    """Write the two-column format; parse -> serialize -> parse is identity."""
    for start in range(0, len(trace), _WRITE_SLICE):
        stop = start + _WRITE_SLICE
        pairs = zip(trace._timestamps[start:stop].tolist(), trace._sizes[start:stop].tolist())
        stream.write("".join(f"{ts!r} {size}\n" for ts, size in pairs))


def check_bin_width(bin_width: float) -> None:
    if not (isinstance(bin_width, (int, float)) and math.isfinite(bin_width) and bin_width > 0):
        raise BadBinWidth(f"bin width must be positive and finite, got {bin_width!r}")


def bin_bytes(trace: PacketTrace, bin_width: float) -> TimeSeries:
    """Bytes per fixed-width bin, bin i covering [t0 + i*w, t0 + (i+1)*w).

    t0 is the first packet's timestamp.  Bins run up to the one holding
    the final packet; a trailing bin that would start at or beyond the
    final timestamp is treated as the discarded partial tail, so a
    lone packet (span shorter than one bin) yields an empty series.
    """
    if len(trace) == 0:
        raise EmptyTrace("cannot bin an empty trace")
    check_bin_width(bin_width)
    ts = trace._timestamps
    t0 = ts[0]
    span = float(ts[-1] - t0)
    bins = span / bin_width
    if not bins <= _MAX_BINS:  # also refuses a quotient that overflowed to inf
        raise BadBinWidth(
            f"bin width {bin_width!r} cuts the {span!r} s trace into {bins:.3g} bins, "
            "more than an array can index"
        )
    nbins = math.ceil(bins)
    idx = ((ts - t0) // bin_width).astype(np.int64)
    keep = idx < nbins
    try:
        return TimeSeries(np.bincount(idx[keep], weights=trace._sizes[keep], minlength=nbins))
    except MemoryError:
        raise BadBinWidth(
            f"bin width {bin_width!r} cuts the {span!r} s trace into {nbins} bins, "
            "more than memory can hold"
        ) from None


def interarrival_series(trace: PacketTrace) -> TimeSeries:
    """Successive timestamp differences; length N-1, zeros allowed."""
    if len(trace) == 0:
        raise EmptyTrace("cannot derive interarrivals from an empty trace")
    if len(trace) < 2:
        raise TooFewRecords("interarrival series needs at least two records")
    return TimeSeries(np.diff(trace._timestamps))
