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
buffer and hands it to NumPy's C text reader.  Whenever that reader
rejects the text, or :class:`PacketTrace` refuses its columns (a
timestamp that is not finite or decreases, a negative size), or the
text is empty or not ASCII, the same buffer is parsed again by the
line-by-line scanner ``_scan``.  The scanner is the reference for what the format accepts and
the only source of diagnostics, so every error names the line and
column it always did; inputs only the scanner accepts (comment lines,
``1_000``, non-ASCII digits) still parse, just at the scanner's speed.
"""

from __future__ import annotations

import io
import math
import re
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
from .series import TimeSeries

__all__ = [
    "PacketRecord",
    "PacketTrace",
    "parse_packet_trace",
    "serialize_packet_trace",
    "bin_bytes",
    "interarrival_series",
]

_INT64_MAX = int(np.iinfo(np.int64).max)
_COLUMNS = np.dtype([("t", np.float64), ("s", np.int64)])
# a byte that is not whitespace to both NumPy's reader and str.split()
_DATA_BYTE = re.compile(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]")


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


def _load_trace(buf: bytes, source: str) -> PacketTrace | None:
    """The trace via NumPy's C reader, or None if the scanner must decide."""
    if _DATA_BYTE.search(buf) is None:
        return None  # loadtxt would warn about empty input
    try:
        table = np.loadtxt(io.BytesIO(buf), dtype=_COLUMNS, comments=None, ndmin=1)
        return PacketTrace(table["t"], table["s"], source=source)
    except (ValueError, NonMonotoneTimestamp):
        return None


def parse_packet_trace(lines: Iterable[str], source: str = "") -> PacketTrace:
    """Parse the two-column text format, reporting the first bad entry.

    ``lines`` is a text stream, or an iterable of lines with or without
    their newline.
    """
    read = getattr(lines, "read", None)
    if read is not None:
        text = read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in lines)
    try:
        buf = text.encode("ascii")
    except UnicodeEncodeError:
        return PacketTrace(*_scan(text.split("\n")), source=source)
    del text  # keep one copy of the characters alive, not two
    trace = _load_trace(buf, source)
    if trace is None:
        return PacketTrace(*_scan(buf.decode("ascii").split("\n")), source=source)
    return trace


def serialize_packet_trace(trace: PacketTrace, stream: IO[str]) -> None:
    """Write the two-column format; parse -> serialize -> parse is identity."""
    for ts, size in zip(trace._timestamps.tolist(), trace._sizes.tolist()):
        stream.write(f"{ts!r} {size}\n")


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
    span = ts[-1] - t0
    nbins = int(math.ceil(span / bin_width))
    if nbins == 0:
        return TimeSeries(np.empty(0))
    idx = ((ts - t0) // bin_width).astype(np.int64)
    keep = idx < nbins
    totals = np.bincount(idx[keep], weights=trace._sizes[keep], minlength=nbins)
    return TimeSeries(totals)


def interarrival_series(trace: PacketTrace) -> TimeSeries:
    """Successive timestamp differences; length N-1, zeros allowed."""
    if len(trace) == 0:
        raise EmptyTrace("cannot derive interarrivals from an empty trace")
    if len(trace) < 2:
        raise TooFewRecords("interarrival series needs at least two records")
    return TimeSeries(np.diff(trace._timestamps))
