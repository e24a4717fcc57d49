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

1. ``series._decimal_columns``, the plain-decimal kernel that
   :func:`~hurstkit.series.read_series` uses too, here for lines
   ``D+ "." D+ " " D+ "\n"`` with at most 18 digits in the timestamp and
   18 in the size (the last newline optional); the series module
   describes how it stays exact.
2. NumPy's C text reader, for any other text it accepts.
3. The line-by-line scanner ``_scan``, for the rest: text the readers
   above refuse, text :class:`PacketTrace` refuses from them (a
   timestamp that is not finite or decreases, a negative size), empty
   text and text that is not ASCII.

The trace adopts the kernel's columns uncopied, and contiguous copies of
the field views NumPy's reader returns.  The scanner is the reference for
what the format accepts and the only source of diagnostics, so every
error names the line and column it always did; inputs only the scanner
accepts (comment lines, ``1_000``, non-ASCII digits) still parse, just at
the scanner's speed.

:func:`bin_bytes` takes each bin index as ``floor(d / w)`` and re-takes
numpy's ``d // w`` only on the rows where ``d / w`` rounds onto a whole
number, the only rows where the two can differ below 2**51 bins; the
bins are the ones ``d // w`` gives everywhere.  Timestamps quantised to
the bin width (whole seconds at w = 1) put most rows on such an edge,
and there the division, floor and compare are paid on top of ``//``.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    BadBinWidth,
    EmptyTrace,
    MalformedLine,
    NonMonotoneTimestamp,
    TooFewRecords,
)
from .series import _MAX_POINTS, _TRACE_LINE, _WRITE_SLICE, TimeSeries, _decimal_columns, _loadtxt, _parse_text

__all__ = [
    "PacketTrace",
    "parse_packet_trace",
    "serialize_packet_trace",
    "bin_bytes",
    "interarrival_series",
]

_INT64_MAX = int(np.iinfo(np.int64).max)
_COLUMNS = np.dtype([("t", np.float64), ("s", np.int64)])


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
        given = np.asarray(sizes)
        sz = np.array(given, dtype=np.int64)
        if not np.array_equal(sz, given):
            raise ValueError("packet sizes must be whole numbers")
        self._adopt(np.array(timestamps, dtype=np.float64), sz, source)

    @classmethod
    def _from_columns(cls, timestamps: np.ndarray, sizes: np.ndarray, source: str) -> PacketTrace:
        """A trace that keeps (and freezes) float64 and int64 columns the
        package has just built and holds no other reference to."""
        trace = cls.__new__(cls)
        trace._adopt(timestamps, sizes, source)
        return trace

    def _adopt(self, ts: np.ndarray, sz: np.ndarray, source: str) -> None:
        for column in (ts, sz):
            if column.ndim != 1:
                raise ValueError(f"expected a 1-d column, got shape {column.shape}")
        if ts.size != sz.size:
            raise ValueError(f"{ts.size} timestamps but {sz.size} sizes")
        if not np.isfinite(ts).all():
            raise ValueError("packet timestamps must be finite")
        if (sz < 0).any():
            raise ValueError("packet sizes must be >= 0")
        drops = np.flatnonzero(ts[1:] < ts[:-1])
        if drops.size:
            i = int(drops[0]) + 1
            raise NonMonotoneTimestamp(f"record {i + 1}: timestamp {ts[i]} < {ts[i - 1]}")
        ts.setflags(write=False)
        sz.setflags(write=False)
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
        """Read-only int64 packet sizes in bytes."""
        return self._sizes


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
    """The trace via the plain-decimal kernel or NumPy's C reader, or None
    if the scanner must decide."""
    columns = _decimal_columns(buf, _TRACE_LINE)
    if columns is None:
        table = _loadtxt(buf, _COLUMNS)
        if table is None:
            return None
        columns = np.ascontiguousarray(table["t"]), np.ascontiguousarray(table["s"])
    try:
        return PacketTrace._from_columns(*columns, source=source)
    except (ValueError, NonMonotoneTimestamp):
        return None


def parse_packet_trace(lines: Iterable[str] | IO[bytes], source: str = "") -> PacketTrace:
    """Parse the two-column text format, reporting the first bad entry.

    ``lines`` is a binary or text stream, or an iterable of lines with or
    without their newline.
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
    if not bins <= _MAX_POINTS:  # also refuses a quotient that overflowed to inf
        raise BadBinWidth(
            f"bin width {bin_width!r} cuts the {span!r} s trace into {bins:.3g} bins, "
            "more than an array can index"
        )
    nbins = math.ceil(bins)
    # Below 2**51 bins, d // w is the floor of the real d / w (d >= 0, w > 0),
    # and floor(fl(d / w)) differs from it only where fl(d / w) rounds onto a
    # whole number; no larger bin count can be allocated.
    offsets = ts - t0
    quotient = offsets / bin_width
    idx = np.floor(quotient)
    np.floor_divide(offsets, bin_width, out=idx, where=quotient == idx)
    idx = idx.astype(np.int64)
    sizes = trace._sizes
    keep = idx < nbins
    if not keep.all():
        idx, sizes = idx[keep], sizes[keep]
    try:
        counts = np.bincount(idx, weights=sizes, minlength=nbins)
        return TimeSeries._from_values(counts.astype(np.float64, copy=False))  # int64 when empty
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
    return TimeSeries._from_values(np.diff(trace._timestamps))
