"""Seeded inputs for the three workloads.

Everything the program sees is written here as files or command-line
arguments; the same seed always gives the same bytes.  The generators
below use numpy only, never hurstkit, so the expected results the checks
derive from them are independent of the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# matrix-fgn: one matrix of mid-length FGN series.  One worker thread: with
# two on this host's two cores, run-to-run spreads grew past 0.3 of the median.
FGN_HURST = 0.7
FGN_N = 2**17
FGN_RUNS = 3
FGN_CORRUPTIONS = ("none", "ar1", "sine", "trend")
FGN_WORKERS = 1

# trace-ingest: timestamps are whole ticks of 2**-20 s and the bin width is
# 2**13 ticks, so every timestamp, difference and bin index is exact in
# binary floating point and the expected bins follow from integer ticks.
TICK_S = 2.0**-20
BIN_TICKS = 2**13
BIN_WIDTH_S = BIN_TICKS * TICK_S  # 0.0078125 s
TRACE_PACKETS = 1_000_000
PARETO_ALPHA = 1.5
PARETO_SCALE_TICKS = 273  # mean gap 3 * 273 = 819 ticks, so ~10 packets per bin
PACKET_SIZES = np.array([40, 576, 1500], dtype=np.int64)
PACKET_SIZE_P = np.array([0.45, 0.15, 0.40])
TRACE_FILTERS = ("none", "log", "linear", "poly")

# cli-farima-1e6: one long FARIMA(0, d, 0) series through generate/estimate/acf.
FARIMA_D = 0.3
FARIMA_N = 1_000_000
ACF_MAX_LAG = 1000


@dataclass(frozen=True)
class PacketTraceInput:
    """The synthetic trace as integer ticks and byte sizes."""

    ticks: np.ndarray
    sizes: np.ndarray

    def text(self) -> str:
        seconds = (self.ticks * TICK_S).tolist()
        return "".join(f"{t!r} {s}\n" for t, s in zip(seconds, self.sizes.tolist()))

    def expected_bins(self) -> np.ndarray:
        """Bytes per bin computed from integer ticks, dropping the partial tail."""
        offset = self.ticks - self.ticks[0]
        nbins = -(-int(offset[-1]) // BIN_TICKS)
        idx = offset // BIN_TICKS
        keep = idx < nbins
        return np.bincount(idx[keep], weights=self.sizes[keep], minlength=nbins).astype(np.float64)


def packet_trace(seed: int, packets: int = TRACE_PACKETS) -> PacketTraceInput:
    """Pareto(1.5) interarrival gaps and a 40/576/1500-byte size mix."""
    rng = np.random.default_rng([seed, 1])
    gaps = np.floor(PARETO_SCALE_TICKS * (1.0 + rng.pareto(PARETO_ALPHA, packets - 1)))
    start = int(rng.integers(0, 2**20))
    ticks = np.concatenate(([start], start + np.cumsum(gaps.astype(np.int64))))
    sizes = rng.choice(PACKET_SIZES, size=packets, p=PACKET_SIZE_P)
    return PacketTraceInput(ticks=ticks, sizes=sizes)


def fgn_matrix_seed(seed: int) -> int:
    return 1000 * seed


def farima_seed(seed: int) -> int:
    return 1000 * seed + 7


def fgn_matrix_config(seed: int, output: Path) -> str:
    lines = [
        "source = fgn",
        f"n = {FGN_N}",
        f"h = {FGN_HURST}",
        f"runs = {FGN_RUNS}",
        f"seed = {fgn_matrix_seed(seed)}",
        *(f"corruption = {c}" for c in FGN_CORRUPTIONS),
        "estimator = all",
        f"workers = {FGN_WORKERS}",
        "format = csv",
        f"output = {output}",
    ]
    return "\n".join(lines) + "\n"


def trace_matrix_config(bins_path: Path, output: Path) -> str:
    lines = [
        "source = file",
        f"path = {bins_path}",
        *(f"filter = {f}" for f in TRACE_FILTERS),
        "estimator = all",
        "workers = 1",
        "format = csv",
        f"output = {output}",
    ]
    return "\n".join(lines) + "\n"
