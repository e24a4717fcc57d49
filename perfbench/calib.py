"""A fixed piece of work that measures how fast the host runs right now.

The host's speed drifts by up to 1.8x over tens of seconds, because other
machines' work shares its cores.  Every timed span of the benchmark (a
pass, a set-up sample) is therefore bracketed by calibrations, and
reported in reference seconds:

    span_s * REFERENCE_S / mean(calibration before, calibration after)

``REFERENCE_S`` is about what one calibration took on the host the bounds
were set on.  The calibration is benchmark code only, so a change to hurstkit
moves the reported times exactly as it moves the wall times.

The work has the shape of the R/S estimator: block-wise cumulative sums,
ranges and deviations over 2**17 points, with numpy.  Over the passes of
both bounded workloads, its time tracked the pass times more closely
than a pure-Python text-parsing probe did, also on `trace-ingest`, whose
passes are mostly Python parsing.  It uses no FFT.  It runs in a process
of its own (``Calibrator``) that waits while the span it brackets runs,
so the timed process's heap and peak RSS are its own.

Run as a script, it reads one line per calibration from stdin and answers
each with the seconds the work took.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.13
_POINTS = 2**17
_BLOCKS = (16, 64, 256, 1024)
_ROUNDS = 12
# the first calls in a fresh process are slow while its heap grows
_WARMUP_CALLS = 3


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    x = np.random.default_rng(0).standard_normal(_POINTS)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        for block in _BLOCKS:
            b = x.reshape(-1, block)
            z = np.cumsum(b - b.mean(axis=1, keepdims=True), axis=1)
            acc += float((np.ptp(z, axis=1) / b.std(axis=1)).mean())
    return time.perf_counter() - t0


def scaled(span_s: float, before_s: float, after_s: float) -> float:
    """``span_s`` in reference seconds, given the calibrations around it."""
    return span_s * REFERENCE_S / (0.5 * (before_s + after_s))


class Calibrator:
    """A calibration process that calibrates on request.

    It starts warming up at once, so the caller can do untimed work (such
    as importing hurstkit) meanwhile; the first ``measure()`` waits for
    the warm-up to end.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self._proc.stdin.write("\n" * _WARMUP_CALLS)
        self._proc.stdin.flush()
        self._pending = _WARMUP_CALLS

    def measure(self) -> float:
        """Seconds one calibration takes now."""
        for _ in range(self._pending):
            self._proc.stdout.readline()
        self._pending = 0
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        finally:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(calibrate(), flush=True)
