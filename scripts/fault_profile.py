"""Minor page faults, wall seconds and peak RSS per stage of a matrix-fgn-shaped pass.

    PYTHONPATH=src python3 scripts/fault_profile.py [--seed 11] [--passes 5]

Builds the matrix of perfbench's matrix-fgn workload (FGN H = 0.7,
N = 2^17, 3 runs, corruptions none/ar1/sine/trend, all five estimators,
one thread) with hurstkit alone and runs it in this process: one cold
pass, then ``--passes`` warm passes.  Each pass is a plain ``run_matrix``
call, with ``hurstkit.harness.estimate`` and ``_materialize_rows`` wrapped
where ``run_matrix`` looks them up.  Prints one JSON object: the median
over the warm passes of the minor faults (``getrusage`` ``ru_minflt``)
and the wall seconds of row materialisation, of each estimator summed
over its rows, of the rest of ``run_matrix`` (``run_matrix_self``, which
includes the one periodogram each row takes, outside ``estimate``, for its
two spectral cells) and of the whole pass; the process's peak RSS
(``ru_maxrss``, MiB) before the cold pass, after it and after the warm
passes; and how far each stage raised that peak
during the cold pass, which is where the peak is set.  It reports and
does not gate.

Warm-pass faults follow glibc's heap layout, and that layout moves with
the checkout's directory path: one tree read 3115 to 5630 faults per warm
pass from eight directories whose names differ only in length, the same
under every ``PYTHONHASHSEED`` tried, so more processes from one
directory do not separate code from layout.  To compare a change with its
parent, run both from checkouts at several paths (the same set of path
lengths for each) and compare the ranges.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from time import perf_counter

import hurstkit.harness as harness


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class _Meter:
    """Faults, seconds and rises of the peak RSS (MiB) summed per stage name."""

    def __init__(self) -> None:
        self.faults: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.peak_rise: dict[str, float] = {}

    def run(self, name: str, fn, *args, **kwargs):
        f0, p0, t0 = _faults(), _peak_mib(), perf_counter()
        result = fn(*args, **kwargs)
        t1, p1, f1 = perf_counter(), _peak_mib(), _faults()
        self.faults[name] = self.faults.get(name, 0) + f1 - f0
        self.seconds[name] = self.seconds.get(name, 0.0) + t1 - t0
        self.peak_rise[name] = self.peak_rise.get(name, 0.0) + p1 - p0
        return result


def _pass(spec) -> _Meter:
    meter = _Meter()
    estimate, materialize = harness.estimate, harness._materialize_rows
    harness.estimate = lambda series, method, **kwargs: meter.run(method, estimate, series, method, **kwargs)
    harness._materialize_rows = lambda spec, run: meter.run("rows", materialize, spec, run)
    try:
        meter.run("pass", harness.run_matrix, spec)
    finally:
        harness.estimate, harness._materialize_rows = estimate, materialize
    stages = [name for name in meter.faults if name != "pass"]
    for totals in (meter.faults, meter.seconds, meter.peak_rise):
        totals["run_matrix_self"] = totals["pass"] - sum(totals[name] for name in stages)
    return meter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11, help="perfbench seed; the matrix seed is 1000 times it")
    parser.add_argument("--passes", type=int, default=5, help="warm passes to take the median over")
    args = parser.parse_args()
    text = (
        f"source = fgn\nn = {2**17}\nh = 0.7\nruns = 3\nseed = {1000 * args.seed}\n"
        "corruption = none\ncorruption = ar1\ncorruption = sine\ncorruption = trend\n"
        "estimator = all\nworkers = 1\n"
    )
    spec = harness.build_experiment_spec(harness.parse_config(text))
    before = _peak_mib()
    cold = _pass(spec)  # the cold pass: imports, caches and the heap's first growth
    after_cold = _peak_mib()
    warm = [_pass(spec) for _ in range(args.passes)]
    report = {
        "seed": args.seed,
        "warm_passes": args.passes,
        "minor_faults": {name: statistics.median(m.faults[name] for m in warm) for name in warm[0].faults},
        "wall_s": {name: round(statistics.median(m.seconds[name] for m in warm), 4) for name in warm[0].seconds},
        "peak_rss_mib": {
            "before_cold_pass": round(before, 2),
            "after_cold_pass": round(after_cold, 2),
            "after_warm_passes": round(_peak_mib(), 2),
        },
        "cold_peak_rise_mib": {name: round(rise, 2) for name, rise in cold.peak_rise.items()},
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
