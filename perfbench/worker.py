"""Workload process: runs a fixed sequence of CLI commands in passes.

Usage: python worker.py PLAN.json RESULT.json

PLAN holds ``commands`` (each an argv for ``hurstkit.cli.main`` and the
files it writes), ``deadline`` (a ``time.time()`` value) and ``trace``.
Every pass runs all commands in order, in this process.  Once the minimum
number of passes has run, no pass starts that would end after the
deadline, judged by the length of the pass before it.  After each
pass, outside its timer, the output files are hashed so that the caller
can compare passes, and the host's speed is measured by a calibration
process (``calib.py``); it is measured once before the first pass too.  With ``trace`` the warm
passes alternate between untraced and traced, and the traced ones also
yield the layer metrics.
RESULT receives per-pass times, the calibration times around them, exit
codes and hashes, ``ru_maxrss`` and, when traced, the layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calib import Calibrator

MIN_PASSES = 2  # one cold and one warm
MIN_TRACED_PASSES = 5  # one cold, two untraced and two traced


def _run(main, argv: list[str]) -> int:
    try:
        return int(main(argv) or 0)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    except Exception:  # a crash is one failed command; the pass goes on
        traceback.print_exc()
        return 1


def _digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    commands, deadline, trace = plan["commands"], plan["deadline"], plan["trace"]
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()

    times, traced, codes, digests = [], [], [], []
    with Calibrator() as calibrator:
        import hurstkit.cli as cli  # while the calibrator warms up

        calibrations = [calibrator.measure()]
        while True:
            # the cold pass and every other warm pass run untraced
            tracing = tracer is not None and len(times) % 2 == 0 and len(times) > 0
            main_fn = cli.main
            if tracing:
                tracer.install()
                main_fn = tracer.wrap("cli.main", cli.main)
            t0 = time.perf_counter()
            pass_codes = [_run(main_fn, cmd["argv"]) for cmd in commands]
            times.append(time.perf_counter() - t0)
            if tracing:
                tracer.uninstall()
            traced.append(tracing)
            codes.append(pass_codes)
            digests.append([[_digest(p) for p in cmd["outputs"]] for cmd in commands])
            calibrations.append(calibrator.measure())
            enough = len(times) >= (MIN_TRACED_PASSES if tracer else MIN_PASSES)
            if enough and time.time() + times[-1] + calibrations[-1] > deadline:
                break

    result = {
        "pass_s": times,
        "calibration_s": calibrations,
        "traced": traced,
        "codes": codes,
        "digests": digests,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        warm = [t for t, tr in zip(times[1:], traced[1:]) if not tr]
        hot = [t for t, tr in zip(times, traced) if tr]
        layers = layer_metrics(tracer, len(hot))
        layers["tracing.pass_s"] = (statistics.median(hot), "s")
        layers["tracing.overhead_s"] = (statistics.median(hot) - statistics.median(warm), "s")
        result["layers"] = layers
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
