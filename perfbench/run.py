"""hurstkit benchmark: three CLI pipelines timed end to end, plus a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload matrix-fgn --seed 1 --seconds 50 --trace 0

Workloads (see README.md for why each was chosen, and why only the first
two are listed in BENCHMARK.json):

* ``matrix-fgn``      ``matrix`` on FGN H=0.7, N=2**17, 3 runs, corruptions
                      none/ar1/sine/trend, all estimators, ``workers = 1``.
* ``trace-ingest``    ``ingest --mode bins`` of a 1e6-packet trace, then
                      ``matrix --source file`` with filters none/log/linear/poly.
* ``cli-farima-1e6``  ``generate --model farima --d 0.3 --n 1000000``, then
                      ``estimate --method all`` and ``acf --max-lag 1000``.

The inputs are made from ``--seed`` in a scratch directory inside the
checkout and removed at the end.  Within a window of ``--seconds``, worker
processes (``worker.py``) import ``hurstkit.cli`` from ``src/`` and run
the commands in passes; untraced runs use several workers (five for
``matrix-fgn``, four for the others), one after the other, with set-up
samples before the first, after the middle one and after the last.  This process
then checks the outputs and prints, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from calib import Calibrator, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The host's speed drifts by up to 1.8x over tens of seconds, so each
# figure is spread over the whole window: each worker gives one cold
# pass, and set-up is sampled at the start, middle and end.
# Every timed span is also scaled by the host's speed around it (calib.py).
IMPORTTIME_SAMPLES = 3
# every run must end within 180 s; leave room for the checks
WORKER_TIMEOUT_S = 150
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import hurstkit.cli\n"
    "hurstkit.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )


def setup_sample(calibrator: Calibrator) -> tuple[float, float]:
    """(wall, scaled) time a fresh interpreter takes to import the CLI and build its parser."""
    before = calibrator.measure()
    wall = float(_python(["-c", SETUP_CODE], timeout=60).stdout)
    return wall, scaled(wall, before, calibrator.measure())


def scaled_passes(result: dict) -> list[float]:
    """A worker's pass times, each scaled by the calibrations just before and after it."""
    cal = result["calibration_s"]
    return [scaled(t, cal[i], cal[i + 1]) for i, t in enumerate(result["pass_s"])]


def measure_imports() -> dict[str, tuple[float, str]]:
    """Import self time by top-level package, from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        err = _python(["-X", "importtime", "-c", "import hurstkit.cli"], timeout=60).stderr
        by_package: dict[str, float] = {"scipy": 0.0, "numpy": 0.0, "hurstkit": 0.0, "total": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line.split("|")
            try:
                self_us = int(fields[0].split(":")[1])
            except ValueError:
                continue  # the column heading
            package = fields[2].strip().split(".")[0]
            by_package["total"] += self_us / 1e6
            if package in by_package:
                by_package[package] += self_us / 1e6
        runs.append(by_package)
    return {
        f"setup.{name}_import_s": (statistics.median(r[name] for r in runs), "s")
        for name in ("scipy", "numpy", "hurstkit", "total")
    }


class Workload:
    """Commands for one pass, plus the checks of their final outputs."""

    # worker processes per untraced run, each giving one cold pass
    worker_processes = 4

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def commands(self) -> list[dict]:
        raise NotImplementedError

    def check(self) -> dict[int, list[str]]:
        """Problems found per command index (only commands with problems)."""
        raise NotImplementedError


class MatrixFgn(Workload):
    worker_processes = 5  # its short passes leave room for one more cold pass

    def commands(self):
        self.table = self.work / "fgn.csv"
        config = self.work / "fgn.cfg"
        config.write_text(inputs.fgn_matrix_config(self.seed, self.table))
        return [{"argv": ["matrix", "--config", str(config)], "outputs": [str(self.table)]}]

    def check(self):
        import hurstkit as hk

        base = inputs.fgn_matrix_seed(self.seed)
        pgram_h = [
            checks.periodogram_h(hk.gen_fgn(hk.FgnSpec(hurst=inputs.FGN_HURST, n=inputs.FGN_N, seed=base + k)).values)
            for k in range(inputs.FGN_RUNS)
        ]
        text = self.table.read_text()
        problems = checks.check_fgn_matrix(text, base, inputs.FGN_RUNS, inputs.FGN_HURST, pgram_h)
        return {0: problems} if problems else {}


class TraceIngest(Workload):
    def commands(self):
        self.trace = inputs.packet_trace(self.seed)
        trace_file = self.work / "trace.txt"
        trace_file.write_text(self.trace.text())
        self.bins = self.work / "bins.txt"
        self.table = self.work / "trace.csv"
        config = self.work / "trace.cfg"
        config.write_text(inputs.trace_matrix_config(self.bins, self.table))
        ingest = [
            "ingest", "--trace", str(trace_file), "--mode", "bins",
            "--bin-width", repr(inputs.BIN_WIDTH_S), "--out", str(self.bins),
        ]
        return [
            {"argv": ingest, "outputs": [str(self.bins)]},
            {"argv": ["matrix", "--config", str(config)], "outputs": [str(self.table)]},
        ]

    def check(self):
        expected = self.trace.expected_bins()
        found = {
            0: checks.check_bins(self.bins.read_text(), expected),
            1: checks.check_trace_matrix(self.table.read_text(), expected),
        }
        return {k: v for k, v in found.items() if v}


class CliFarima(Workload):
    def commands(self):
        self.series = self.work / "farima.txt"
        self.estimates = self.work / "estimates.csv"
        self.acf = self.work / "acf.txt"
        generate = [
            "generate", "--model", "farima", "--d", repr(inputs.FARIMA_D), "--n", str(inputs.FARIMA_N),
            "--seed", str(inputs.farima_seed(self.seed)), "--out", str(self.series),
        ]
        estimate = ["estimate", "--method", "all", "--in", str(self.series), "--out", str(self.estimates)]
        acf = ["acf", "--in", str(self.series), "--max-lag", str(inputs.ACF_MAX_LAG), "--out", str(self.acf)]
        return [
            {"argv": generate, "outputs": [str(self.series)]},
            {"argv": estimate, "outputs": [str(self.estimates)]},
            {"argv": acf, "outputs": [str(self.acf)]},
        ]

    def check(self):
        import hurstkit as hk

        spec = hk.FarimaSpec(d=inputs.FARIMA_D, n=inputs.FARIMA_N, seed=inputs.farima_seed(self.seed))
        x = hk.gen_farima(spec).values
        found = {
            0: checks.check_series_file(self.series.read_text(), x),
            1: checks.check_estimates(self.estimates.read_text(), inputs.FARIMA_D + 0.5, checks.periodogram_h(x)),
            2: checks.check_acf(self.acf.read_text(), checks.autocorrelation(x, inputs.ACF_MAX_LAG)),
        }
        return {k: v for k, v in found.items() if v}


WORKLOAD_CLASSES = {"matrix-fgn": MatrixFgn, "trace-ingest": TraceIngest, "cli-farima-1e6": CliFarima}


def run_worker(work: Path, commands: list[dict], deadline: float, trace: int) -> dict:
    """Run one worker process until ``deadline`` (a ``time.time()`` value)."""
    plan_file, result_file = work / "plan.json", work / "result.json"
    plan_file.write_text(json.dumps({"commands": commands, "deadline": deadline, "trace": trace}))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_file), str(result_file)],
        cwd=ROOT,
        env={**_env(), "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])},
        stdout=sys.stderr,
        timeout=WORKER_TIMEOUT_S,
        check=True,
    )
    return json.loads(result_file.read_text())


def account(codes: list[list[int]], digests: list, problems: dict[int, list[str]]) -> tuple[int, int]:
    """(attempted, failed) commands over all passes of all workers.

    A command fails when it exits nonzero, when its final output fails a
    check, or when its output in some pass differs from the final one.
    """
    final = digests[-1]
    attempted = failed = 0
    for pass_codes, pass_digests in zip(codes, digests):
        for i, (code, digest) in enumerate(zip(pass_codes, pass_digests)):
            attempted += 1
            if code != 0 or i in problems or digest != final[i] or None in digest:
                failed += 1
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hurstkit" / "cli.py").is_file():
        print(f"perfbench: no hurstkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks regenerate inputs with hurstkit's generators

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOAD_CLASSES[args.workload](work, args.seed)
        commands = workload.commands()
        window_end = time.time() + args.seconds
        if args.trace:
            results = [run_worker(work, commands, window_end, trace=1)]
            metrics = {**measure_imports(), **{k: tuple(v) for k, v in results[0]["layers"].items()}}
        else:
            results = []
            workers = workload.worker_processes
            # set-up is sampled before the first worker, after the middle one and after the last
            sample_after = {(workers - 1) // 2, workers - 1}
            with Calibrator() as calibrator:
                gap_start = time.time()
                setup = [setup_sample(calibrator)]
                gap = time.time() - gap_start
                for j in range(workers):
                    gaps_left = sum(1 for k in sample_after if k >= j)
                    share = (window_end - time.time() - gaps_left * gap) / (workers - j)
                    results.append(run_worker(work, commands, time.time() + share, trace=0))
                    if j in sample_after:
                        setup.append(setup_sample(calibrator))
            passes = [scaled_passes(r) for r in results]
            metrics = {
                "setup_s": (statistics.median(s for _, s in setup), "s"),
                "cold_pass_s": (statistics.median(p[0] for p in passes), "s"),
                "pass_s": (statistics.median(t for p in passes for t in p[1:]), "s"),
                "peak_rss_mib": (max(r["maxrss_kib"] for r in results) / 1024.0, "MiB"),
            }
            print(
                "perfbench: wall (unscaled) medians: "
                f"setup_s {statistics.median(w for w, _ in setup):.4f}, "
                f"cold_pass_s {statistics.median(r['pass_s'][0] for r in results):.4f}, "
                f"pass_s {statistics.median(t for r in results for t in r['pass_s'][1:]):.4f}; "
                f"calibration {statistics.median(c for r in results for c in r['calibration_s']):.4f}",
                file=sys.stderr,
            )
        codes = [c for r in results for c in r["codes"]]
        digests = [d for r in results for d in r["digests"]]

        problems = workload.check()
        for i, found in sorted(problems.items()):
            for problem in found:
                print(f"perfbench: {args.workload} command {i}: {problem}", file=sys.stderr)
        attempted, failed = account(codes, digests, problems)
        print(
            f"perfbench: {args.workload} seed {args.seed}: {len(codes)} passes, "
            f"{attempted} commands, {failed} failed; pass times "
            + " | ".join(" ".join(f"{t:.3f}" for t in r["pass_s"]) for r in results)
            + "; calibrations "
            + " | ".join(" ".join(f"{c:.3f}" for c in r["calibration_s"]) for r in results),
            file=sys.stderr,
        )
        report = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    raise SystemExit(main())
