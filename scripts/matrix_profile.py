"""Wall seconds per stage and peak RSS of run_matrix at N = 1e5 and 1e6.

    PYTHONPATH=src python3 scripts/matrix_profile.py [--n 100000 --n 1000000] [--passes 3] [--seed 11]

For each N, a fresh interpreter builds one run of FGN (H = 0.7) with the
rows none/ar1/sine/trend and all five estimators on one worker, the
north star's matrix, and runs it as plain ``run_matrix`` calls: one cold
pass, then ``--passes`` warm ones.  The stages are those of
``scripts/fault_profile.py``: row materialisation, each estimator summed
over its rows, the rest of ``run_matrix`` (``run_matrix_self``, which holds
each row's one periodogram) and the whole pass.  Prints one JSON object
per N, keyed by N: the cold pass's seconds per stage, the median over the
warm passes, and the process's peak RSS (``ru_maxrss``, MiB) after the cold
pass and at the end.  R/S splits its blocks over the CPUs this process may
run on, so the figures depend on them.  It reports and does not gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import fault_profile
import hurstkit.harness as harness


def profile(n: int, passes: int, seed: int) -> dict:
    """The stage seconds and peak RSS of one cold and ``passes`` warm passes in this process."""
    text = (
        f"source = fgn\nn = {n}\nh = 0.7\nruns = 1\nseed = {1000 * seed}\n"
        "corruption = none\ncorruption = ar1\ncorruption = sine\ncorruption = trend\n"
        "estimator = all\nworkers = 1\n"
    )
    spec = harness.build_experiment_spec(harness.parse_config(text))
    cold = fault_profile._pass(spec)
    after_cold = fault_profile._peak_mib()
    warm = [fault_profile._pass(spec) for _ in range(passes)]
    return {
        "cold_s": {name: round(s, 4) for name, s in cold.seconds.items()},
        "warm_s": {name: round(statistics.median(m.seconds[name] for m in warm), 4) for name in cold.seconds},
        "peak_rss_mib": {"after_cold_pass": round(after_cold, 2), "at_end": round(fault_profile._peak_mib(), 2)},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, action="append", help="series length; repeat for several (default 1e5 and 1e6)")
    parser.add_argument("--passes", type=int, default=3, help="warm passes to take the median over")
    parser.add_argument("--seed", type=int, default=11, help="the matrix seed is 1000 times it")
    parser.add_argument("--in-process", action="store_true", help="measure the one --n in this process")
    args = parser.parse_args()
    sizes = args.n or [10**5, 10**6]
    if args.in_process:
        print(json.dumps(profile(sizes[0], args.passes, args.seed)))
        return
    report = {}
    for n in sizes:
        child = subprocess.run(
            [sys.executable, __file__, "--in-process", "--n", str(n), "--passes", str(args.passes),
             "--seed", str(args.seed)],
            capture_output=True, text=True, check=True,
        )
        report[n] = json.loads(child.stdout)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
