"""Check every estimator's H and slope_se on the estimate gate's corpus.

    PYTHONPATH=src python3 scripts/estimate_gate.py [--fast] [--dump]

Runs every case of ``tests/gate.py`` (``--fast``: the tier-1 subset
alone) and compares each value with ``tests/gate_values.json``.  Prints,
per estimator value, the largest relative move and the case it came from,
then exits 1 if any move exceeds the gate's bound of 1e-12, a refusal
changed, or a case has no committed value.  ``--dump`` prints the values
measured, in the committed file's format, to document an intended change;
it never writes the committed file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import gate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fast", action="store_true", help="only the cases tier-1 checks")
    parser.add_argument("--dump", action="store_true", help="print the measured values instead of checking")
    args = parser.parse_args()
    cases = gate.FAST if args.fast else gate.CASES
    t0 = time.perf_counter()
    measured = {case: gate.measure(case) for case in cases}
    if args.dump:
        print(gate.dumps(measured), end="")
        return 0
    committed = gate.committed()
    missing = [case for case in cases if case not in committed]
    worst: dict[str, tuple[float, str]] = {}
    for case, got in measured.items():
        for name, move in gate.relative_moves(committed.get(case, {}), got).items():
            if move > worst.get(name, (-1.0, ""))[0]:  # the first case with the largest move
                worst[name] = (move, case)
    for name in sorted(worst):
        move, case = worst[name]
        print(f"{name:26s} {move:.3g}  {case}")
    failed = sorted(name for name, (move, _) in worst.items() if not move <= gate.BOUND)
    print(f"{len(cases)} cases in {time.perf_counter() - t0:.1f} s; bound {gate.BOUND:g}; "
          f"{len(failed)} of these over it; {len(missing)} cases uncommitted")
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
