"""Results do not depend on the BLAS thread count.

OpenBLAS splits a long dot product between its threads, so a sum taken
with ``@`` on a series-length operand rounds differently with one thread
than with two.  The detrends and the log-log fit sum with
``np.add.reduce`` instead; this runs the five estimators and both
detrends at 2**18 points under one and two BLAS threads and requires the
same bits from both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib
import hurstkit as hk
series = hk.gen_fgn(hk.FgnSpec(hurst=0.8, n=2**18, seed=1))
for method in hk.METHOD_ORDER:
    print(hk.estimate(series, method).hurst.hex())
for out in (hk.filter_linear_detrend(series), hk.filter_poly_detrend(series)):
    print(hashlib.sha256(out.values.tobytes()).hexdigest())
"""


def _run(threads: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_estimates_and_detrends_do_not_depend_on_blas_threads():
    one = _run("1")
    assert len(one.split()) == 7
    assert _run("2") == one
