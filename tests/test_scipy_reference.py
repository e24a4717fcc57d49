"""The numpy-only code paths against the scipy calls they replace.

``import hurstkit.cli`` loads no scipy module: the ACF's FFT length, the
local Whittle minimiser and the AR(1) recursion are written in numpy and
plain Python, and only FARIMA generation imports ``scipy.signal``, on
first use.  Each replacement must give the same bits as its scipy
reference, which these tests keep.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.optimize import minimize_scalar
from scipy.signal import lfilter

import hurstkit as hk
from hurstkit.estimators import _fminbound, _local_whittle_objective, local_whittle_minimize
from hurstkit.series import _fast_len

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_scipy_and_farima_imports_it_on_first_use(tmp_path):
    script = f"""
import sys
import hurstkit.cli
hurstkit.cli.build_parser()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert len(hurstkit.gen_farima(hurstkit.FarimaSpec(d=0.3, n=64, seed=1, ar=(0.5,), ma=(0.2,)))) == 64
out = {str(tmp_path / "farima.txt")!r}
assert hurstkit.cli.main(["generate", "--model", "farima", "--d", "0.3", "--n", "64", "--out", out]) == 0
assert len(open(out).read().split()) == 64
assert "scipy.signal" in sys.modules
"""
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# --- bounded Brent minimiser -------------------------------------------------


def scipy_fminbound(func, lo, hi, xatol, maxiter=500):
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), res.nfev


def whittle_problem(kind: str, n: int, seed: int, bandwidth_share: float):
    if kind == "fgn":
        series = hk.gen_fgn(hk.FgnSpec(hurst=0.5 + 0.49 * (seed % 100) / 100, n=n, seed=seed))
    elif kind == "ar1":
        series = hk.gen_ar1(hk.Ar1Spec(phi=0.9 * math.sin(seed), n=n, seed=seed))
    else:
        series = hk.gen_iid_gaussian(n, seed)
    pgram = hk.periodogram(series)
    nfreq = (n - 1) // 2
    bandwidth = max(8, round(bandwidth_share * nfreq))
    freqs, power = pgram.frequencies[:bandwidth], pgram.power[:bandwidth]
    keep = power > 0.0
    return freqs[keep], power[keep]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["fgn", "iid", "ar1"]),
    log2_n=st.floats(math.log2(1000), 15),
    seed=st.integers(0, 2**32 - 1),
    bandwidth_share=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 1.0]),
)
def test_local_whittle_minimize_matches_scipy_bounded(kind, log2_n, seed, bandwidth_share):
    freqs, power = whittle_problem(kind, int(2**log2_n), seed, bandwidth_share)
    log_lam = np.log(freqs)
    mean_log = log_lam.mean()
    want, _ = scipy_fminbound(lambda h: _local_whittle_objective(h, log_lam, mean_log, power), 0.01, 1.49, 1e-6)
    assert local_whittle_minimize(freqs, power).hex() == want.hex()


@pytest.mark.parametrize(
    "func, lo, hi, xatol",
    [
        (lambda x: x, 0.01, 1.49, 1e-6),  # minimum at the lower bound
        (lambda x: -x, 0.01, 1.49, 1e-6),  # minimum at the upper bound
        (lambda x: 0.0, -3.0, 5.0, 1e-6),  # flat
        (lambda x: (x - 2) * x * (x + 2) ** 2, -3.0, -1.0, 1e-5),
        (lambda x: math.cos(7 * x) + 0.1 * x, 0.0, 10.0, 1e-9),
        (lambda x: 0.0, 2.0, 2.0, 1e-6),  # empty interval
        (lambda x: math.nan, 0.01, 1.49, 1e-6),  # no comparison ever holds
        (lambda x: math.inf, 0.01, 1.49, 1e-6),  # inf - inf in the parabola
        (lambda x: math.nan if x > 0.7 else (x - 0.9) ** 2, 0.01, 1.49, 1e-6),
        (lambda x: 0.0 if x < 0.42 else 1.0, 0.01, 1.49, 1e-6),  # step
    ],
    ids=["at-lo", "at-hi", "flat", "cubic", "multimodal", "point", "nan", "inf", "nan-right", "step"],
)
def test_fminbound_matches_scipy_on_synthetic_objectives(func, lo, hi, xatol):
    want, _ = scipy_fminbound(func, lo, hi, xatol)
    assert _fminbound(func, lo, hi, xatol).hex() == want.hex()


def test_fminbound_stops_at_500_evaluations_like_scipy():
    calls = []

    def func(x):
        calls.append(x)
        return abs(x)

    want, nfev = scipy_fminbound(func, -1.0, 1.0, 0.0)
    assert nfev == 500
    calls.clear()
    assert _fminbound(func, -1.0, 1.0, 0.0).hex() == want.hex()
    assert len(calls) == 500


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        (0.0, math.inf, "Optimization bounds must be finite scalars."),
        (math.nan, 1.0, "Optimization bounds must be finite scalars."),
        (1.0, 0.0, "The lower bound exceeds the upper bound."),
    ],
)
def test_fminbound_refuses_bad_bounds_with_scipys_message(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        scipy_fminbound(abs, lo, hi, 1e-6)
    with pytest.raises(ValueError, match=message):
        _fminbound(abs, lo, hi, 1e-6)


# --- FFT length ---------------------------------------------------------------


def test_fast_len_matches_next_fast_len():
    targets = list(range(1, 2**17 + 1)) + [10**6 + 1, 2 * 10**6 + 3, 4 * 10**6 - 7, 12_345_679, 2**40 + 1]
    assert [_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]


# --- AR(1) recursion ----------------------------------------------------------


def ar1_lfilter(spec: hk.Ar1Spec) -> np.ndarray:
    """The scipy form ``gen_ar1`` replaced: the same draws through lfilter."""
    rng = np.random.default_rng(spec.seed)
    x0 = rng.standard_normal() * spec.sigma / math.sqrt(1.0 - spec.phi**2)
    eps = rng.standard_normal(spec.n - 1) * spec.sigma
    rest, _ = lfilter([1.0], [1.0, -spec.phi], eps, zi=np.array([spec.phi * x0]))
    return np.concatenate(([x0], rest))


@pytest.mark.parametrize("n, sigma", [(1, 0.3), (2, 1.0), (4096, 2.5), (2**17, 0.3)])
@pytest.mark.parametrize("phi", [0.0, 0.5, -0.5, 0.9, -0.9, 0.999, -0.999])
def test_gen_ar1_matches_lfilter_bitwise(phi, n, sigma):
    spec = hk.Ar1Spec(phi=phi, n=n, seed=n + 7, sigma=sigma)
    assert hk.gen_ar1(spec).values.tobytes() == ar1_lfilter(spec).tobytes()
