"""The estimate gate: every estimator's H and ``slope_se`` on a fixed corpus,
checked against values committed in ``gate_values.json``.

A case is ``source/N/variant``: six sources (FGN at H = 0.6, 0.8, 0.95,
FARIMA d = 0.3, AR(1) phi = 0.9, iid Gaussian) at N = 1000, 4096, 98183,
2^17 and 1e6, each plain, offset by 1e8 or -3e5, with a constant first
third, corrupted (linear trend, sine, AR(1) noise), filtered (log of the
series shifted to a minimum of 1, linear and degree-10 polynomial removal),
or with ``fit_only=True`` for the three estimators that take it.  Each
estimator runs with its defaults.

The committed values were taken once, as ``float.hex``, from commit
ca85dcc, before any change that spends aim 1's budget.  A change may move each
value by at most ``BOUND`` relative (and must raise the same refusal
where one was raised).  The values are never regenerated to absorb a
drift; an intended change is documented instead.

``tests/test_estimate_gate.py`` checks the cases of ``FAST`` in tier-1,
``scripts/estimate_gate.py`` the whole corpus.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

import hurstkit as hk

VALUES = Path(__file__).resolve().parent / "gate_values.json"
BOUND = 1e-12

SOURCES = ("fgn0.6", "fgn0.8", "fgn0.95", "farima0.3", "ar1", "iid")
SIZES = (1000, 4096, 98183, 2**17, 10**6)
VARIANTS = (
    "plain", "offset+1e8", "offset-3e5", "const-third",
    "trend", "sine", "ar1-noise", "log", "linear", "poly", "fit_only",
)
CASES = tuple(f"{s}/{n}/{v}" for s in SOURCES for n in SIZES for v in VARIANTS)
# every case up to 4096 points, and a few where R/S walks partial groups of long series
FAST = tuple(
    case for case in CASES
    if int(case.split("/")[1]) <= 4096
    or case in ("fgn0.8/98183/plain", "fgn0.8/98183/offset+1e8", "iid/98183/const-third")
)
FIT_ONLY = ("rs", "aggvar", "periodogram")


@lru_cache(maxsize=2)
def _source(name: str, n: int) -> np.ndarray:
    if name.startswith("fgn"):
        return hk.gen_fgn(hk.FgnSpec(hurst=float(name[3:]), n=n, seed=1)).values
    if name == "farima0.3":
        return hk.gen_farima(hk.FarimaSpec(d=0.3, n=n, seed=2)).values
    if name == "ar1":
        return hk.gen_ar1(hk.Ar1Spec(phi=0.9, n=n, seed=3)).values
    return hk.gen_iid_gaussian(n, 4).values


def series(case: str) -> hk.TimeSeries:
    """The case's series."""
    name, n, variant = case.split("/")
    values = _source(name, int(n))
    if variant.startswith("offset"):
        return hk.TimeSeries(values + float(variant[6:]))
    if variant == "const-third":
        values = values.copy()
        values[: values.size // 3] = 3.0
        return hk.TimeSeries(values)
    ts = hk.TimeSeries(values)
    if variant in ("trend", "sine", "ar1-noise"):
        kind = {"trend": hk.CorruptionKind.linear_trend(), "sine": hk.CorruptionKind.sine(),
                "ar1-noise": hk.CorruptionKind.ar1()}[variant]
        return hk.corrupt(ts, kind, seed=5)
    if variant == "log":
        return hk.filter_log(hk.TimeSeries(values - values.min() + 1.0))
    if variant == "linear":
        return hk.filter_linear_detrend(ts)
    if variant == "poly":
        return hk.filter_poly_detrend(ts)
    return ts


def measure(case: str) -> dict[str, list[str | None] | str]:
    """Each estimator's [H, slope_se] as ``float.hex`` (slope_se None without
    a fit), or ``"ERR:<class>"`` where it refuses the series."""
    ts = series(case)
    fit_only = case.endswith("/fit_only")
    out: dict[str, list[str | None] | str] = {}
    for method in FIT_ONLY if fit_only else hk.METHOD_ORDER:
        try:
            report = hk.estimate(ts, method, **({"fit_only": True} if fit_only else {}))
        except hk.HurstkitError as exc:
            out[method] = f"ERR:{type(exc).__name__}"
            continue
        out[method] = [report.hurst.hex(), None if report.fit is None else report.fit.slope_se.hex()]
    return out


def committed() -> dict[str, dict]:
    return json.loads(VALUES.read_text())["cases"]


def relative_moves(want: dict, got: dict) -> dict[str, float]:
    """The relative move of each estimator's H and slope_se, by name
    (``rs.hurst``, ``rs.slope_se``, ...); inf where a refusal or a
    missing fit does not match."""
    moves = {}
    for method in want.keys() | got.keys():
        a, b = want.get(method), got.get(method)
        if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
            moves[f"{method}.hurst"] = 0.0 if a == b else math.inf
            continue
        for name, x, y in zip(("hurst", "slope_se"), a, b):
            if x is None or y is None:
                moves[f"{method}.{name}"] = 0.0 if x == y else math.inf
                continue
            x, y = float.fromhex(x), float.fromhex(y)
            if x == y or (math.isnan(x) and math.isnan(y)):
                moves[f"{method}.{name}"] = 0.0
            else:
                moves[f"{method}.{name}"] = abs(x - y) / abs(x) if x else math.inf
    return moves


def dumps(cases: dict[str, dict]) -> str:
    """The values file's text: one case a line, so a diff names its cases."""
    lines = ",\n".join(f"    {json.dumps(case)}: {json.dumps(values)}" for case, values in cases.items())
    return '{\n  "cases": {\n' + lines + "\n  }\n}\n"
