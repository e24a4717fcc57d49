"""Output checks for the three workloads.

Each check takes the text a command wrote plus values the benchmark
computed on its own, and returns a list of problems (empty when the
output is right).  Expected values come from numpy computations written
here, apart from hurstkit, and from properties the methods must have;
none of them is a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

METHODS = ("rs", "aggvar", "periodogram", "wavelet", "local_whittle")
# Widest deviation from the nominal H seen over 60 FGN and 12 FARIMA seeds
# at these lengths is 0.042 (aggvar); 0.08 leaves about six standard errors.
H_TOLERANCE = 0.08
# The matrix prints H to 3 significant figures, so a value near 0.7 is off
# by at most 5e-4 from the estimate behind it.
CSV_H_TOLERANCE = 6e-4
# `estimate` prints 6 significant figures.
ESTIMATE_H_TOLERANCE = 1e-6
# `acf` prints 10 significant figures; FFT and direct sums agree to ~1e-14.
ACF_TOLERANCE = 1e-9


def parse_values(text: str) -> np.ndarray:
    """Values of a one-number-per-line series file (no comments expected)."""
    return np.array(text.split(), dtype=np.float64)


def periodogram_h(x: np.ndarray, fraction: float = 0.10) -> float:
    """H from the slope of the log-log periodogram over the lowest frequencies.

    I(lambda_j) = |sum_t (x_t - mean) e^{-i t lambda_j}|^2 / (2 pi N) for
    j = 1..floor((N-1)/2), fitted by np.polyfit; H = (1 - slope) / 2.
    """
    n = x.size
    nfreq = (n - 1) // 2
    spec = np.fft.rfft(x - x.mean())[1 : nfreq + 1]
    power = np.abs(spec) ** 2 / (2.0 * math.pi * n)
    lam = 2.0 * math.pi * np.arange(1, nfreq + 1) / n
    keep = power > 0.0
    lam, power = lam[keep], power[keep]
    used = max(3, int(fraction * lam.size))
    slope = np.polyfit(np.log(lam[:used]), np.log(power[:used]), 1)[0]
    return (1.0 - slope) / 2.0


def parse_matrix_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def _matrix_header() -> list[str]:
    header = ["run", "seed", "kind", "transform"]
    for m in METHODS:
        header += [m, f"{m}_ci"]
    return header


def _as_h(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _check_layout(header, rows, expected_rows) -> list[str]:
    problems = []
    if header != _matrix_header():
        problems.append(f"unexpected header {header}")
    keys = [(r.get("run"), r.get("seed"), r.get("kind"), r.get("transform")) for r in rows]
    if keys != expected_rows:
        problems.append(f"row keys {keys} != expected {expected_rows}")
    return problems


def check_fgn_matrix(text: str, base_seed: int, runs: int, nominal_h: float, pgram_h: list[float]) -> list[str]:
    """`matrix` on FGN with corruptions none/ar1/sine/trend.

    ``pgram_h[k]`` is :func:`periodogram_h` of run k's clean series.
    """
    header, rows = parse_matrix_csv(text)
    expected = []
    for k in range(runs):
        for kind, label in (("none", "None"), ("corrupt", "AR(1)"), ("corrupt", "Sin"), ("corrupt", "Trend")):
            expected.append((str(k), str(base_seed + k), kind, label))
    problems = _check_layout(header, rows, expected)
    if problems:
        return problems
    for row in rows:
        for m in METHODS:
            if _as_h(row[m]) is None:
                problems.append(f"run {row['run']} {row['transform']}: {m} cell {row[m]!r} is not a number")
    if problems:
        return problems
    for k in range(runs):
        clean, trend = rows[4 * k], rows[4 * k + 3]
        for m in METHODS:
            if abs(float(clean[m]) - nominal_h) > H_TOLERANCE:
                problems.append(f"run {k}: clean {m} H {clean[m]} not within {H_TOLERANCE} of {nominal_h}")
        # two vanishing moments annihilate the ramp on every clean coefficient
        if (trend["wavelet"], trend["wavelet_ci"]) != (clean["wavelet"], clean["wavelet_ci"]):
            problems.append(f"run {k}: Trend wavelet {trend['wavelet']} != None wavelet {clean['wavelet']}")
        if abs(float(clean["periodogram"]) - pgram_h[k]) > CSV_H_TOLERANCE:
            problems.append(f"run {k}: periodogram H {clean['periodogram']} != independent {pgram_h[k]:.6f}")
    return problems


def check_bins(text: str, expected: np.ndarray) -> list[str]:
    """`ingest --mode bins` output against a bincount of the generated packets."""
    try:
        got = parse_values(text)
    except ValueError as exc:
        return [f"bins file does not parse: {exc}"]
    if got.shape != expected.shape:
        return [f"{got.size} bins, expected {expected.size}"]
    bad = np.flatnonzero(got != expected)
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} bins differ, first at index {i}: {got[i]!r} != {expected[i]!r}"]
    return []


def check_trace_matrix(text: str, bins: np.ndarray) -> list[str]:
    """`matrix --source file` over the bins with filters none/log/linear/poly."""
    header, rows = parse_matrix_csv(text)
    expected = [
        ("0", "0", "none", "None"),
        ("0", "0", "filter", "Log"),
        ("0", "0", "filter", "Trend"),
        ("0", "0", "filter", "Poly"),
    ]
    problems = _check_layout(header, rows, expected)
    if problems:
        return problems
    has_zero = bool((bins <= 0.0).any())
    for row in rows:
        for m in METHODS:
            cell = row[m]
            if row["transform"] == "Log" and has_zero:
                if cell != "ERR:NonPositiveData":
                    problems.append(f"Log {m} is {cell!r} although a bin is empty")
            elif _as_h(cell) is None:
                problems.append(f"{row['transform']} {m} cell {cell!r} is not a number")
    if problems:
        return problems
    clean, linear = rows[0], rows[2]
    if (linear["wavelet"], linear["wavelet_ci"]) != (clean["wavelet"], clean["wavelet_ci"]):
        problems.append(f"linear-detrend wavelet {linear['wavelet']} != None wavelet {clean['wavelet']}")
    ref = periodogram_h(bins)
    if abs(float(clean["periodogram"]) - ref) > CSV_H_TOLERANCE:
        problems.append(f"periodogram H {clean['periodogram']} != independent {ref:.6f}")
    return problems


def check_series_file(text: str, expected: np.ndarray) -> list[str]:
    """Every line reads back to the generated value and prints back to itself."""
    lines = text.splitlines()
    if len(lines) != expected.size:
        return [f"{len(lines)} lines, expected {expected.size}"]
    try:
        got = np.array(lines, dtype=np.float64)
    except ValueError as exc:
        return [f"series file does not parse: {exc}"]
    bad = np.flatnonzero(got != expected)
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} values differ, first at line {i + 1}: {lines[i]} != {expected[i]!r}"]
    for i, (line, value) in enumerate(zip(lines, got.tolist())):
        if repr(value) != line:
            return [f"line {i + 1}: {line!r} does not print back as itself ({value!r})"]
    return []


def check_estimates(text: str, nominal_h: float, pgram_h: float) -> list[str]:
    """`estimate --method all` table: every method near nominal, pgram independent."""
    lines = text.splitlines()
    if not lines or lines[0] != "method,h,ci_lo,ci_hi,slope,intercept,slope_se,fit_points,notes":
        return [f"unexpected header {lines[:1]}"]
    rows = [line.split(",", 2) for line in lines[1:]]
    methods = tuple(r[0] for r in rows)
    if methods != METHODS or any(len(r) != 3 for r in rows):
        return [f"methods {methods} != {METHODS}"]
    problems = []
    for method, h_text, _ in rows:
        h = _as_h(h_text)
        if h is None or abs(h - nominal_h) > H_TOLERANCE:
            problems.append(f"{method} H {h_text} not within {H_TOLERANCE} of {nominal_h}")
        elif method == "periodogram" and abs(h - pgram_h) > ESTIMATE_H_TOLERANCE:
            problems.append(f"periodogram H {h_text} != independent {pgram_h:.8f}")
    return problems


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation by direct sums, lag 0..max_lag."""
    c = x - x.mean()
    n = c.size
    acov = np.array([np.dot(c[: n - k], c[k:]) for k in range(max_lag + 1)]) / n
    return acov / acov[0]


def check_acf(text: str, rho: np.ndarray) -> list[str]:
    """`acf` table 'lag rho |rho|' against direct autocorrelation sums."""
    lines = text.splitlines()
    if len(lines) != rho.size:
        return [f"{len(lines)} lags, expected {rho.size}"]
    problems = []
    for k, line in enumerate(lines):
        fields = line.split()
        if len(fields) != 3 or fields[0] != str(k):
            problems.append(f"line {k + 1}: malformed {line!r}")
            break
        r, a = float(fields[1]), float(fields[2])
        if k == 0 and r != 1.0:
            problems.append(f"rho(0) is {fields[1]}, not 1")
        if abs(r - rho[k]) > ACF_TOLERANCE or a != abs(r):
            problems.append(f"lag {k}: {fields[1]} {fields[2]} != direct {rho[k]:.10g}")
            break
    return problems
