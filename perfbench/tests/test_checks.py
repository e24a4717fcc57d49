"""Each output check accepts the program's real output and rejects it once
one value in it is perturbed.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import pytest

import hurstkit as hk
import hurstkit.cli

import calib
import checks
import inputs
from run import account, scaled_passes


def _cli(*argv) -> None:
    assert hurstkit.cli.main([str(a) for a in argv]) == 0


def _cell(text: str, line: int, column: str) -> str:
    lines = text.splitlines()
    return lines[line].split(",")[lines[0].split(",").index(column)]


def _set_cell(text: str, line: int, column: str, value: str) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _change_last_digit(text: str) -> str:
    return text[:-1] + ("1" if text[-1] != "1" else "2")


@pytest.fixture(scope="module")
def fgn_table(tmp_path_factory):
    work = tmp_path_factory.mktemp("fgn")
    out = work / "fgn.csv"
    config = inputs.fgn_matrix_config(seed=3, output=out).replace(f"runs = {inputs.FGN_RUNS}", "runs = 1")
    (work / "fgn.cfg").write_text(config)
    _cli("matrix", "--config", work / "fgn.cfg")
    base = inputs.fgn_matrix_seed(3)
    x = hk.gen_fgn(hk.FgnSpec(hurst=inputs.FGN_HURST, n=inputs.FGN_N, seed=base)).values
    return out.read_text(), base, [checks.periodogram_h(x)]


def _check_fgn(text, base, pgram_h):
    return checks.check_fgn_matrix(text, base, 1, inputs.FGN_HURST, pgram_h)


def test_fgn_matrix_accepts_program_output(fgn_table):
    assert _check_fgn(*fgn_table) == []


def test_fgn_matrix_rejects_changed_trend_wavelet_digit(fgn_table):
    text, base, pgram_h = fgn_table
    changed = _set_cell(text, 4, "wavelet", _change_last_digit(_cell(text, 4, "wavelet")))
    assert any("Trend wavelet" in p for p in _check_fgn(changed, base, pgram_h))


def test_fgn_matrix_rejects_changed_periodogram_digit(fgn_table):
    text, base, pgram_h = fgn_table
    # two units in the last printed place: more than rounding can explain
    moved = f"{float(_cell(text, 1, 'periodogram')) + 0.002:.3g}"
    changed = _set_cell(text, 1, "periodogram", moved)
    assert any("periodogram" in p for p in _check_fgn(changed, base, pgram_h))


@pytest.fixture(scope="module")
def trace_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("trace")
    trace = inputs.packet_trace(seed=5, packets=60_000)
    (work / "trace.txt").write_text(trace.text())
    bins, table = work / "bins.txt", work / "trace.csv"
    _cli("ingest", "--trace", work / "trace.txt", "--mode", "bins", "--bin-width", inputs.BIN_WIDTH_S, "--out", bins)
    (work / "trace.cfg").write_text(inputs.trace_matrix_config(bins, table))
    _cli("matrix", "--config", work / "trace.cfg")
    return bins.read_text(), table.read_text(), trace.expected_bins()


def test_bins_accepts_program_output(trace_outputs):
    bins_text, _, expected = trace_outputs
    assert checks.check_bins(bins_text, expected) == []


def test_bins_rejects_one_changed_bin(trace_outputs):
    bins_text, _, expected = trace_outputs
    lines = bins_text.splitlines()
    lines[17] = repr(float(lines[17]) + 40.0)
    assert checks.check_bins("\n".join(lines) + "\n", expected) != []


def test_trace_matrix_accepts_program_output(trace_outputs):
    _, table, expected = trace_outputs
    assert (expected == 0).any(), "the small trace should have an empty bin"
    assert checks.check_trace_matrix(table, expected) == []


def test_trace_matrix_rejects_changed_linear_wavelet_digit(trace_outputs):
    _, table, expected = trace_outputs
    changed = _set_cell(table, 3, "wavelet", _change_last_digit(_cell(table, 3, "wavelet")))
    assert any("linear-detrend" in p for p in checks.check_trace_matrix(changed, expected))


def test_trace_matrix_rejects_log_row_without_predicted_error(trace_outputs):
    _, table, expected = trace_outputs
    assert checks.check_trace_matrix(table, expected + 1.0) != []


@pytest.fixture(scope="module")
def farima_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("farima")
    series, est, acf = work / "x.txt", work / "est.csv", work / "acf.txt"
    _cli("generate", "--model", "farima", "--d", inputs.FARIMA_D, "--n", 100_000, "--seed", 11, "--out", series)
    _cli("estimate", "--method", "all", "--in", series, "--out", est)
    _cli("acf", "--in", series, "--max-lag", 50, "--out", acf)
    x = hk.gen_farima(hk.FarimaSpec(d=inputs.FARIMA_D, n=100_000, seed=11)).values
    return x, series.read_text(), est.read_text(), acf.read_text()


def test_farima_checks_accept_program_output(farima_outputs):
    x, series, est, acf = farima_outputs
    assert checks.check_series_file(series, x) == []
    assert checks.check_estimates(est, inputs.FARIMA_D + 0.5, checks.periodogram_h(x)) == []
    assert checks.check_acf(acf, checks.autocorrelation(x, 50)) == []


def test_series_file_rejects_one_changed_digit(farima_outputs):
    x, series, _, _ = farima_outputs
    lines = series.splitlines()
    lines[9] = _change_last_digit(lines[9])
    assert checks.check_series_file("\n".join(lines) + "\n", x) != []


def test_estimates_reject_changed_periodogram_digit(farima_outputs):
    x, _, est, _ = farima_outputs
    row = next(line for line in est.splitlines() if line.startswith("periodogram,"))
    h = row.split(",")[1]
    moved = row.replace(f",{h},", f",{float(h) + 3e-6:.6g},", 1)
    assert moved != row
    assert checks.check_estimates(est.replace(row, moved), inputs.FARIMA_D + 0.5, checks.periodogram_h(x)) != []


def test_acf_rejects_one_changed_lag(farima_outputs):
    x, _, _, acf = farima_outputs
    lines = acf.splitlines()
    lag, rho, _ = lines[37].split()
    rho = f"{float(rho) + 1e-6:.10g}"
    lines[37] = f"{lag} {rho} {abs(float(rho)):.10g}"
    assert checks.check_acf("\n".join(lines) + "\n", checks.autocorrelation(x, 50)) != []


def test_pass_whose_output_differs_counts_as_failed():
    codes = [[0, 0]] * 3
    digests = [[["a"], ["b"]], [["a"], ["c"]], [["a"], ["b"]]]
    assert account(codes, digests, {}) == (6, 1)
    assert account(codes, digests, {0: ["bad"]}) == (6, 4)
    assert account([[2, 0]] + codes[1:], digests, {}) == (6, 2)


def test_pass_times_are_scaled_by_the_calibrations_around_them():
    # a pass at reference speed is unchanged; one on a host half as fast is halved
    ref = calib.REFERENCE_S
    result = {"pass_s": [1.0, 3.0], "calibration_s": [ref, ref, 3 * ref]}
    assert scaled_passes(result) == pytest.approx([1.0, 1.5])
