import argparse
import io

import numpy as np
import pytest

import hurstkit as hk
from hurstkit.cli import build_parser, main
from hurstkit.harness import CONFIG_KEYS, CORRUPTIONS, FILTERS, METHODS


def run_cli(*args):
    return main(list(args))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "hurstkit" in capsys.readouterr().out


def test_generate_and_estimate_round_trip(tmp_path, capsys):
    out = tmp_path / "fgn.txt"
    assert run_cli("generate", "--model", "fgn", "--h", "0.7", "--n", "4096",
                   "--seed", "1", "--out", str(out)) == 0
    with open(out) as fh:
        series = hk.read_series(fh)
    assert len(series) == 4096

    assert run_cli("estimate", "--method", "all", "--in", str(out)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("method,h,")
    assert len(lines) == 6
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == list(hk.METHOD_ORDER)
    h_vals = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert abs(h_vals["wavelet"] - 0.7) < 0.12


def test_generate_matches_library(tmp_path):
    cases = [
        (["--model", "iid"], hk.gen_iid_gaussian(100, 7)),
        (["--model", "fgn", "--h", "0.8"], hk.gen_fgn(hk.FgnSpec(hurst=0.8, n=100, seed=7))),
        (
            ["--model", "farima", "--d", "0.3", "--sigma", "2"],
            hk.gen_farima(hk.FarimaSpec(d=0.3, n=100, seed=7, sigma=2.0)),
        ),
        (
            ["--model", "ar1", "--phi", "0.5", "--sigma", "0.5"],
            hk.gen_ar1(hk.Ar1Spec(phi=0.5, n=100, seed=7, sigma=0.5)),
        ),
        (["--model", "ar1"], hk.gen_ar1(hk.Ar1Spec(phi=0.9, n=100, seed=7))),
    ]
    out = tmp_path / "series.txt"
    for flags, want in cases:
        assert run_cli("generate", *flags, "--n", "100", "--seed", "7", "--out", str(out)) == 0
        with open(out) as fh:
            series = hk.read_series(fh)
        assert np.array_equal(series.values, want.values), flags


def test_corrupt_and_filter_commands(tmp_path):
    src = tmp_path / "src.txt"
    run_cli("generate", "--model", "iid", "--n", "2000", "--seed", "3", "--out", str(src))
    corrupted = tmp_path / "corr.txt"
    assert run_cli("corrupt", "--kind", "trend", "--in", str(src), "--out", str(corrupted)) == 0
    with open(src) as fh:
        base = hk.read_series(fh)
    with open(corrupted) as fh:
        got = hk.read_series(fh)
    residual = got.values - base.values
    assert residual.std() == pytest.approx(base.stats.std, rel=1e-9)

    detrended = tmp_path / "flat.txt"
    assert run_cli("filter", "--kind", "linear", "--in", str(corrupted), "--out", str(detrended)) == 0
    with open(detrended) as fh:
        flat = hk.read_series(fh)
    want = hk.filter_linear_detrend(base).values
    np.testing.assert_allclose(flat.values, want, atol=1e-8)


def test_filter_log_error_exit_code(tmp_path, capsys):
    src = tmp_path / "zeros.txt"
    src.write_text("1.0\n0.0\n2.0\n", encoding="ascii")
    code = run_cli("filter", "--kind", "log", "--in", str(src), "--out", "-")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_ingest_modes(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("0.0 10\n0.5 20\n1.0 30\n2.5 40\n", encoding="ascii")
    out = tmp_path / "bins.txt"
    assert run_cli("ingest", "--trace", str(trace), "--mode", "bins",
                   "--bin-width", "1.0", "--out", str(out)) == 0
    with open(out) as fh:
        bins = hk.read_series(fh)
    assert bins.values.tolist() == [30.0, 30.0, 40.0]

    out2 = tmp_path / "gaps.txt"
    assert run_cli("ingest", "--trace", str(trace), "--mode", "interarrival",
                   "--skip", "1", "--out", str(out2)) == 0
    with open(out2) as fh:
        gaps = hk.read_series(fh)
    assert gaps.values.tolist() == [0.5, 1.5]

    assert run_cli("ingest", "--trace", str(trace), "--mode", "bins", "--out", "-") == 2
    assert "bin-width" in capsys.readouterr().err


def test_ingest_from_stdin(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.0 10\n0.5 20\n1.0 30\n2.5 40\n"))
    out = tmp_path / "gaps.txt"
    assert run_cli("ingest", "--trace", "-", "--mode", "interarrival", "--take", "2", "--out", str(out)) == 0
    with open(out) as fh:
        assert hk.read_series(fh).values.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("flag", ["--skip", "--take"])
def test_ingest_rejects_negative_window(tmp_path, capsys, flag):
    trace = tmp_path / "trace.txt"
    trace.write_text("0.0 10\n0.5 20\n1.0 30\n", encoding="ascii")
    assert run_cli("ingest", "--trace", str(trace), "--mode", "interarrival", flag, "-1") == 2
    err = capsys.readouterr().err
    assert f"{flag[2:]} must be >= 0, got -1" in err
    assert len(err.strip().splitlines()) == 1


def test_acf_command(tmp_path, capsys):
    src = tmp_path / "s.txt"
    run_cli("generate", "--model", "iid", "--n", "500", "--seed", "2", "--out", str(src))
    assert run_cli("acf", "--in", str(src), "--max-lag", "10") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "0 1 1"


def test_estimate_dump_fit(tmp_path):
    src = tmp_path / "s.txt"
    run_cli("generate", "--model", "fgn", "--n", "4096", "--seed", "5", "--out", str(src))
    dump = tmp_path / "fit.txt"
    assert run_cli("estimate", "--method", "aggvar", "--in", str(src),
                   "--out", str(tmp_path / "est.csv"), "--dump-fit", str(dump)) == 0
    rows = [line.split() for line in dump.read_text().splitlines()]
    assert all(len(r) == 3 for r in rows)
    flags = {r[2] for r in rows}
    assert flags <= {"0", "1"} and "1" in flags


def test_matrix_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "source = fgn\nn = 4096\nh = 0.7\nruns = 1\nseed = 4\n"
        "corruption = none\ncorruption = trend\nestimator = rs\nestimator = aggvar\n",
        encoding="ascii",
    )
    assert run_cli("matrix", "--config", str(cfg)) == 0
    out1 = capsys.readouterr().out
    lines = out1.strip().splitlines()
    assert lines[0] == "run,seed,kind,transform,rs,rs_ci,aggvar,aggvar_ci"
    assert len(lines) == 3

    # flag override: different seed changes the numbers deterministically
    assert run_cli("matrix", "--config", str(cfg), "--seed", "5") == 0
    out2 = capsys.readouterr().out
    assert out1 != out2
    assert run_cli("matrix", "--config", str(cfg), "--seed", "5") == 0
    assert capsys.readouterr().out == out2


def test_matrix_aligned_format(tmp_path, capsys):
    assert run_cli(
        "matrix", "--source", "iid", "--n", "2048", "--runs", "1", "--seed", "0",
        "--estimator", "rs", "--format", "aligned",
    ) == 0
    out = capsys.readouterr().out
    assert "Transform" in out and "R/S" in out


def test_matrix_bad_config_exit(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="ascii")
    assert run_cli("matrix", "--config", str(cfg)) == 2
    assert "error" in capsys.readouterr().err


def test_generate_farima_with_coefficients(tmp_path):
    out = tmp_path / "farima.txt"
    assert run_cli(
        "generate", "--model", "farima", "--d", "0.3", "--phi", "0.5", "--phi", "0.2",
        "--theta", "0.1", "--n", "256", "--seed", "9", "--out", str(out),
    ) == 0
    with open(out) as fh:
        series = hk.read_series(fh)
    want = hk.gen_farima(hk.FarimaSpec(d=0.3, n=256, seed=9, ar=(0.5, 0.2), ma=(0.1,)))
    assert np.array_equal(series.values, want.values)


def test_estimate_bandwidth_flag(tmp_path, capsys):
    src = tmp_path / "s.txt"
    run_cli("generate", "--model", "iid", "--n", "2000", "--seed", "1", "--out", str(src))
    assert run_cli("estimate", "--method", "lwhittle", "--in", str(src), "--bandwidth", "64") == 0
    out = capsys.readouterr().out
    assert "bandwidth=64" in out
    # refused before the input is read
    assert run_cli("estimate", "--method", "rs", "--in", str(tmp_path / "none.txt"), "--bandwidth", "64") == 2
    assert capsys.readouterr().err == "hurstkit: error: --bandwidth applies only to --method lwhittle or all\n"


def test_matrix_workers_flag_matches_serial(tmp_path, capsys):
    args = ["matrix", "--source", "iid", "--n", "2048", "--runs", "2", "--seed", "3",
            "--estimator", "rs", "--estimator", "wavelet"]
    assert run_cli(*args) == 0
    serial = capsys.readouterr().out
    assert run_cli(*args, "--workers", "4") == 0
    assert capsys.readouterr().out == serial


def _write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["corrupt", "--kind", "sine", "--cycles", "0", "--in", _write(d / "s.txt", b"1\n2\n3\n")],
        lambda d: ["filter", "--kind", "poly", "--degree", "0", "--in", _write(d / "s.txt", b"1\n2\n3\n")],
        lambda d: ["generate", "--model", "farima", "--sigma", "0", "--n", "100"],
        lambda d: ["matrix", "--config", _write(d / "c.cfg", b"source = iid\nn = 2048\nfilter = poly\ndegree = 0\n")],
        lambda d: ["ingest", "--trace", _write(d / "t.txt", b"0.5 64\n\xc3\xa9 1\n"), "--mode", "interarrival"],
        lambda d: ["estimate", "--method", "rs", "--in", _write(d / "s.txt", b"1\n\xff\n")],
        lambda d: ["estimate", "--method", "rs", "--bandwidth", "64",
                   "--in", _write(d / "s.txt", b"".join(b"%d\n" % (i % 7) for i in range(200)))],
    ],
    ids=["cycles0", "degree0", "sigma0", "config-degree0", "trace-non-ascii", "series-non-ascii",
         "bandwidth-without-lwhittle"],
)
def test_fatal_errors_are_one_line(tmp_path, capsys, argv):
    assert run_cli(*argv(tmp_path)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hurstkit: error: ")
    assert captured.out == ""


def test_matrix_flag_value_reports_config_parser_message(capsys):
    assert run_cli("matrix", "--source", "iid", "--n", "x") == 2
    assert capsys.readouterr().err == "hurstkit: error: key 'n': cannot parse 'x'\n"


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[name]


def test_every_config_key_has_a_matrix_flag():
    flags = {flag for action in _subparser("matrix")._actions for flag in action.option_strings}
    assert {f"--{key}" for key in CONFIG_KEYS} <= flags


@pytest.mark.parametrize(
    "command, flag, vocabulary",
    [("corrupt", "--kind", CORRUPTIONS), ("filter", "--kind", FILTERS), ("estimate", "--method", METHODS)],
)
def test_subcommands_accept_every_config_code(command, flag, vocabulary):
    sub = _subparser(command)
    for code in vocabulary.names:
        if code != "none":  # names the untransformed matrix row, not a transform
            assert getattr(sub.parse_args([flag, code]), flag[2:]) == code


def test_estimate_accepts_long_method_names(tmp_path, capsys):
    src = tmp_path / "s.txt"
    run_cli("generate", "--model", "fgn", "--n", "4096", "--seed", "1", "--out", str(src))
    assert run_cli("estimate", "--method", "pgram", "--in", str(src)) == 0
    short = capsys.readouterr().out
    assert run_cli("estimate", "--method", "periodogram", "--in", str(src)) == 0
    assert capsys.readouterr().out == short


def test_matrix_degree_and_cycles_flags_match_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "source = fgn\nn = 4096\nseed = 3\ncorruption = sine\nfilter = poly\n"
        "cycles = 3\ndegree = 4\nestimator = aggvar\n",
        encoding="ascii",
    )
    assert run_cli("matrix", "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run_cli(
        "matrix", "--source", "fgn", "--n", "4096", "--seed", "3", "--corruption", "sine",
        "--filter", "poly", "--cycles", "3", "--degree", "4", "--estimator", "aggvar",
    ) == 0
    assert capsys.readouterr().out == from_config
    assert run_cli("matrix", "--config", str(cfg), "--cycles", "10", "--degree", "10") == 0
    assert capsys.readouterr().out != from_config
