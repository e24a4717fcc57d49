import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit as hk
import hurstkit.cli as cli
from hurstkit.cli import build_parser, main
from hurstkit.harness import CONFIG_KEYS, CORRUPTIONS, FILTERS, METHODS, build_experiment_spec, parse_config


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


def test_corrupt_ar1_phi_matches_library_bytes(tmp_path):
    """A config cannot give the ar1 corruption's phi, so this checks the flag's path alone."""
    src, out = tmp_path / "src.txt", tmp_path / "out.txt"
    assert run_cli("generate", "--model", "fgn", "--n", "512", "--seed", "3", "--out", str(src)) == 0
    assert run_cli("corrupt", "--kind", "ar1", "--phi", "0.5", "--seed", "4", "--in", str(src), "--out", str(out)) == 0
    with open(src) as fh:
        want = io.StringIO()
        hk.write_series(hk.corrupt(hk.read_series(fh), hk.CorruptionKind("ar1", phi=0.5), seed=4), want)
    assert out.read_bytes() == want.getvalue().encode("ascii")


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


def test_ingest_reads_the_bytes_under_stdin(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0.0 10\r\n0.5 20\r\n1.0 30\r\n")))
    out = tmp_path / "bins.txt"
    assert run_cli("ingest", "--trace", "-", "--mode", "bins", "--bin-width", "0.5", "--out", str(out)) == 0
    assert out.read_text() == "10.0\n20.0\n"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_files_read_as_lf(tmp_path, newline):
    trace = b"".join(b"%d.%d %d\n" % (i // 10, i % 10, 40 + i) for i in range(3000))
    series = b"".join(b"%d.0\n" % (i * 7919 % 1000) for i in range(3000))
    config = b"source = file\npath = %s\nestimator = aggvar\nfilter = none\nfilter = linear\n"
    outputs = []
    for end in (b"\n", newline):
        d = tmp_path / ("lf" if end == b"\n" else "other")
        d.mkdir()
        (d / "t.txt").write_bytes(trace.replace(b"\n", end))
        (d / "s.txt").write_bytes(series.replace(b"\n", end))
        (d / "m.cfg").write_bytes((config % str(d / "s.txt").encode()).replace(b"\n", end))
        assert run_cli("ingest", "--trace", str(d / "t.txt"), "--mode", "bins", "--bin-width", "0.3",
                       "--out", str(d / "bins.txt")) == 0
        assert run_cli("estimate", "--method", "all", "--in", str(d / "s.txt"), "--out", str(d / "est.csv")) == 0
        assert run_cli("matrix", "--config", str(d / "m.cfg"), "--out", str(d / "m.csv")) == 0
        outputs.append([(d / name).read_bytes() for name in ("bins.txt", "est.csv", "m.csv")])
    assert outputs[0] == outputs[1]


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


def test_estimate_dump_fit_and_out_both_on_stdout(tmp_path, capsys):
    src = tmp_path / "s.txt"
    run_cli("generate", "--model", "fgn", "--n", "4096", "--seed", "5", "--out", str(src))
    capsys.readouterr()
    assert run_cli("estimate", "--method", "aggvar", "--in", str(src), "--out", "-", "--dump-fit", "-") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("method,h,") and lines[1].startswith("aggvar,")
    assert len(lines) > 2 and all(len(line.split()) == 3 for line in lines[2:])


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


@pytest.mark.parametrize(
    "stdin", [io.StringIO, lambda text: io.TextIOWrapper(io.BytesIO(text.encode("ascii")))],
    ids=["text-only", "text-over-bytes"],
)
@pytest.mark.parametrize(
    "text", ["source = iid\nn = 2048\nseed = 3\nestimator = rs\n", "nonsense = 1\n"], ids=["config", "unknown-key"]
)
def test_matrix_reads_its_config_from_stdin_as_from_a_file(tmp_path, capsys, monkeypatch, stdin, text):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text, encoding="ascii")
    code = run_cli("matrix", "--config", str(cfg))
    want = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", stdin(text))
    assert run_cli("matrix", "--config", "-") == code
    assert capsys.readouterr() == want


@pytest.mark.parametrize(
    "argv, text",
    [
        (["estimate", "--method", "rs", "--in", "-"], "".join(f"{i % 13}.5\n" for i in range(200)) + "\u0661.\u0665\n"),
        (["ingest", "--trace", "-", "--mode", "interarrival"], "0.5 40\n\u0662.5 40\n"),
        (["matrix", "--config", "-"], "source = iid\nn = \u0661\u0660\u0660\u0660\nestimator = rs\n"),
    ],
    ids=["estimate", "ingest", "matrix"],
)
def test_text_only_stdin_refuses_non_ascii_as_a_file_does(tmp_path, capsys, monkeypatch, argv, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    assert run_cli(*[str(path) if arg == "-" else arg for arg in argv]) == 2
    want = capsys.readouterr()
    assert "'ascii' codec can't decode byte 0xd9" in want.err
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == want


def test_estimate_all_does_not_import_numpy_ma(tmp_path):
    series = tmp_path / "fgn.txt"
    assert run_cli("generate", "--model", "fgn", "--n", "4096", "--seed", "1", "--out", str(series)) == 0
    script = (
        "import sys; from hurstkit.cli import main; "
        f"code = main(['estimate', '--method', 'all', '--in', {str(series)!r}, '--out', {str(tmp_path / 'h.csv')!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hk.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "False"], done.stderr

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


def test_estimate_all_takes_one_periodogram(tmp_path, capsys, monkeypatch):
    path = tmp_path / "fgn.txt"
    assert run_cli("generate", "--model", "fgn", "--n", "4096", "--seed", "2", "--out", str(path)) == 0
    each = []
    for method in hk.METHOD_ORDER:
        assert run_cli("estimate", "--method", method, "--in", str(path)) == 0
        each.append(capsys.readouterr().out.splitlines()[1])
    taken = []
    compute = hk.estimators.compute_periodogram
    monkeypatch.setattr(hk.estimators, "compute_periodogram", lambda series: taken.append(series) or compute(series))
    assert run_cli("estimate", "--method", "all", "--in", str(path)) == 0
    assert len(taken) == 1
    assert capsys.readouterr().out.splitlines()[1:] == each


def test_estimate_all_reports_the_first_refusal_in_method_order(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(6).standard_normal(1000).tolist()))
    args = ["estimate", "--in", str(path), "--bandwidth", "5"]
    assert run_cli(*args, "--method", "all") == 2
    first = capsys.readouterr().err
    assert run_cli(*args[:3], "--method", "wavelet") == 2  # before lwhittle's bandwidth refusal
    assert capsys.readouterr().err == first == "hurstkit: error: wavelet estimator needs N >= 1024, got 1000\n"


def test_matrix_workers_flag_matches_serial(tmp_path, capsys):
    args = ["matrix", "--source", "iid", "--n", "2048", "--runs", "2", "--seed", "3",
            "--estimator", "rs", "--estimator", "wavelet", "--estimator", "pgram", "--estimator", "lwhittle"]
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
        lambda d: ["estimate", "--method", "all", "--dump-fit", str(d / "fit.txt"),
                   "--in", _write(d / "s.txt", b"".join(b"%d\n" % (i % 7) for i in range(2000)))],
        lambda d: ["estimate", "--method", "lwhittle", "--dump-fit", str(d / "fit.txt"),
                   "--in", _write(d / "s.txt", b"".join(b"%d\n" % (i % 7) for i in range(2000)))],
        lambda d: ["estimate", "--method", "rs", "--out", str(d / "d.txt"), "--dump-fit", str(d / "." / "d.txt"),
                   "--in", _write(d / "s.txt", b"".join(b"%d\n" % (i % 7) for i in range(2000)))],
        lambda d: ["ingest", "--trace", _write(d / "t.txt", b"0.0 40\n0.4 576\n"), "--mode", "bins",
                   "--bin-width", "1e-300"],
        lambda d: ["matrix", "--source", "trace", "--path", _write(d / "t.txt", b"0.0 40\n0.4 576\n"),
                   "--mode", "bins", "--bin-width", "1e-300"],
        # 10**15 values need petabytes, beyond any address space: numpy refuses at once
        lambda d: ["generate", "--model", "iid", "--n", str(10**15)],
        lambda d: ["generate", "--model", "fgn", "--n", str(10**15)],
        lambda d: ["generate", "--model", "ar1", "--n", str(10**15)],
        lambda d: ["generate", "--model", "farima", "--n", str(10**15)],
        lambda d: ["matrix", "--source", "iid", "--n", str(10**15)],
    ],
    ids=["cycles0", "degree0", "sigma0", "config-degree0", "trace-non-ascii", "series-non-ascii",
         "bandwidth-without-lwhittle", "dump-fit-all", "dump-fit-lwhittle", "dump-fit-is-out",
         "ingest-bins-overflow", "matrix-trace-bins-overflow", "iid-1e15", "fgn-1e15", "ar1-1e15",
         "farima-1e15", "matrix-1e15"],
)
def test_fatal_errors_are_one_line(tmp_path, capsys, argv):
    args = argv(tmp_path)
    assert run_cli(*args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hurstkit: error: ")
    assert captured.out == ""
    if str(10**15) in args:
        assert lines[0] == f"hurstkit: error: key 'n': {10**15} points do not fit in memory"


_BEYOND_INDEX_ARGV = {
    "iid": lambda d, n: ["generate", "--model", "iid", "--n", str(n)],
    "fgn": lambda d, n: ["generate", "--model", "fgn", "--n", str(n)],
    "ar1": lambda d, n: ["generate", "--model", "ar1", "--n", str(n)],
    "farima": lambda d, n: ["generate", "--model", "farima", "--n", str(n)],
    "matrix-config": lambda d, n: ["matrix", "--config", _write(d / "c.cfg", b"source = fgn\nn = %d\n" % n)],
}


@pytest.mark.parametrize(
    "argv, n",
    [pytest.param(argv, n, id=f"{name}-{n}") for n in (2**60, 10**20) for name, argv in _BEYOND_INDEX_ARGV.items()]
    + [pytest.param(_BEYOND_INDEX_ARGV["farima"], n, id=f"farima-{n}") for n in (2**59, 2**60 - 1)],
)
def test_n_beyond_what_an_array_can_index_names_the_key(tmp_path, capsys, argv, n):
    # 2**60 float64 values take 2**63 bytes, one more than intp holds; farima also
    # draws n warm-up innovations, so its bound is reached from 2**59
    assert run_cli(*argv(tmp_path, n)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hurstkit: error: key 'n': {n} points are more than an array can index\n"


def test_workers_above_the_cap_are_refused_before_any_thread_starts(capsys):
    assert run_cli("matrix", "--source", "iid", "--n", "2048", "--workers", "100000") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hurstkit: error: workers must be <= 64, got 100000\n"


def test_non_ascii_byte_is_reported_at_its_file_offset(tmp_path, capsys):
    # the series file is read whole, so the offset counts from the file's
    # start, not from the start of the 8 KiB chunk that held the byte
    text = "".join(f"{i}.5\n" for i in range(3000)).encode("ascii")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text[:10000] + b"\xe9" + text[10000:])
    assert run_cli("estimate", "--method", "rs", "--in", str(bad)) == 2
    assert capsys.readouterr().err == (
        "hurstkit: error: 'ascii' codec can't decode byte 0xe9 in position 10000: "
        "ordinal not in range(128)\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        lambda path: ["ingest", "--trace", path, "--mode", "interarrival"],
        lambda path: ["matrix", "--source", "trace", "--path", path, "--mode", "bins", "--bin-width", "0.5"],
        lambda path: ["matrix", "--config", path],
    ],
    ids=["ingest", "matrix-trace", "matrix-config"],
)
def test_non_ascii_byte_in_a_trace_or_config_is_reported_at_its_file_offset(tmp_path, capsys, command):
    text = "".join(f"{i}.5 64\n" for i in range(3000)).encode("ascii")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text[:10000] + b"\xe9" + text[10000:])
    assert run_cli(*command(str(bad))) == 2
    assert capsys.readouterr().err == (
        "hurstkit: error: 'ascii' codec can't decode byte 0xe9 in position 10000: "
        "ordinal not in range(128)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--source", "iid", "--n", "x"],
        ["generate", "--model", "iid", "--n", "x"],
        ["corrupt", "--kind", "sine", "--cycles", "x"],
        ["filter", "--kind", "poly", "--degree", "x"],
        ["ingest", "--trace", "missing.txt", "--mode", "bins", "--bin-width", "x"],
    ],
    ids=lambda argv: argv[0],
)
def test_matrix_flag_value_reports_config_parser_message(capsys, argv):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"hurstkit: error: key {argv[-2][2:]!r}: cannot parse 'x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--model", "fgn", "--n", "100", "--d", "0.4"], "key 'd' is not read by source 'fgn'"),
        (["generate", "--model", "fgn", "--n", "100", "--sigma", "5"], "key 'sigma' is not read by source 'fgn'"),
        (["generate", "--model", "ar1", "--n", "100", "--theta", "0.1"], "key 'theta' is not read by source 'ar1'"),
        (["generate", "--model", "ar1", "--n", "50", "--phi", "0.5", "--phi", "0.3"],
         "an ar1 source takes one phi, got 2"),
        (["corrupt", "--kind", "trend", "--phi", "0.5"], "key 'phi' is not read by transform 'linear_trend'"),
        (["corrupt", "--kind", "trend", "--cycles", "3"], "key 'cycles' is not read by transform 'linear_trend'"),
        (["corrupt", "--kind", "ar1", "--cycles", "3"], "key 'cycles' is not read by transform 'ar1'"),
        (["filter", "--kind", "log", "--degree", "4"], "key 'degree' is not read by transform 'log'"),
        (["matrix", "--source", "file", "--path", "{missing}", "--h", "0.9"], "key 'h' is not read by source 'file'"),
        (["ingest", "--mode", "interarrival", "--bin-width", "0.1"],
         "trace mode 'interarrival' reads no bin width ('bin-width')"),
        (["ingest", "--mode", "bins", "--bin-width", "0"], "bin width must be positive and finite, got 0.0"),
        (["ingest", "--mode", "bins", "--bin-width", "nan"], "bin width must be positive and finite, got nan"),
        (["generate", "--model", "farima", "--n", "64", "--phi", "0.1", "--phi", "0.1", "--phi", "0.1"],
         "a farima source takes at most 2 phi, got 3"),
        (["corrupt", "--kind", "ar1", "--phi", "0.5", "--phi", "0.3"], "an ar1 corruption takes one phi, got 2"),
        (["corrupt", "--kind", "ar1", "--phi", "x"], "key 'phi': cannot parse 'x'"),
        (["corrupt", "--kind", "trend", "--seed", "1"], "key 'seed' is not read by transform 'linear_trend'"),
        (["corrupt", "--kind", "sine", "--seed", "2"], "key 'seed' is not read by transform 'sine'"),
        (["corrupt", "--kind", "sine", "--cycles", "3", "--seed", "0"], "key 'seed' is not read by transform 'sine'"),
        (["estimate", "--method", "rs", "--in", "{missing}", "--out", "{missing}.csv", "--dump-fit", "{missing}.csv"],
         "--dump-fit and --out name the same file"),
        (["corrupt", "--kind", "ar1", "--phi", "1.5"], "corruption AR(1) needs |phi| < 1, got 1.5"),
        (["corrupt", "--kind", "ar1", "--phi", "nan"], "corruption AR(1) needs |phi| < 1, got nan"),
        (["generate", "--model", "ar1", "--n", "100", "--phi", "nan"], "AR(1) needs |phi| < 1, got nan"),
        (["generate", "--model", "ar1", "--n", "100", "--sigma", "inf"], "innovation std must be finite, got inf"),
        (["generate", "--model", "farima", "--n", "100", "--theta", "inf"],
         "MA coefficients must be finite, got (inf,)"),
        (["matrix", "--source", "ar1", "--n", "4096", "--phi", "nan"], "AR(1) needs |phi| < 1, got nan"),
        (["matrix", "--source", "farima", "--n", "4096", "--phi", "0.3", "--phi", "nan"],
         "AR(2) stationarity triangle violated: phi=(0.3, nan)"),
    ],
    ids=["fgn-d", "fgn-sigma", "ar1-theta", "ar1-two-phi", "trend-phi", "trend-cycles", "ar1-cycles", "log-degree",
         "file-h", "interarrival-width", "width-0", "width-nan", "farima-three-phi", "corrupt-ar1-two-phi",
         "corrupt-phi-unparsable", "trend-seed", "sine-seed", "sine-cycles-seed-0", "dump-fit-is-out",
         "corrupt-phi-1.5", "corrupt-phi-nan", "ar1-phi-nan", "ar1-sigma-inf", "farima-theta-inf",
         "matrix-ar1-phi-nan", "matrix-farima-phi-nan"],
)
def test_unread_parameters_are_refused_before_the_input_is_read(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.txt")
    io_flags = {"corrupt": ["--in", missing], "filter": ["--in", missing], "ingest": ["--trace", missing]}
    assert run_cli(*[a.format(missing=missing) for a in argv], *io_flags.get(argv[0], [])) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"hurstkit: error: {message}\n")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["matrix", "--source", "iid", "--n", "4096", "--n", "2048"], "n"),
        (["matrix", "--source", "iid", "--n", "2048", "--format", "aligned", "--format", "csv"], "format"),
        (["matrix", "--source", "iid", "--n", "2048", "--out", "a.csv", "--output", "b.csv"], "output"),
        (["generate", "--model", "iid", "--model", "fgn", "--n", "100"], "source"),
        (["generate", "--model", "fgn", "--n", "100", "--h", "0.6", "--h", "0.8"], "h"),
        (["ingest", "--trace", "a.txt", "--trace", "b.txt", "--mode", "interarrival"], "path"),
        (["ingest", "--trace", "a.txt", "--mode", "bins", "--mode", "interarrival"], "mode"),
        (["corrupt", "--kind", "sine", "--cycles", "2", "--cycles", "3", "--in", "s.txt"], "cycles"),
        (["filter", "--kind", "poly", "--degree", "2", "--degree", "3", "--in", "s.txt"], "degree"),
    ],
    ids=["matrix-n", "matrix-format", "matrix-out-output", "generate-model", "generate-h", "ingest-trace",
         "ingest-mode", "corrupt-cycles", "filter-degree"],
)
def test_a_scalar_key_flag_given_twice_is_refused(tmp_path, capsys, monkeypatch, argv, key):
    """As a config file that repeats a scalar key is refused, so is a repeated flag."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"hurstkit: error: key {key!r} given more than once\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, value",
    [
        (["generate", "--model", "fgn", "--n", "64", "--seed", "-3"], -3),
        (["corrupt", "--kind", "trend", "--seed", "-5", "--in", "missing.txt"], -5),
        (["corrupt", "--kind", "ar1", "--seed", "-1", "--in", "missing.txt"], -1),
        (["matrix", "--source", "iid", "--n", "2048", "--seed", "-1", "--out", "m.csv"], -1),
        (["matrix", "--config", "{cfg}"], -2),
    ],
    ids=["generate", "corrupt-trend", "corrupt-ar1", "matrix-flag", "matrix-config"],
)
def test_a_negative_seed_is_refused_before_anything_runs(tmp_path, capsys, monkeypatch, argv, value):
    """Flags and config files share one seed check, which names the key."""
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "c.cfg", b"source = iid\nn = 2048\nseed = -2\noutput = m.csv\n")
    assert run_cli(*[a.format(cfg=cfg) for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"hurstkit: error: key 'seed' must be >= 0, got {value}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


def _write_inputs(d):
    _write(d / "s.txt", b"".join(b"%d\n" % (1 + i % 7) for i in range(256)))
    _write(d / "t.txt", b"".join(b"%d.5 %d\n" % (i, 40 + i % 3) for i in range(64)))


@pytest.mark.parametrize(
    "argv, config",
    [
        (["generate", "--model", "iid", "--n", "100"], "source = iid\nn = 100"),
        (["generate", "--model", "fgn", "--n", "100", "--h", "0.8"], "source = fgn\nn = 100\nh = 0.8"),
        (
            ["generate", "--model", "farima", "--n", "100", "--d", "0.3", "--phi", "0.5", "--phi", "0.2",
             "--theta", "0.1", "--theta", "-0.2", "--sigma", "2"],
            "source = farima\nn = 100\nd = 0.3\nphi = 0.5\nphi = 0.2\ntheta = 0.1\ntheta = -0.2\nsigma = 2",
        ),
        (["generate", "--model", "ar1", "--n", "100", "--phi", "0.5", "--sigma", "0.5"],
         "source = ar1\nn = 100\nphi = 0.5\nsigma = 0.5"),
        (["ingest", "--trace", "{d}/t.txt", "--mode", "bins", "--bin-width", "2", "--skip", "3", "--take", "20"],
         "source = trace\npath = {d}/t.txt\nmode = bins\nbin-width = 2\nskip = 3\ntake = 20"),
        (["ingest", "--trace", "{d}/t.txt", "--mode", "interarrival", "--skip", "1", "--take", "5"],
         "source = trace\npath = {d}/t.txt\nmode = interarrival\nskip = 1\ntake = 5"),
        (["corrupt", "--kind", "sine", "--cycles", "3", "--in", "{d}/s.txt"],
         "source = iid\nn = 100\ncorruption = sine\ncycles = 3"),
        (["corrupt", "--kind", "ar1", "--seed", "4", "--in", "{d}/s.txt"], "source = iid\nn = 100\ncorruption = ar1"),
        (["filter", "--kind", "poly", "--degree", "4", "--in", "{d}/s.txt"],
         "source = iid\nn = 100\nfilter = poly\ndegree = 4"),
        (["filter", "--kind", "linear", "--in", "{d}/s.txt"], "source = iid\nn = 100\nfilter = linear"),
    ],
    ids=["iid", "fgn", "farima", "ar1", "ingest-bins", "ingest-interarrival", "corrupt-sine", "corrupt-ar1",
         "filter-poly", "filter-linear"],
)
def test_flag_form_and_config_form_build_equal_objects(tmp_path, capsys, monkeypatch, argv, config):
    """What each subcommand builds from its flags equals what a config builds from the same keys."""
    _write_inputs(tmp_path)
    built = []
    for name, arg in (("build_source", None), ("corrupt", 1), ("apply_filter", 1)):
        real = getattr(cli, name)

        def record(*args, real=real, arg=arg, **kwargs):
            result = real(*args, **kwargs)
            built.append(result if arg is None else args[arg])
            return result

        monkeypatch.setattr(cli, name, record)
    assert run_cli(*[a.format(d=tmp_path) for a in argv]) == 0
    spec = build_experiment_spec(parse_config(config.format(d=tmp_path)))
    want = {"corrupt": spec.corruptions, "filter": spec.filters}.get(argv[0], (spec.source,))
    assert tuple(built) == want


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


# Independent of the harness's tables: (code, row label) per config vocabulary.
_CORRUPTION_LABELS = {"ar1": "AR(1)", "sine": "Sin", "trend": "Trend"}
_FILTER_LABELS = {"log": "Log", "linear": "Trend", "poly": "Poly"}
_METHOD_NAMES = {"rs": "rs", "aggvar": "aggvar", "pgram": "periodogram", "wavelet": "wavelet",
                 "lwhittle": "local_whittle"}


@settings(max_examples=15, deadline=None)
@given(
    corruptions=st.lists(st.sampled_from(["none", *_CORRUPTION_LABELS]), unique=True),
    filters=st.lists(st.sampled_from(["none", *_FILTER_LABELS]), unique=True),
    estimators=st.lists(st.sampled_from(list(_METHOD_NAMES)), unique=True),
    runs=st.integers(1, 2),
    seed=st.integers(0, 2**63 - 1),
)
def test_config_to_spec_to_csv(tmp_path_factory, corruptions, filters, estimators, runs, seed):
    """A matrix config's CSV has the rows and columns the config names, from flags and from a file alike."""
    d = tmp_path_factory.mktemp("matrix")
    keys = [("source", "iid"), ("n", "2048"), ("runs", str(runs)), ("seed", str(seed))]
    keys += [("corruption", c) for c in corruptions] + [("filter", f) for f in filters]
    keys += [("estimator", e) for e in estimators]
    (d / "exp.cfg").write_text("".join(f"{k} = {v}\n" for k, v in keys) + f"output = {d}/file.csv\n")
    assert run_cli("matrix", "--config", str(d / "exp.cfg")) == 0
    assert run_cli("matrix", *[a for k, v in keys for a in (f"--{k}", v)], "--out", str(d / "flags.csv")) == 0
    csv = (d / "file.csv").read_text()
    assert (d / "flags.csv").read_text() == csv

    methods = [_METHOD_NAMES[e] for e in estimators] or list(hk.METHOD_ORDER)
    header, *rows = csv.splitlines()
    assert header == ",".join(["run", "seed", "kind", "transform"] + [f"{m},{m}_ci" for m in methods])
    per_run = [("corrupt", _CORRUPTION_LABELS[c]) for c in corruptions if c != "none"]
    per_run += [("filter", _FILTER_LABELS[f]) for f in filters if f != "none"]
    if not per_run or "none" in corruptions + filters:
        per_run.insert(0, ("none", "None"))
    want = [(str(run), str(seed + run), kind, label) for run in range(runs) for kind, label in per_run]
    assert [tuple(row.split(",")[:4]) for row in rows] == want
    assert all(row.count(",") == header.count(",") for row in rows)
