import io

import numpy as np
import pytest

import hurstkit as hk
from hurstkit import (
    CellError,
    CorruptionKind,
    EstimatorReport,
    ExperimentSpec,
    FilterKind,
    GeneratorSource,
    MatrixRow,
    ResultMatrix,
    TimeSeries,
    build_experiment_spec,
    export_acf,
    format_matrix,
    parse_config,
    run_matrix,
)
from hurstkit.harness import CORRUPTION_SEED_OFFSET, _materialize_rows


def small_spec(**overrides):
    kwargs = dict(
        source=GeneratorSource(model="fgn", n=4096, hurst=0.7),
        corruptions=(None, CorruptionKind.ar1(), CorruptionKind.sine(), CorruptionKind.linear_trend()),
        estimators=hk.METHOD_ORDER,
        runs=1,
        base_seed=11,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_matrix_shape_mirrors_table_blocks():
    spec = small_spec(runs=3)
    matrix = run_matrix(spec)
    assert len(matrix.rows) == 12  # 3 runs x (none + 3 corruptions)
    assert matrix.methods == hk.METHOD_ORDER
    labels = [r.label for r in matrix.rows[:4]]
    assert labels == ["None", "AR(1)", "Sin", "Trend"]
    assert [r.seed for r in matrix.rows] == [11 + k for k in range(3) for _ in range(4)]
    for idx in range(len(matrix.rows)):
        for method in matrix.methods:
            assert (idx, method) in matrix.cells


def test_spec_validation():
    with pytest.raises(hk.ConfigError):
        small_spec(estimators=())
    with pytest.raises(hk.ConfigError):
        small_spec(estimators=("rs", "bogus"))
    with pytest.raises(hk.ConfigError):
        small_spec(runs=0)


def test_base_series_shared_within_run():
    spec = small_spec()
    base, rows = _materialize_rows(spec, run=0)
    by_label = {row.label: payload for row, payload in rows}
    # the none row is literally the base object
    assert by_label["None"] is base
    # the trend row minus the base reproduces the deterministic corruption
    want = hk.corrupt(base, CorruptionKind.linear_trend()).values
    np.testing.assert_array_equal(by_label["Trend"].values, want)
    # the ar1 row used the documented derived seed
    want_ar1 = hk.corrupt(base, CorruptionKind.ar1(), seed=spec.base_seed + CORRUPTION_SEED_OFFSET)
    np.testing.assert_array_equal(by_label["AR(1)"].values, want_ar1.values)


def test_filter_error_becomes_cell_marker(tmp_path):
    # binned traffic with zeros: the log filter must refuse, not abort
    path = tmp_path / "zeros.txt"
    lines = ["0.05 100\n", "3.45 100\n"]
    rng = np.random.default_rng(0)
    for t in sorted(rng.uniform(4, 2000, 3000)):
        lines.append(f"{t:.6f} {int(rng.integers(40, 1500))}\n")
    path.write_text("".join(sorted(lines, key=lambda l: float(l.split()[0]))), encoding="ascii")
    spec = ExperimentSpec(
        source=hk.TraceSource(path=str(path), mode="bins", bin_width=1.0),
        corruptions=(),
        filters=(None, FilterKind.log(), FilterKind.linear_detrend()),
        estimators=("aggvar",),
    )
    matrix = run_matrix(spec)
    labels = [r.label for r in matrix.rows]
    assert labels == ["None", "Log", "Trend"]
    log_cell = matrix.cells[(1, "aggvar")]
    assert isinstance(log_cell, CellError)
    assert log_cell.code == "NonPositiveData"
    csv = format_matrix(matrix, "csv")
    assert "ERR:NonPositiveData" in csv


def test_estimator_error_becomes_cell_marker():
    spec = ExperimentSpec(
        source=GeneratorSource(model="iid", n=512),  # too short for aggvar
        estimators=("rs", "aggvar"),
    )
    matrix = run_matrix(spec)
    assert isinstance(matrix.cells[(0, "rs")], EstimatorReport)
    err = matrix.cells[(0, "aggvar")]
    assert isinstance(err, CellError)
    assert err.code == "SeriesTooShort"


def test_format_matrix_cell_formatting():
    row = MatrixRow(run=0, seed=5, kind="none", label="None")
    report = EstimatorReport(method="wavelet", hurst=0.707, fit=None, ci95=(0.694, 0.72))
    matrix = ResultMatrix(
        rows=(row,),
        methods=("wavelet",),
        cells={(0, "wavelet"): report},
        source_desc="unit",
    )
    csv = format_matrix(matrix, "csv")
    lines = csv.splitlines()
    assert lines[0] == "run,seed,kind,transform,wavelet,wavelet_ci"
    assert lines[1] == "0,5,none,None,0.707,0.013"
    aligned = format_matrix(matrix, "aligned")
    assert "0.707 +- 0.013" in aligned
    assert aligned.startswith("# unit --- run 0")


def test_format_matrix_error_token():
    row = MatrixRow(run=0, seed=0, kind="filter", label="Log")
    matrix = ResultMatrix(
        rows=(row,),
        methods=("rs",),
        cells={(0, "rs"): CellError(code="NonPositiveData", message="zeros")},
        source_desc="unit",
    )
    csv = format_matrix(matrix, "csv")
    assert "ERR:NonPositiveData" in csv
    with pytest.raises(hk.ConfigError):
        format_matrix(matrix, "html")


def test_matrix_deterministic_and_parallel_equivalent():
    spec = small_spec(estimators=("rs", "aggvar"))
    a = format_matrix(run_matrix(spec), "csv")
    b = format_matrix(run_matrix(spec), "csv")
    assert a == b
    c = format_matrix(run_matrix(small_spec(estimators=("rs", "aggvar"), workers=4)), "csv")
    assert a == c


def test_export_acf_format():
    rng = np.random.default_rng(3)
    series = TimeSeries(rng.standard_normal(2000))
    buf = io.StringIO()
    export_acf(series, 1000, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1001
    assert lines[0] == "0 1 1"
    lag, rho, mag = lines[5].split()
    assert int(lag) == 5
    assert abs(float(rho)) == float(mag)


def test_parse_config_round_trip():
    text = """
    # comment
    source = fgn
    n = 4096
    h = 0.7
    runs = 2
    seed = 9
    corruption = none
    corruption = sine   # inline comment
    estimator = rs
    estimator = wavelet
    format = csv
    """
    spec = build_experiment_spec(parse_config(text))
    assert isinstance(spec.source, GeneratorSource)
    assert spec.source.n == 4096
    assert spec.runs == 2
    assert spec.base_seed == 9
    assert spec.corruptions == (None, CorruptionKind.sine())
    assert spec.estimators == ("rs", "wavelet")
    # '#' opens a comment only at the start of a line or after whitespace
    mapping = parse_config("path = d#1/s.txt\nn = 4096   # note\n\t# indented\nh = 0.7\t#tab\n")
    assert mapping == {"path": ["d#1/s.txt"], "n": ["4096"], "h": ["0.7"]}


def test_parse_config_errors():
    with pytest.raises(hk.ConfigError, match="unknown key"):
        parse_config("bogus = 1\n")
    with pytest.raises(hk.ConfigError, match="unknown key 'model'"):
        parse_config("model = fgn\n")  # the old alias of 'source'
    with pytest.raises(hk.ConfigError, match="more than once"):
        parse_config("n = 1\nn = 2\n")
    with pytest.raises(hk.ConfigError):
        parse_config("n 1\n")
    with pytest.raises(hk.ConfigError, match="unknown estimator"):
        build_experiment_spec(parse_config("source = iid\nn = 2048\nestimator = nope\n"))
    with pytest.raises(hk.ConfigError):
        build_experiment_spec(parse_config("source = fgn\n"))  # n missing
    with pytest.raises(hk.ConfigError):
        build_experiment_spec(parse_config("source = trace\nmode = bins\npath = x\n"))  # width missing


def test_file_source_with_skip_take(tmp_path):
    series = hk.gen_iid_gaussian(3000, 13)
    path = tmp_path / "series.txt"
    with open(path, "w", encoding="ascii") as fh:
        hk.write_series(series, fh)
    spec = build_experiment_spec(
        parse_config(f"source = file\npath = {path}\nskip = 500\ntake = 2048\nestimator = rs\n")
    )
    assert isinstance(spec.source, hk.FileSource)
    loaded = spec.source.make(seed=0)
    np.testing.assert_array_equal(loaded.values, series.values[500:2548])
    matrix = run_matrix(spec)
    cell = matrix.cells[(0, "rs")]
    assert isinstance(cell, EstimatorReport)
    assert cell.hurst == pytest.approx(hk.est_rs(loaded).hurst)


@pytest.mark.parametrize("source", ["file", "trace"])
@pytest.mark.parametrize("key", ["skip", "take"])
def test_negative_window_is_rejected(source, key):
    with pytest.raises(hk.ConfigError, match=f"{key} must be >= 0, got -3"):
        build_experiment_spec(parse_config(f"source = {source}\npath = x\n{key} = -3\n"))


def test_estimator_code_aliases():
    spec = build_experiment_spec(
        parse_config("source = iid\nn = 2048\nestimator = pgram\nestimator = lwhittle\n")
    )
    assert spec.estimators == ("periodogram", "local_whittle")
    spec = build_experiment_spec(parse_config("source = iid\nn = 2048\nestimator = all\n"))
    assert spec.estimators == hk.METHOD_ORDER


def test_config_farima_coefficients():
    spec = build_experiment_spec(
        parse_config(
            "source = farima\nn = 2048\nd = 0.4\nphi = 0.5\nphi = 0.2\ntheta = 0.1\nestimator = rs\n"
        )
    )
    series = spec.source.make(seed=7)
    want = hk.gen_farima(hk.FarimaSpec(d=0.4, n=2048, seed=7, ar=(0.5, 0.2), ma=(0.1,)))
    np.testing.assert_array_equal(series.values, want.values)


def test_config_poly_degree_flows_to_filter():
    spec = build_experiment_spec(
        parse_config("source = iid\nn = 2048\nfilter = poly\ndegree = 4\nestimator = rs\n")
    )
    assert spec.filters == (FilterKind.poly_detrend(4),)


def test_config_sine_cycles_flow_to_corruption():
    text = "source = fgn\nn = 4096\nseed = 2\ncorruption = sine\ncorruption = ar1\nestimator = aggvar\n"
    spec = build_experiment_spec(parse_config(text + "cycles = 3\n"))
    assert spec.corruptions == (CorruptionKind(name="sine", cycles=3), CorruptionKind(name="ar1", cycles=3))
    default = format_matrix(run_matrix(build_experiment_spec(parse_config(text))))
    three = format_matrix(run_matrix(spec))
    sin_row = [line for line in three.splitlines() if ",Sin," in line]
    assert len(sin_row) == 1 and sin_row[0] not in default


@pytest.mark.parametrize(
    "body, error, match",
    [
        ("source = fgn\nn = 4096\nh = 1.5\n", hk.BadHurst, "H in"),
        ("source = farima\nn = 4096\nd = 0.7\n", hk.BadHurst, "d in"),
        ("source = farima\nn = 4096\nsigma = 0\n", ValueError, "innovation std"),
        ("source = ar1\nn = 4096\nsigma = 0\n", ValueError, "innovation std"),
        ("source = fgn\nn = 8\n", hk.SeriesTooShort, "N >= 16"),
        ("source = iid\nn = 0\n", hk.SeriesTooShort, "N >= 1"),
    ],
)
def test_generator_parameters_rejected_when_spec_is_built(body, error, match):
    with pytest.raises(error, match=match):
        build_experiment_spec(parse_config(body))


@pytest.mark.parametrize(
    "body, message",
    [
        ("source = fgn\nn = 4096\nd = 0.4\n", "key 'd' is not read by source 'fgn'"),
        ("source = fgn\nn = 4096\nsigma = 5\n", "key 'sigma' is not read by source 'fgn'"),
        ("source = iid\nn = 4096\nphi = 0.5\n", "key 'phi' is not read by source 'iid'"),
        ("source = file\npath = x\nh = 0.9\n", "key 'h' is not read by source 'file'"),
        ("source = file\npath = x\nn = 100\n", "key 'n' is not read by source 'file'"),
        ("source = file\npath = x\nmode = bins\n", "key 'mode' is not read by source 'file'"),
        ("source = fgn\nn = 4096\ncycles = 3\n", "key 'cycles' is not read by source 'fgn'"),
        (
            "source = fgn\nn = 4096\ncorruption = none\ncorruption = ar1\ncorruption = trend\ncycles = 3\n",
            "key 'cycles' is not read by source 'fgn' or transform 'ar1' or transform 'linear_trend'",
        ),
        (
            "source = fgn\nn = 4096\nfilter = log\ndegree = 4\n",
            "key 'degree' is not read by source 'fgn' or transform 'log'",
        ),
        (
            "source = fgn\nn = 4096\ncorruption = sine\ndegree = 4\n",
            "key 'degree' is not read by source 'fgn' or transform 'sine'",
        ),
    ],
    ids=["fgn-d", "fgn-sigma", "iid-phi", "file-h", "file-n", "file-mode", "cycles-alone", "cycles-without-sine",
         "degree-with-log", "degree-with-sine"],
)
def test_unread_parameter_keys_are_refused(body, message):
    with pytest.raises(hk.ConfigError) as exc:
        build_experiment_spec(parse_config(body))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "mode, width, error, message",
    [
        ("bins", 0.0, hk.BadBinWidth, "bin width must be positive and finite, got 0.0"),
        ("bins", -1.0, hk.BadBinWidth, "bin width must be positive and finite, got -1.0"),
        ("bins", float("nan"), hk.BadBinWidth, "bin width must be positive and finite, got nan"),
        ("bins", float("inf"), hk.BadBinWidth, "bin width must be positive and finite, got inf"),
        ("interarrival", 0.1, hk.ConfigError, "trace mode 'interarrival' reads no bin width ('bin-width')"),
    ],
    ids=["zero", "negative", "nan", "inf", "interarrival"],
)
def test_trace_source_checks_its_bin_width_when_built(tmp_path, mode, width, error, message):
    with pytest.raises(error) as exc:
        hk.TraceSource(path=str(tmp_path / "missing.txt"), mode=mode, bin_width=width)
    assert str(exc.value) == message


def test_generator_source_make_and_describe_use_one_spec():
    source = GeneratorSource(model="ar1", n=64)
    assert source.describe() == "64 points AR(1) phi=0.9"
    want = hk.gen_ar1(hk.Ar1Spec(phi=0.9, n=64, seed=5))
    np.testing.assert_array_equal(source.make(5).values, want.values)


def test_vocabularies_match_the_lower_layers():
    from hurstkit.harness import CORRUPTIONS, FILTERS, METHODS
    from hurstkit.transforms import CORRUPTION_NAMES, FILTER_NAMES

    assert tuple(METHODS.labels) == hk.METHOD_ORDER
    assert METHODS("all") == hk.METHOD_ORDER
    assert tuple(name for name in CORRUPTIONS.labels if name) == CORRUPTION_NAMES
    assert tuple(name for name in FILTERS.labels if name) == FILTER_NAMES
    assert CORRUPTIONS("none") == FILTERS("none") == (None,)


def test_config_output_and_format_fields():
    spec = build_experiment_spec(
        parse_config("source = iid\nn = 2048\nestimator = rs\noutput = x.csv\nformat = aligned\n")
    )
    assert spec.output == "x.csv"
    assert spec.fmt == "aligned"
    with pytest.raises(hk.ConfigError):
        build_experiment_spec(parse_config("source = iid\nn = 2048\nestimator = rs\nformat = xml\n"))
