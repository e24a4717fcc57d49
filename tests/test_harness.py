import io
import sys
import weakref

import numpy as np
import pytest

import hurstkit as hk
import hurstkit.estimators as estimators
import hurstkit.harness as harness
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
from hurstkit.harness import CORRUPTION_SEED_OFFSET, _materialize_rows, cast_config
from hurstkit.series import _MAX_POINTS


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


def test_block_estimator_cells_fall_back_like_the_full_estimators():
    spec = ExperimentSpec(source=GeneratorSource(model="iid", n=1000), estimators=("rs", "aggvar"), runs=2)
    matrix = run_matrix(spec)
    for idx, row in enumerate(matrix.rows):
        (_, series), = _materialize_rows(spec, row.run)[1]
        for method, fn in (("rs", hk.est_rs), ("aggvar", hk.est_aggvar)):
            cell, full = matrix.cells[(idx, method)], fn(series)
            assert cell.hurst.hex() == full.hurst.hex()
            assert cell.diagnostics["fit_range"] == "full(fallback)"
            assert cell.diagnostics == full.diagnostics


def test_format_matrix_cell_formatting():
    # two runs; an R/S column as wide as its widest H text, a Wavelet column as
    # wide as its ERR: cell; CIs where present; a heading and header per run
    def report(method, hurst, ci95=None):
        return EstimatorReport(method=method, hurst=hurst, fit=None, ci95=ci95)

    rows = tuple(
        MatrixRow(run=run, seed=5 + run, kind=kind, label=label)
        for run in (0, 1)
        for kind, label in (("none", "None"), ("filter", "Log"))
    )
    cells = {
        (0, "rs"): report("rs", 0.51234),
        (0, "wavelet"): report("wavelet", 0.707, (0.694, 0.72)),
        (1, "rs"): report("rs", 0.5),
        (1, "wavelet"): CellError(code="NonPositiveData", message="zeros"),
        (2, "rs"): report("rs", 1.0625),
        (2, "wavelet"): report("wavelet", 0.65, (0.6, 0.7)),
        (3, "rs"): report("rs", 0.8),
        (3, "wavelet"): report("wavelet", 0.9),
    }
    matrix = ResultMatrix(rows=rows, methods=("rs", "wavelet"), cells=cells, source_desc="unit")
    assert format_matrix(matrix, "csv") == (
        "run,seed,kind,transform,rs,rs_ci,wavelet,wavelet_ci\n"
        "0,5,none,None,0.512,,0.707,0.013\n"
        "0,5,filter,Log,0.5,,ERR:NonPositiveData,\n"
        "1,6,none,None,1.06,,0.65,0.05\n"
        "1,6,filter,Log,0.8,,0.9,\n"
    )
    assert format_matrix(matrix, "aligned") == (
        "# unit --- run 0 (seed 5)\n"
        "Transform  R/S    Wavelet\n"
        "None       0.512  0.707 +- 0.013\n"
        "Log        0.5    ERR:NonPositiveData\n"
        "# unit --- run 1 (seed 6)\n"
        "Transform  R/S    Wavelet\n"
        "None       1.06   0.65 +- 0.05\n"
        "Log        0.8    0.9\n"
    )


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


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_drops_each_runs_rows_before_building_the_next(monkeypatch, workers):
    spec = small_spec(runs=3, workers=workers)
    materialize = harness._materialize_rows
    refs: list[list[weakref.ref]] = []  # each run's row series
    alive_at_build: list[int] = []  # earlier runs' series still alive when each run's rows were built

    def tracked(spec, run):
        alive_at_build.append(sum(ref() is not None for run_refs in refs for ref in run_refs))
        base, rows = materialize(spec, run)
        refs.append([weakref.ref(base)] + [weakref.ref(p) for _, p in rows if isinstance(p, TimeSeries)])
        return base, rows

    monkeypatch.setattr(harness, "_materialize_rows", tracked)
    matrix = run_matrix(spec)
    assert alive_at_build == [0, 0, 0]
    assert [len(run_refs) for run_refs in refs] == [5, 5, 5]  # the base, then its four rows
    assert all(ref() is None for run_refs in refs for ref in run_refs)
    monkeypatch.undo()
    assert format_matrix(matrix) == format_matrix(run_matrix(small_spec(runs=3)))


def test_parallel_matrix_matches_serial_under_fast_thread_switching():
    # more threads than cores, switching every microsecond, over three runs' row dicts
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_matrix(small_spec(runs=3, workers=4))
    finally:
        sys.setswitchinterval(switch)
    assert len(parallel.cells) == 3 * 4 * len(hk.METHOD_ORDER)
    assert format_matrix(parallel) == format_matrix(run_matrix(small_spec(runs=3)))


def test_each_row_takes_one_periodogram_at_any_worker_count(monkeypatch):
    taken = []  # the length of each series a periodogram is taken of, from any thread
    compute = estimators.compute_periodogram
    monkeypatch.setattr(estimators, "compute_periodogram", lambda series: taken.append(len(series)) or compute(series))
    texts = set()
    for workers in (1, 2, 4):
        spec = small_spec(source=GeneratorSource(model="fgn", n=2048, hurst=0.7), runs=3, workers=workers)
        for _ in range(10):
            texts.add(format_matrix(run_matrix(spec)))
            assert taken == [2048] * 12, workers  # 3 runs x 4 rows, each with both spectral cells
            taken.clear()
    assert len(texts) == 1


def test_a_rows_cells_are_separate_pool_jobs_but_its_spectral_cells_one(monkeypatch):
    handed = []

    class Pool(harness.ThreadPoolExecutor):
        def map(self, fn, jobs):
            handed.append(list(jobs))
            return super().map(fn, handed[-1])

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
    spec = small_spec(corruptions=(None,), runs=2, workers=2)
    assert format_matrix(run_matrix(spec)) == format_matrix(run_matrix(small_spec(corruptions=(None,), runs=2)))
    assert handed == [
        [(idx, ("rs",)), (idx, ("aggvar",)), (idx, ("wavelet",)), (idx, ("periodogram", "local_whittle"))]
        for idx in (0, 1)
    ]


@pytest.mark.parametrize(
    "values",
    [np.arange(5.0), np.random.default_rng(4).standard_normal(500), np.full(2048, 3.0)],
    ids=["5-points", "500-points", "constant"],
)
def test_spectral_cells_refuse_a_row_as_their_estimators_do(tmp_path, values):
    path = tmp_path / "series.txt"
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="ascii")
    series = hk.TimeSeries(values)
    for workers in (1, 2):
        matrix = run_matrix(ExperimentSpec(source=hk.FileSource(str(path)), workers=workers))
        for method, estimator in (("periodogram", hk.est_periodogram), ("local_whittle", hk.est_local_whittle)):
            with pytest.raises(hk.HurstkitError) as refusal:
                estimator(series)
            assert matrix.cells[(0, method)] == CellError(type(refusal.value).__name__, str(refusal.value))


def test_periodogram_cells_hold_the_fitted_bins_alone():
    spec = small_spec(runs=2, estimators=("periodogram",))
    matrix = run_matrix(spec)
    for idx, row in enumerate(matrix.rows):
        cell = matrix.cells[(idx, "periodogram")]
        used = cell.diagnostics["bins_used"]
        assert cell.fit.xs.size == cell.fit.ys.size == cell.fit.weights.size == used
        assert (cell.fit.fit_lo, cell.fit.fit_hi) == (0, used - 1)
        payload = {r.label: p for r, p in _materialize_rows(spec, row.run)[1]}[row.label]
        full = hk.est_periodogram(payload)
        assert cell.hurst.hex() == full.hurst.hex()
        assert cell.diagnostics == full.diagnostics


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


def test_cast_config_refuses_a_scalar_key_with_two_values():
    with pytest.raises(hk.ConfigError) as exc:
        cast_config({"source": ["iid"], "n": ["4096", "2048"]})
    assert str(exc.value) == "key 'n' given more than once"
    assert cast_config({"phi": ["0.5", "0.2"]}) == {"phi": [0.5, 0.2]}


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
        ("source = ar1\nn = 50\nphi = 0.5\nphi = 0.3\n", hk.ConfigError, "an ar1 source takes one phi, got 2"),
        ("source = ar1\nn = 4096\nphi = nan\n", hk.ExplosiveAR, "AR\\(1\\) needs \\|phi\\| < 1, got nan"),
        ("source = ar1\nn = 4096\nsigma = inf\n", ValueError, "innovation std must be finite, got inf"),
        ("source = farima\nn = 4096\nphi = 0.3\nphi = nan\n", hk.NonStationaryAR, "triangle violated"),
        ("source = farima\nn = 4096\ntheta = inf\n", ValueError, "MA coefficients must be finite"),
        ("source = farima\nn = 4096\nsigma = inf\n", ValueError, "innovation std must be finite, got inf"),
    ],
)
def test_generator_parameters_rejected_when_spec_is_built(body, error, match):
    with pytest.raises(error, match=match):
        build_experiment_spec(parse_config(body))


def test_a_farima_source_takes_at_most_two_phi():
    body = "source = farima\nn = 64\nphi = 0.1\nphi = 0.1\nphi = 0.1\n"
    with pytest.raises(hk.ConfigError) as exc:
        build_experiment_spec(parse_config(body))
    assert str(exc.value) == "a farima source takes at most 2 phi, got 3"
    with pytest.raises(hk.ConfigError) as exc:
        GeneratorSource(model="farima", n=64, phi=(0.1, 0.1, 0.1))
    assert str(exc.value) == "a farima source takes at most 2 phi, got 3"


def test_n_is_refused_from_the_first_length_an_array_cannot_index():
    GeneratorSource(model="iid", n=_MAX_POINTS)
    with pytest.raises(hk.ConfigError) as exc:
        GeneratorSource(model="iid", n=_MAX_POINTS + 1)
    assert str(exc.value) == f"key 'n': {_MAX_POINTS + 1} points are more than an array can index"


def test_a_farima_n_is_refused_from_the_first_warm_up_an_array_cannot_index():
    # gen_farima draws 2n innovations, n of them warm-up
    GeneratorSource(model="farima", n=_MAX_POINTS // 2)
    with pytest.raises(hk.ConfigError) as exc:
        GeneratorSource(model="farima", n=_MAX_POINTS // 2 + 1)
    assert str(exc.value) == f"key 'n': {_MAX_POINTS // 2 + 1} points are more than an array can index"


def test_a_negative_seed_is_refused():
    with pytest.raises(hk.ConfigError) as exc:
        build_experiment_spec(parse_config("source = iid\nn = 2048\nseed = -1\n"))
    assert str(exc.value) == "key 'seed' must be >= 0, got -1"
    with pytest.raises(hk.ConfigError) as exc:
        small_spec(base_seed=-1)
    assert str(exc.value) == "base_seed must be >= 0, got -1"
    assert small_spec(base_seed=0).base_seed == 0


@pytest.mark.parametrize(
    "body, message",
    [
        ("source = bogus\nn = 4096\n", "unknown source 'bogus'"),
        ("n = 4096\n", "config needs a 'source' (fgn|farima|ar1|iid|file|trace)"),
        ("source = trace\npath = x\nmode = bogus\n", "trace mode must be 'bins' or 'interarrival', got 'bogus'"),
        ("= 5\n", "line 1: empty key or value in '= 5'"),
        ("n =\n", "line 1: empty key or value in 'n ='"),
        ("source = iid\nn = 2048\nworkers = 0\n", "workers must be >= 1, got 0"),
        ("source = iid\nn = 2048\nworkers = 65\n", "workers must be <= 64, got 65"),
    ],
    ids=["unknown-source", "no-source", "unknown-trace-mode", "empty-key", "empty-value", "workers-0", "workers-65"],
)
def test_build_source_refusals(body, message):
    with pytest.raises(hk.ConfigError) as exc:
        build_experiment_spec(parse_config(body))
    assert str(exc.value) == message


def test_aligned_headings_describe_each_source(tmp_path):
    farima = small_spec(
        source=GeneratorSource(model="farima", n=2048, d=0.3, phi=(0.5, 0.2), theta=(0.1,)),
        corruptions=(), estimators=("rs",),
    )
    lines = format_matrix(run_matrix(farima), "aligned").splitlines()
    assert lines[:2] == [
        "# 2048 points FARIMA(2,d,1) d=0.3 phi=[0.5, 0.2] theta=[0.1] --- run 0 (seed 11)",
        "Transform  R/S",
    ]
    path = tmp_path / "t.txt"
    path.write_text("".join(f"{i * 0.25} {40 + i % 3}\n" for i in range(400)), encoding="ascii")
    for source, heading in [
        (hk.TraceSource(path=str(path), mode="bins", bin_width=0.5, skip=2, take=150),
         f"# trace {path} (bytes per 0.5s) --- run 0 (seed 11)"),
        (hk.TraceSource(path=str(path), skip=1), f"# trace {path} (interarrival times) --- run 0 (seed 11)"),
    ]:
        spec = small_spec(source=source, corruptions=(), estimators=("rs",))
        assert format_matrix(run_matrix(spec), "aligned").splitlines()[0] == heading


def test_trace_source_is_a_windowed_file_source(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"{i * 0.25} {40 + i % 3}\n" for i in range(40)), encoding="ascii")
    trace = hk.parse_packet_trace(io.StringIO(path.read_text(encoding="ascii")))
    source = hk.TraceSource(path=str(path), mode="bins", bin_width=0.5, skip=3, take=7)
    assert isinstance(source, hk.FileSource)
    np.testing.assert_array_equal(source.make(0).values, hk.bin_bytes(trace, 0.5).values[3:10])
    whole = hk.TraceSource(path=str(path))
    np.testing.assert_array_equal(whole.make(0).values, hk.interarrival_series(trace).values)


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
