"""Declarative experiment runner: source x corruptions/filters x estimators.

A matrix run mirrors the structure of the controlled experiments: for
each run k (seed = base_seed + k) the base series is built once, every
requested corruption or filter is applied independently to that same
base series, and every requested estimator runs on each variant.  Cell
failures (e.g. the log filter refusing zeros) become error markers, not
aborts.  Output is deterministic: identical specs produce byte-identical
CSV.

Corruption seeds are derived as run_seed + 2**32 so that a corruption
never shares a random stream with any run's source.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable

from .errors import ConfigError, HurstkitError
from .estimators import METHOD_ORDER, EstimatorReport, estimate
from .generators import Ar1Spec, FarimaSpec, FgnSpec, gen_ar1, gen_farima, gen_fgn, gen_iid_gaussian
from .series import TimeSeries, acf, read_series
from .traces import bin_bytes, interarrival_series, parse_packet_trace
from .transforms import CorruptionKind, FilterKind, apply_filter, corrupt

__all__ = [
    "GeneratorSource",
    "FileSource",
    "TraceSource",
    "ExperimentSpec",
    "ResultMatrix",
    "MatrixRow",
    "CellError",
    "run_matrix",
    "format_matrix",
    "export_acf",
    "parse_config",
    "build_experiment_spec",
    "CORRUPTION_SEED_OFFSET",
]

CORRUPTION_SEED_OFFSET = 2**32

_METHOD_LABELS = {
    "rs": "R/S",
    "aggvar": "AggVar",
    "periodogram": "Pgram",
    "local_whittle": "LWhittle",
    "wavelet": "Wavelet",
}

_CORRUPTION_LABELS = {"ar1": "AR(1)", "sine": "Sin", "linear_trend": "Trend"}
_FILTER_LABELS = {"log": "Log", "linear_detrend": "Trend", "poly_detrend": "Poly"}


@dataclass(frozen=True)
class GeneratorSource:
    """Synthetic source: fgn, farima, ar1 or iid with its parameters."""

    model: str
    n: int
    hurst: float = 0.7
    d: float = 0.2
    phi: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in ("fgn", "farima", "ar1", "iid"):
            raise ConfigError(f"unknown generator model {self.model!r}")
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))

    def make(self, seed: int) -> TimeSeries:
        if self.model == "fgn":
            return gen_fgn(FgnSpec(hurst=self.hurst, n=self.n, seed=seed))
        if self.model == "farima":
            return gen_farima(
                FarimaSpec(d=self.d, n=self.n, seed=seed, ar=self.phi, ma=self.theta, sigma=self.sigma)
            )
        if self.model == "ar1":
            phi = self.phi[0] if self.phi else 0.9
            return gen_ar1(Ar1Spec(phi=phi, n=self.n, seed=seed, sigma=self.sigma))
        return gen_iid_gaussian(self.n, seed)

    def describe(self) -> str:
        if self.model == "fgn":
            return f"{self.n} points FGN H={self.hurst:g}"
        if self.model == "farima":
            return (
                f"{self.n} points FARIMA({len(self.phi)},d,{len(self.theta)}) "
                f"d={self.d:g} phi={list(self.phi)} theta={list(self.theta)}"
            )
        if self.model == "ar1":
            phi = self.phi[0] if self.phi else 0.9
            return f"{self.n} points AR(1) phi={phi:g}"
        return f"{self.n} points iid Gaussian"


@contextmanager
def open_input(path: str):
    """Open a text input file as ASCII; '-' means stdin."""
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="ascii") as fh:
            yield fh


def _check_window(skip: int, take: int | None) -> None:
    if skip < 0:
        raise ConfigError(f"skip must be >= 0, got {skip}")
    if take is not None and take < 0:
        raise ConfigError(f"take must be >= 0, got {take}")


@dataclass(frozen=True)
class FileSource:
    """Series loaded from the one-value-per-line text format."""

    path: str
    skip: int = 0
    take: int | None = None

    def __post_init__(self) -> None:
        _check_window(self.skip, self.take)

    def make(self, seed: int) -> TimeSeries:
        with open_input(self.path) as fh:
            series = read_series(fh)
        return _slice_series(series, self.skip, self.take)

    def describe(self) -> str:
        return f"series file {self.path}"


@dataclass(frozen=True)
class TraceSource:
    """Packet trace reduced to bytes/bin or interarrival times."""

    path: str
    mode: str = "interarrival"
    bin_width: float | None = None
    skip: int = 0
    take: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("bins", "interarrival"):
            raise ConfigError(f"trace mode must be 'bins' or 'interarrival', got {self.mode!r}")
        if self.mode == "bins" and self.bin_width is None:
            raise ConfigError("trace mode 'bins' requires a bin width")
        _check_window(self.skip, self.take)

    def make(self, seed: int) -> TimeSeries:
        with open_input(self.path) as fh:
            trace = parse_packet_trace(fh, source=self.path)
        if self.mode == "bins":
            series = bin_bytes(trace, float(self.bin_width))
        else:
            series = interarrival_series(trace)
        return _slice_series(series, self.skip, self.take)

    def describe(self) -> str:
        if self.mode == "bins":
            return f"trace {self.path} (bytes per {self.bin_width:g}s)"
        return f"trace {self.path} (interarrival times)"


def _slice_series(series: TimeSeries, skip: int, take: int | None) -> TimeSeries:
    values = series.values[skip:]
    if take is not None:
        values = values[:take]
    return TimeSeries(values)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one generator x transform x estimator matrix."""

    source: GeneratorSource | FileSource | TraceSource
    corruptions: tuple[CorruptionKind | None, ...] = ()
    filters: tuple[FilterKind | None, ...] = ()
    estimators: tuple[str, ...] = METHOD_ORDER
    runs: int = 1
    base_seed: int = 0
    workers: int = 1
    output: str = "-"
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if not self.estimators:
            raise ConfigError("experiment needs at least one estimator")
        unknown = [m for m in self.estimators if m not in METHOD_ORDER]
        if unknown:
            raise ConfigError(f"unknown estimators: {unknown}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.fmt not in ("csv", "aligned"):
            raise ConfigError(f"unknown output format {self.fmt!r}; use 'csv' or 'aligned'")


@dataclass(frozen=True)
class MatrixRow:
    """Row key: run index, seed, transform kind ('none'/'corrupt'/'filter'), label."""

    run: int
    seed: int
    kind: str
    label: str


@dataclass(frozen=True)
class CellError:
    """Marker for a cell whose transform or estimator failed."""

    code: str
    message: str


@dataclass(frozen=True)
class ResultMatrix:
    """Estimator reports (or error markers) keyed by (row index, method)."""

    rows: tuple[MatrixRow, ...]
    methods: tuple[str, ...]
    cells: dict[tuple[int, str], EstimatorReport | CellError]
    source_desc: str


def _materialize_rows(
    spec: ExperimentSpec, run: int
) -> tuple[TimeSeries, list[tuple[MatrixRow, TimeSeries | CellError]]]:
    """Base series for one run plus each transform applied to that same base."""
    seed = spec.base_seed + run
    base = spec.source.make(seed)
    rows: list[tuple[MatrixRow, TimeSeries | CellError]] = []

    include_none = (
        (None in spec.corruptions)
        or (None in spec.filters)
        or (not spec.corruptions and not spec.filters)
    )
    if include_none:
        rows.append((MatrixRow(run=run, seed=seed, kind="none", label="None"), base))
    for kind in spec.corruptions:
        if kind is None:
            continue
        row = MatrixRow(run=run, seed=seed, kind="corrupt", label=_CORRUPTION_LABELS[kind.name])
        try:
            rows.append((row, corrupt(base, kind, seed=seed + CORRUPTION_SEED_OFFSET)))
        except HurstkitError as exc:
            rows.append((row, CellError(code=type(exc).__name__, message=str(exc))))
    for kind in spec.filters:
        if kind is None:
            continue
        row = MatrixRow(run=run, seed=seed, kind="filter", label=_FILTER_LABELS[kind.name])
        try:
            rows.append((row, apply_filter(base, kind)))
        except HurstkitError as exc:
            rows.append((row, CellError(code=type(exc).__name__, message=str(exc))))
    return base, rows


def run_matrix(spec: ExperimentSpec) -> ResultMatrix:
    """Execute the experiment matrix; cell errors are captured, not fatal."""
    all_rows: list[MatrixRow] = []
    jobs: list[tuple[int, str, TimeSeries | CellError]] = []
    for run in range(spec.runs):
        _, rows = _materialize_rows(spec, run)
        for row, payload in rows:
            idx = len(all_rows)
            all_rows.append(row)
            for method in spec.estimators:
                jobs.append((idx, method, payload))

    def run_cell(job: tuple[int, str, TimeSeries | CellError]) -> tuple[tuple[int, str], EstimatorReport | CellError]:
        idx, method, payload = job
        if isinstance(payload, CellError):
            return (idx, method), payload
        try:
            return (idx, method), estimate(payload, method)
        except HurstkitError as exc:
            return (idx, method), CellError(code=type(exc).__name__, message=str(exc))

    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(run_cell, jobs))
    else:
        results = [run_cell(job) for job in jobs]

    cells = dict(results)
    return ResultMatrix(
        rows=tuple(all_rows),
        methods=tuple(spec.estimators),
        cells=cells,
        source_desc=spec.source.describe(),
    )


def _format_h(value: float) -> str:
    return f"{value:.3g}"


def _format_ci(report: EstimatorReport) -> str:
    if report.ci95 is None:
        return ""
    return f"{(report.ci95[1] - report.ci95[0]) / 2.0:.2g}"


def format_matrix(matrix: ResultMatrix, fmt: str = "csv") -> str:
    """Render a matrix as CSV or a human-readable aligned table (deterministic)."""
    if fmt == "csv":
        return _format_csv(matrix)
    if fmt == "aligned":
        return _format_aligned(matrix)
    raise ConfigError(f"unknown output format {fmt!r}; use 'csv' or 'aligned'")


def _format_csv(matrix: ResultMatrix) -> str:
    header = ["run", "seed", "kind", "transform"]
    for method in matrix.methods:
        header.append(method)
        header.append(f"{method}_ci")
    lines = [",".join(header)]
    for idx, row in enumerate(matrix.rows):
        cols = [str(row.run), str(row.seed), row.kind, row.label]
        for method in matrix.methods:
            cell = matrix.cells[(idx, method)]
            if isinstance(cell, CellError):
                cols.extend([f"ERR:{cell.code}", ""])
            else:
                cols.extend([_format_h(cell.hurst), _format_ci(cell)])
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def _format_aligned(matrix: ResultMatrix) -> str:
    def cell_text(cell: EstimatorReport | CellError) -> str:
        if isinstance(cell, CellError):
            return f"ERR:{cell.code}"
        text = _format_h(cell.hurst)
        ci = _format_ci(cell)
        return f"{text} +- {ci}" if ci else text

    col_labels = [_METHOD_LABELS[m] for m in matrix.methods]
    table: list[list[str]] = []
    blocks: list[tuple[int, str]] = []  # (table row index, heading)
    last_run = None
    for idx, row in enumerate(matrix.rows):
        if row.run != last_run:
            blocks.append((len(table), f"{matrix.source_desc} --- run {row.run} (seed {row.seed})"))
            last_run = row.run
        cells = [cell_text(matrix.cells[(idx, m)]) for m in matrix.methods]
        table.append([row.label] + cells)

    widths = [len("Transform")] + [len(label) for label in col_labels]
    for line in table:
        for i, text in enumerate(line):
            widths[i] = max(widths[i], len(text))

    def render(parts: list[str]) -> str:
        return "  ".join(text.ljust(widths[i]) for i, text in enumerate(parts)).rstrip()

    out: list[str] = []
    heading = dict(blocks)
    for i, line in enumerate(table):
        if i in heading:
            out.append(f"# {heading[i]}")
            out.append(render(["Transform"] + col_labels))
        out.append(render(line))
    return "\n".join(out) + "\n"


def export_acf(series: TimeSeries, max_lag: int, stream: IO[str]) -> None:
    """Write 'lag rho |rho|' lines for lags 0..max_lag (log-log plot ready)."""
    curve = acf(series, max_lag)
    for lag, rho in zip(curve.lags, curve.rho):
        stream.write(f"{int(lag)} {rho:.10g} {abs(rho):.10g}\n")


# --- configuration -------------------------------------------------------

_LIST_KEYS = {"corruption", "filter", "estimator", "phi", "theta"}
_SCALAR_KEYS = {
    "source",
    "model",
    "n",
    "h",
    "d",
    "sigma",
    "seed",
    "runs",
    "path",
    "mode",
    "bin-width",
    "skip",
    "take",
    "output",
    "format",
    "workers",
    "degree",
    "cycles",
}

_ESTIMATOR_CODES = {
    "rs": "rs",
    "aggvar": "aggvar",
    "pgram": "periodogram",
    "periodogram": "periodogram",
    "lwhittle": "local_whittle",
    "local_whittle": "local_whittle",
    "wavelet": "wavelet",
}

_CORRUPTION_CODES = {"none": None, "ar1": "ar1", "sine": "sine", "trend": "linear_trend"}
_FILTER_CODES = {"none": None, "log": "log", "linear": "linear_detrend", "poly": "poly_detrend"}


def parse_config(text: str) -> dict[str, list[str]]:
    """Parse the line-oriented key=value format (repeated keys make lists)."""
    mapping: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key not in _LIST_KEYS and key not in _SCALAR_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in mapping and key not in _LIST_KEYS:
            raise ConfigError(f"line {lineno}: key {key!r} given more than once")
        mapping.setdefault(key, []).append(value)
    return mapping


def _get_scalar(mapping: dict[str, list[str]], key: str, default: str | None = None) -> str | None:
    if key in mapping:
        return mapping[key][0]
    return default


def _parse_num(key: str, raw: str, cast: Callable) -> Any:
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from None


def build_experiment_spec(mapping: dict[str, list[str]]) -> ExperimentSpec:
    """Turn a parsed config mapping into a validated ExperimentSpec."""
    kind = _get_scalar(mapping, "source", _get_scalar(mapping, "model"))
    if kind is None:
        raise ConfigError("config needs a 'source' (fgn|farima|ar1|iid|file|trace)")

    phi = tuple(_parse_num("phi", v, float) for v in mapping.get("phi", []))
    theta = tuple(_parse_num("theta", v, float) for v in mapping.get("theta", []))
    skip = _parse_num("skip", _get_scalar(mapping, "skip", "0"), int)
    take_raw = _get_scalar(mapping, "take")
    take = _parse_num("take", take_raw, int) if take_raw is not None else None

    source: GeneratorSource | FileSource | TraceSource
    if kind in ("fgn", "farima", "ar1", "iid"):
        n_raw = _get_scalar(mapping, "n")
        if n_raw is None:
            raise ConfigError("generator sources need 'n'")
        source = GeneratorSource(
            model=kind,
            n=_parse_num("n", n_raw, int),
            hurst=_parse_num("h", _get_scalar(mapping, "h", "0.7"), float),
            d=_parse_num("d", _get_scalar(mapping, "d", "0.2"), float),
            phi=phi,
            theta=theta,
            sigma=_parse_num("sigma", _get_scalar(mapping, "sigma", "1.0"), float),
        )
    elif kind == "file":
        path = _get_scalar(mapping, "path")
        if path is None:
            raise ConfigError("file sources need 'path'")
        source = FileSource(path=path, skip=skip, take=take)
    elif kind == "trace":
        path = _get_scalar(mapping, "path")
        if path is None:
            raise ConfigError("trace sources need 'path'")
        width_raw = _get_scalar(mapping, "bin-width")
        source = TraceSource(
            path=path,
            mode=_get_scalar(mapping, "mode", "interarrival"),
            bin_width=_parse_num("bin-width", width_raw, float) if width_raw else None,
            skip=skip,
            take=take,
        )
    else:
        raise ConfigError(f"unknown source {kind!r}")

    corruptions: list[CorruptionKind | None] = []
    for code in mapping.get("corruption", []):
        if code not in _CORRUPTION_CODES:
            raise ConfigError(f"unknown corruption {code!r}")
        name = _CORRUPTION_CODES[code]
        corruptions.append(None if name is None else CorruptionKind(name=name))
    filters: list[FilterKind | None] = []
    degree = _parse_num("degree", _get_scalar(mapping, "degree", "10"), int)
    for code in mapping.get("filter", []):
        if code not in _FILTER_CODES:
            raise ConfigError(f"unknown filter {code!r}")
        name = _FILTER_CODES[code]
        filters.append(None if name is None else FilterKind(name=name, degree=degree))

    estimators: list[str] = []
    for code in mapping.get("estimator", ["all"]):
        if code == "all":
            estimators.extend(METHOD_ORDER)
        elif code in _ESTIMATOR_CODES:
            estimators.append(_ESTIMATOR_CODES[code])
        else:
            raise ConfigError(f"unknown estimator {code!r}")
    seen = set()
    estimators = [m for m in estimators if not (m in seen or seen.add(m))]

    return ExperimentSpec(
        source=source,
        corruptions=tuple(corruptions),
        filters=tuple(filters),
        estimators=tuple(estimators),
        runs=_parse_num("runs", _get_scalar(mapping, "runs", "1"), int),
        base_seed=_parse_num("seed", _get_scalar(mapping, "seed", "0"), int),
        workers=_parse_num("workers", _get_scalar(mapping, "workers", "1"), int),
        output=_get_scalar(mapping, "output", "-"),
        fmt=_get_scalar(mapping, "format", "csv"),
    )


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read and validate a config file."""
    text = Path(path).read_text(encoding="utf-8")
    return build_experiment_spec(parse_config(text))
