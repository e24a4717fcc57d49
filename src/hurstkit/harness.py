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
from typing import IO, Any, Callable

from .errors import ConfigError, HurstkitError, SeriesTooShort
from .estimators import METHOD_ORDER, EstimatorReport, estimate
from .generators import Ar1Spec, FarimaSpec, FgnSpec, gen_ar1, gen_farima, gen_fgn, gen_iid_gaussian
from .series import TimeSeries, acf, read_series
from .traces import bin_bytes, check_bin_width, interarrival_series, parse_packet_trace
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
    "build_source",
    "CORRUPTION_SEED_OFFSET",
]

CORRUPTION_SEED_OFFSET = 2**32


class Vocabulary:
    """Codes (config values, CLI choices) -> canonical names -> aligned-table labels.

    ``rows`` are ``(code, canonical name, label)``; ``aliases`` are further
    codes, each naming one or more canonical names.  None names the
    untransformed matrix row.
    """

    def __init__(self, what: str, rows: tuple, aliases: dict | None = None) -> None:
        self.what = what
        self.labels = {name: label for _, name, label in rows}
        self.names = {code: (name,) for code, name, _ in rows} | (aliases or {})

    def __call__(self, code: str) -> tuple[str | None, ...]:
        if code not in self.names:
            raise ConfigError(f"unknown {self.what} {code!r}")
        return self.names[code]


METHODS = Vocabulary(
    "estimator",
    (
        ("rs", "rs", "R/S"),
        ("aggvar", "aggvar", "AggVar"),
        ("pgram", "periodogram", "Pgram"),
        ("wavelet", "wavelet", "Wavelet"),
        ("lwhittle", "local_whittle", "LWhittle"),
    ),
    aliases={"periodogram": ("periodogram",), "local_whittle": ("local_whittle",), "all": METHOD_ORDER},
)
CORRUPTIONS = Vocabulary(
    "corruption",
    (
        ("none", None, "None"),
        ("ar1", "ar1", "AR(1)"),
        ("sine", "sine", "Sin"),
        ("trend", "linear_trend", "Trend"),
    ),
)
FILTERS = Vocabulary(
    "filter",
    (
        ("none", None, "None"),
        ("log", "log", "Log"),
        ("linear", "linear_detrend", "Trend"),
        ("poly", "poly_detrend", "Poly"),
    ),
)

GENERATOR_MODELS = ("fgn", "farima", "ar1", "iid")
# The config keys each source reads and the dataclass field each one sets.
SOURCE_KEYS = {
    "fgn": {"n": "n", "h": "hurst"},
    "farima": {"n": "n", "d": "d", "phi": "phi", "theta": "theta", "sigma": "sigma"},
    "ar1": {"n": "n", "phi": "phi", "sigma": "sigma"},
    "iid": {"n": "n"},
    "file": {"path": "path", "skip": "skip", "take": "take"},
    "trace": {"path": "path", "mode": "mode", "bin-width": "bin_width", "skip": "skip", "take": "take"},
}
SOURCES = tuple(SOURCE_KEYS)
TRACE_MODES = ("bins", "interarrival")
FORMATS = ("csv", "aligned")


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
        if self.model not in GENERATOR_MODELS:
            raise ConfigError(f"unknown generator model {self.model!r}")
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        self._spec(0)

    def _spec(self, seed: int) -> tuple[Callable[[Any], TimeSeries], Any]:
        """(generator, spec) for one seed; building the spec validates the parameters."""
        if self.model == "fgn":
            return gen_fgn, FgnSpec(hurst=self.hurst, n=self.n, seed=seed)
        if self.model == "farima":
            return gen_farima, FarimaSpec(
                d=self.d, n=self.n, seed=seed, ar=self.phi, ma=self.theta, sigma=self.sigma
            )
        if self.model == "ar1":
            phi = self.phi[0] if self.phi else 0.9
            return gen_ar1, Ar1Spec(phi=phi, n=self.n, seed=seed, sigma=self.sigma)
        if self.n < 1:
            raise SeriesTooShort(f"need N >= 1, got {self.n}")
        return (lambda s: gen_iid_gaussian(self.n, s)), seed

    def make(self, seed: int) -> TimeSeries:
        generate, spec = self._spec(seed)
        return generate(spec)

    def describe(self) -> str:
        if self.model == "fgn":
            return f"{self.n} points FGN H={self.hurst:g}"
        if self.model == "farima":
            return (
                f"{self.n} points FARIMA({len(self.phi)},d,{len(self.theta)}) "
                f"d={self.d:g} phi={list(self.phi)} theta={list(self.theta)}"
            )
        if self.model == "ar1":
            return f"{self.n} points AR(1) phi={self._spec(0)[1].phi:g}"
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
        if self.mode not in TRACE_MODES:
            raise ConfigError(f"trace mode must be 'bins' or 'interarrival', got {self.mode!r}")
        if self.mode == "bins":
            if self.bin_width is None:
                raise ConfigError("trace mode 'bins' requires a bin width ('bin-width')")
            check_bin_width(self.bin_width)
        elif self.bin_width is not None:
            raise ConfigError("trace mode 'interarrival' reads no bin width ('bin-width')")
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
    if skip == 0 and take is None:
        return series
    return TimeSeries(series.values[skip:][:take])


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
        if self.fmt not in FORMATS:
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
    corrupt_seed = seed + CORRUPTION_SEED_OFFSET
    # (row kind, vocabulary, transform or None for the untransformed row, apply)
    steps = [
        ("corrupt", CORRUPTIONS, kind, lambda s, k: corrupt(s, k, seed=corrupt_seed))
        for kind in spec.corruptions
    ]
    steps += [("filter", FILTERS, kind, apply_filter) for kind in spec.filters]
    rows: list[tuple[MatrixRow, TimeSeries | CellError]] = []
    if not steps or any(kind is None for _, _, kind, _ in steps):
        rows.append((MatrixRow(run=run, seed=seed, kind="none", label="None"), base))
    for row_kind, vocabulary, kind, apply in steps:
        if kind is None:
            continue
        row = MatrixRow(run=run, seed=seed, kind=row_kind, label=vocabulary.labels[kind.name])
        try:
            rows.append((row, apply(base, kind)))
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

    col_labels = [METHODS.labels[m] for m in matrix.methods]
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


@dataclass(frozen=True)
class ConfigKey:
    """How one config key's values are read; the matrix flags are built from these."""

    cast: Callable[[str], Any] = str
    is_list: bool = False
    choices: tuple[str, ...] | None = None


CONFIG_KEYS = {
    "source": ConfigKey(choices=SOURCES),
    "n": ConfigKey(int),
    "h": ConfigKey(float),
    "d": ConfigKey(float),
    "sigma": ConfigKey(float),
    "phi": ConfigKey(float, is_list=True),
    "theta": ConfigKey(float, is_list=True),
    "path": ConfigKey(),
    "mode": ConfigKey(choices=TRACE_MODES),
    "bin-width": ConfigKey(float),
    "skip": ConfigKey(int),
    "take": ConfigKey(int),
    "runs": ConfigKey(int),
    "seed": ConfigKey(int),
    "corruption": ConfigKey(CORRUPTIONS, is_list=True, choices=tuple(CORRUPTIONS.names)),
    "cycles": ConfigKey(int),
    "filter": ConfigKey(FILTERS, is_list=True, choices=tuple(FILTERS.names)),
    "degree": ConfigKey(int),
    "estimator": ConfigKey(METHODS, is_list=True, choices=tuple(METHODS.names)),
    "format": ConfigKey(choices=FORMATS),
    "output": ConfigKey(),
    "workers": ConfigKey(int),
}


def parse_config(text: str) -> dict[str, list[str]]:
    """Parse the line-oriented key=value format (repeated keys make lists)."""
    mapping: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # '#' opens a comment at the start of a line or after whitespace only
        cut = next(
            (i for i, ch in enumerate(raw) if ch == "#" and (i == 0 or raw[i - 1].isspace())), None
        )
        line = raw[:cut].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in mapping and not CONFIG_KEYS[key].is_list:
            raise ConfigError(f"line {lineno}: key {key!r} given more than once")
        mapping.setdefault(key, []).append(value)
    return mapping


def cast_config(mapping: dict[str, list[str]]) -> dict[str, Any]:
    """Each key's values read by its ConfigKey: a list, or the first value."""
    config = {}
    for key, raws in mapping.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        spec = CONFIG_KEYS[key]
        values = []
        for raw in raws:
            try:
                values.append(spec.cast(raw))
            except ValueError:
                raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from None
        config[key] = values if spec.is_list else values[0]
    return config


def _pick(config: dict[str, Any], **fields: str) -> dict[str, Any]:
    """Keyword arguments ``field=config[key]`` for the keys that are set (not None)."""
    return {field: config[key] for field, key in fields.items() if config.get(key) is not None}


# Parameter keys each transform reads; a config's 'phi' is its source's, `corrupt --phi` the corruption's.
TRANSFORM_KEYS = {"sine": ("cycles",), "poly_detrend": ("degree",)}
_PARAMETER_KEYS = {key for keys in (*SOURCE_KEYS.values(), *TRANSFORM_KEYS.values()) for key in keys}


def refuse_unread(config: dict[str, Any], source: str | None = None, transforms=(), also=()) -> None:
    """Refuse a parameter key that neither the source, a listed transform nor ``also`` reads."""
    readers = {f"source {source!r}": tuple(SOURCE_KEYS[source])} if source else {}
    readers |= {f"transform {name!r}": TRANSFORM_KEYS.get(name, ()) for name in transforms if name}
    unread = [key for key in config if key in _PARAMETER_KEYS and key not in set(also).union(*readers.values())]
    if unread:
        raise ConfigError(f"key {unread[0]!r} is not read by {' or '.join(readers)}")


def build_source(config: dict[str, Any], transforms=()) -> GeneratorSource | FileSource | TraceSource:
    """The source a cast config names, given its SOURCE_KEYS; the transforms read the rest."""
    kind = config.get("source")
    if kind not in SOURCE_KEYS:
        raise ConfigError(f"unknown source {kind!r}" if kind else f"config needs a 'source' ({'|'.join(SOURCES)})")
    refuse_unread(config, kind, transforms)
    fields = {field: config[key] for key, field in SOURCE_KEYS[kind].items() if key in config}
    needed = "n" if kind in GENERATOR_MODELS else "path"
    if needed not in config:
        raise ConfigError(f"{kind} sources need {needed!r}")
    if kind in GENERATOR_MODELS:
        return GeneratorSource(model=kind, **fields)
    return (FileSource if kind == "file" else TraceSource)(**fields)


def build_experiment_spec(mapping: dict[str, list[str]]) -> ExperimentSpec:
    """Turn a parsed config mapping into a validated ExperimentSpec."""
    config = cast_config(mapping)
    corruptions = [name for names in config.get("corruption", []) for name in names]
    filters = [name for names in config.get("filter", []) for name in names]
    cycles = _pick(config, cycles="cycles")
    degree = _pick(config, degree="degree")
    methods = [name for names in config.get("estimator", [METHOD_ORDER]) for name in names]

    return ExperimentSpec(
        source=build_source(config, corruptions + filters),
        corruptions=tuple(None if name is None else CorruptionKind(name=name, **cycles) for name in corruptions),
        filters=tuple(None if name is None else FilterKind(name=name, **degree) for name in filters),
        estimators=tuple(dict.fromkeys(methods)),
        **_pick(config, runs="runs", base_seed="seed", workers="workers", output="output", fmt="format"),
    )
