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

import io
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Callable

from .errors import ConfigError, HurstkitError, SeriesTooShort
from .estimators import METHOD_ORDER, SPECTRAL_METHODS, EstimatorReport, estimate, estimate_each
from .generators import Ar1Spec, FarimaSpec, FgnSpec, gen_ar1, gen_farima, gen_fgn, gen_iid_gaussian
from .series import _MAX_POINTS, TimeSeries, acf, read_series
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
        # gen_farima draws n more innovations for its warm-up
        if (2 * self.n if self.model == "farima" else self.n) > _MAX_POINTS:
            raise ConfigError(f"key 'n': {self.n} points are more than an array can index")
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        self._spec(0)

    def _spec(self, seed: int) -> tuple[Callable[[Any], TimeSeries], Any, str]:
        """(generator, spec, description) for one seed; building the spec validates the parameters."""
        if self.model == "fgn":
            return gen_fgn, FgnSpec(hurst=self.hurst, n=self.n, seed=seed), f"{self.n} points FGN H={self.hurst:g}"
        if self.model == "farima":
            if len(self.phi) > 2:
                raise ConfigError(f"a farima source takes at most 2 phi, got {len(self.phi)}")
            spec = FarimaSpec(d=self.d, n=self.n, seed=seed, ar=self.phi, ma=self.theta, sigma=self.sigma)
            return gen_farima, spec, (
                f"{self.n} points FARIMA({len(self.phi)},d,{len(self.theta)}) "
                f"d={self.d:g} phi={list(self.phi)} theta={list(self.theta)}"
            )
        if self.model == "ar1":
            if len(self.phi) > 1:
                raise ConfigError(f"an ar1 source takes one phi, got {len(self.phi)}")
            spec = Ar1Spec(phi=self.phi[0] if self.phi else 0.9, n=self.n, seed=seed, sigma=self.sigma)
            return gen_ar1, spec, f"{self.n} points AR(1) phi={spec.phi:g}"
        if self.n < 1:
            raise SeriesTooShort(f"need N >= 1, got {self.n}")
        return (lambda s: gen_iid_gaussian(self.n, s)), seed, f"{self.n} points iid Gaussian"

    def make(self, seed: int) -> TimeSeries:
        generate, spec, _ = self._spec(seed)
        try:
            return generate(spec)
        except MemoryError:
            raise ConfigError(f"key 'n': {self.n} points do not fit in memory") from None

    def describe(self) -> str:
        return self._spec(0)[2]


@contextmanager
def open_input(path: str):
    """Open an input file as bytes, which the readers check are ASCII;
    '-' means stdin (the UTF-8 bytes of its text where it has no byte
    buffer, so non-ASCII text is refused as a file's would be)."""
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        yield buffer if buffer is not None else io.BytesIO(sys.stdin.read().encode("utf-8"))
    else:
        with open(path, "rb") as fh:
            yield fh


@dataclass(frozen=True)
class FileSource:
    """Series loaded from the one-value-per-line text format, optionally windowed."""

    path: str
    skip: int = 0
    take: int | None = None

    def __post_init__(self) -> None:
        if self.skip < 0:
            raise ConfigError(f"skip must be >= 0, got {self.skip}")
        if self.take is not None and self.take < 0:
            raise ConfigError(f"take must be >= 0, got {self.take}")

    def _read(self, fh: IO[bytes]) -> TimeSeries:
        return read_series(fh)

    def make(self, seed: int) -> TimeSeries:
        with open_input(self.path) as fh:
            series = self._read(fh)
        if self.skip == 0 and self.take is None:
            return series
        return TimeSeries(series.values[self.skip :][: self.take])

    def describe(self) -> str:
        return f"series file {self.path}"


@dataclass(frozen=True)
class TraceSource(FileSource):
    """Packet trace reduced to bytes/bin or interarrival times."""

    mode: str = "interarrival"
    bin_width: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in TRACE_MODES:
            raise ConfigError(f"trace mode must be 'bins' or 'interarrival', got {self.mode!r}")
        if self.mode == "bins":
            if self.bin_width is None:
                raise ConfigError("trace mode 'bins' requires a bin width ('bin-width')")
            check_bin_width(self.bin_width)
        elif self.bin_width is not None:
            raise ConfigError("trace mode 'interarrival' reads no bin width ('bin-width')")
        super().__post_init__()

    def _read(self, fh: IO[bytes]) -> TimeSeries:
        trace = parse_packet_trace(fh, source=self.path)
        if self.mode == "bins":
            return bin_bytes(trace, float(self.bin_width))
        return interarrival_series(trace)

    def describe(self) -> str:
        if self.mode == "bins":
            return f"trace {self.path} (bytes per {self.bin_width:g}s)"
        return f"trace {self.path} (interarrival times)"


# run_matrix hands one run's cells to the pool at a time, so the pool starts at most
# min(workers, cells per run) threads: an uncapped workers on a wide matrix would try
# to start thousands and fail.
_MAX_WORKERS = 64


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
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.workers > _MAX_WORKERS:
            raise ConfigError(f"workers must be <= {_MAX_WORKERS}, got {self.workers}")
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


# A cell prints H alone, so the block estimators skip the sizes their fit does not read
# and the periodogram keeps the log-log arrays of its fitted bins alone.
_CELL_OPTIONS: dict[str, dict[str, Any]] = {
    "rs": {"fit_only": True},
    "aggvar": {"fit_only": True},
    "periodogram": {"fit_only": True},
}


def _run_cell(series: TimeSeries, method: str, **shared) -> EstimatorReport | CellError:
    try:
        return estimate(series, method, **_CELL_OPTIONS.get(method, {}), **shared)
    except HurstkitError as exc:
        return CellError(code=type(exc).__name__, message=str(exc))


def run_matrix(spec: ExperimentSpec) -> ResultMatrix:
    """Execute the experiment matrix one run at a time; cell errors are captured, not fatal.

    No cell reads another run's rows, so each run's rows are dropped once
    its cells are estimated, before the next run's are built.
    """
    all_rows: list[MatrixRow] = []
    cells: dict[tuple[int, str], EstimatorReport | CellError] = {}
    # The current run's rows by row index.  Jobs carry indices alone and the dict is
    # emptied after each run, so no pool work item keeps a series alive.
    payloads: dict[int, TimeSeries | CellError] = {}
    # A job per cell, but a row's spectral cells are one job, after its others, that
    # takes the row's periodogram once (estimate_each) and hands it to both.
    spectral = tuple(method for method in spec.estimators if method in SPECTRAL_METHODS)
    groups = [(method,) for method in spec.estimators if method not in spectral] + ([spectral] if spectral else [])

    def run_cells(job: tuple[int, tuple[str, ...]]) -> list[tuple[tuple[int, str], EstimatorReport | CellError]]:
        idx, methods = job
        payload = payloads[idx]
        if isinstance(payload, CellError):
            return [((idx, method), payload) for method in methods]
        return list(zip([(idx, method) for method in methods], estimate_each(payload, methods, _run_cell)))

    def estimate_run(run: int, map_jobs: Callable) -> None:
        for idx, (row, payload) in enumerate(_materialize_rows(spec, run)[1], start=len(all_rows)):
            all_rows.append(row)
            payloads[idx] = payload
        for done in map_jobs(run_cells, [(idx, methods) for idx in payloads for methods in groups]):
            cells.update(done)
        payloads.clear()

    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            for run in range(spec.runs):
                estimate_run(run, pool.map)
    else:
        for run in range(spec.runs):
            estimate_run(run, map)

    return ResultMatrix(
        rows=tuple(all_rows),
        methods=tuple(spec.estimators),
        cells=cells,
        source_desc=spec.source.describe(),
    )


def _cell_texts(matrix: ResultMatrix, idx: int) -> list[tuple[str, str]]:
    """(H text, CI half-width text) of each method's cell in row ``idx``; ("ERR:<code>", "") if it failed."""
    texts = []
    for method in matrix.methods:
        cell = matrix.cells[(idx, method)]
        if isinstance(cell, CellError):
            texts.append((f"ERR:{cell.code}", ""))
        else:
            ci = "" if cell.ci95 is None else f"{(cell.ci95[1] - cell.ci95[0]) / 2.0:.2g}"
            texts.append((f"{cell.hurst:.3g}", ci))
    return texts


def format_matrix(matrix: ResultMatrix, fmt: str = "csv") -> str:
    """Render a matrix as CSV or a human-readable aligned table (deterministic)."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}; use 'csv' or 'aligned'")
    if fmt == "csv":
        header = ["run", "seed", "kind", "transform"] + [col for m in matrix.methods for col in (m, f"{m}_ci")]
        lines = [",".join(header)]
        for idx, row in enumerate(matrix.rows):
            texts = [text for pair in _cell_texts(matrix, idx) for text in pair]
            lines.append(",".join([str(row.run), str(row.seed), row.kind, row.label] + texts))
        return "\n".join(lines) + "\n"

    header = ["Transform"] + [METHODS.labels[m] for m in matrix.methods]
    table = [
        [row.label] + [f"{h} +- {ci}" if ci else h for h, ci in _cell_texts(matrix, idx)]
        for idx, row in enumerate(matrix.rows)
    ]
    widths = [max(map(len, column)) for column in zip(header, *table)]

    def render(parts: list[str]) -> str:
        return "  ".join(text.ljust(width) for text, width in zip(parts, widths)).rstrip()

    out: list[str] = []
    for idx, (row, line) in enumerate(zip(matrix.rows, table)):
        if idx == 0 or row.run != matrix.rows[idx - 1].run:
            out += [f"# {matrix.source_desc} --- run {row.run} (seed {row.seed})", render(header)]
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
    """Each key's values read by its ConfigKey: a list, or the one value a scalar key may have."""
    config = {}
    for key, raws in mapping.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        spec = CONFIG_KEYS[key]
        if len(raws) > 1 and not spec.is_list:
            raise ConfigError(f"key {key!r} given more than once")
        values = []
        for raw in raws:
            try:
                values.append(spec.cast(raw))
            except ValueError:
                raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from None
        config[key] = values if spec.is_list else values[0]
    if config.get("seed", 0) < 0:
        raise ConfigError(f"key 'seed' must be >= 0, got {config['seed']}")
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
