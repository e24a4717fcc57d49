"""Spans and counters around the calls into each hurstkit module.

Nothing inside ``src/hurstkit`` changes: :meth:`Tracer.install` replaces the
names where the program looks them up (``hurstkit.harness.estimate``,
``hurstkit.cli.read_series``, the entries of
``hurstkit.estimators._ESTIMATORS``, which holds direct references, and
so on) with wrappers that record a span, and :meth:`Tracer.uninstall`
puts the originals back.  A span records its name, its parent span and
its start and end.  Spans opened by the matrix thread pool, whose own
stack is empty, take the innermost open span of the installing thread
(the pending ``run_matrix``) as their parent, so self times stay right
with ``workers = 2``.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

import hurstkit.cli as cli
import hurstkit.estimators as estimators
import hurstkit.harness as harness
import hurstkit.transforms as transforms
from hurstkit.series import TimeSeries
from hurstkit.traces import PacketTrace

# (namespace, attribute, span name); a namespace is a module or a dict.
_SITES: list[tuple[Any, str, str]] = [
    (cli, "read_series", "series.read"),
    (harness, "read_series", "series.read"),
    (cli, "write_series", "series.write"),
    (harness, "acf", "series.acf"),
    (estimators, "aggregate", "series.aggregate"),
    (cli, "parse_packet_trace", "traces.parse"),
    (harness, "parse_packet_trace", "traces.parse"),
    (cli, "bin_bytes", "traces.bin"),
    (harness, "bin_bytes", "traces.bin"),
    (cli, "gen_farima", "generators.farima"),
    (harness, "gen_farima", "generators.farima"),
    (cli, "gen_fgn", "generators.fgn"),
    (harness, "gen_fgn", "generators.fgn"),
    (cli, "gen_ar1", "generators.ar1"),
    (harness, "gen_ar1", "generators.ar1"),
    (transforms, "gen_ar1", "generators.ar1"),
    (cli, "corrupt", "transforms.corrupt"),
    (harness, "corrupt", "transforms.corrupt"),
    (transforms, "filter_poly_detrend", "transforms.filter_poly"),
    (transforms, "filter_linear_detrend", "transforms.filter_linear"),
    (transforms, "filter_log", "transforms.filter_log"),
    (estimators, "compute_periodogram", "spectral.periodogram"),
    (estimators, "dwt", "wavelet.dwt"),
    (estimators._ESTIMATORS, "rs", "estimators.rs"),
    (estimators._ESTIMATORS, "aggvar", "estimators.aggvar"),
    (estimators._ESTIMATORS, "periodogram", "estimators.pgram"),
    (estimators._ESTIMATORS, "local_whittle", "estimators.lwhittle"),
    (estimators._ESTIMATORS, "wavelet", "estimators.wavelet"),
    (cli, "parse_config", "harness.config"),
    (cli, "build_experiment_spec", "harness.config"),
    (cli, "run_matrix", "harness.run_matrix"),
    (cli, "format_matrix", "harness.format"),
    (harness, "estimate", "harness.cell"),
]


def _get(namespace, attr):
    return namespace[attr] if isinstance(namespace, dict) else getattr(namespace, attr)


def _set(namespace, attr, value) -> None:
    if isinstance(namespace, dict):
        namespace[attr] = value
    else:
        setattr(namespace, attr, value)


class Tracer:
    """Collects spans ``[name, parent, start, end]`` and named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``on_result(args, result, span)`` after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root[-1] if self._root else None)
            span = [name, parent, perf_counter(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                self.spans.append(span)
            if on_result is not None:
                on_result(args, result, span)
            return result

        return traced

    def _patch(self, namespace, attr, value) -> None:
        self._restore.append((namespace, attr, _get(namespace, attr)))
        _set(namespace, attr, value)

    def install(self) -> None:
        """Patch every lookup site; call from the thread that runs the CLI."""
        self._root = self._stack()
        hooks = {
            "series.read": lambda args, res, span: self.count("series.points_io", len(res)),
            "series.write": lambda args, res, span: self.count("series.points_io", len(args[0])),
            "traces.parse": lambda args, res, span: self.count("traces.packets", len(res)),
            "harness.run_matrix": self._count_matrix,
        }
        for name in ("rs", "aggvar", "pgram", "lwhittle", "wavelet"):
            hooks[f"estimators.{name}"] = self._count_fallback
        for namespace, attr, name in _SITES:
            self._patch(namespace, attr, self.wrap(name, _get(namespace, attr), hooks.get(name)))

        init = TimeSeries.__init__

        def counted_init(series, values):
            init(series, values)
            self.count("series.timeseries_copies")
            self.count("series.bytes_copied", series.values.nbytes)

        self._patch(TimeSeries, "__init__", counted_init)
        for attr in ("timestamps", "sizes"):
            prop = vars(PacketTrace)[attr]

            def rebuild(trace, _get_array=prop.fget):
                self.count("traces.array_rebuilds")
                return _get_array(trace)

            self._patch(PacketTrace, attr, property(rebuild))

    def uninstall(self) -> None:
        while self._restore:
            _set(*self._restore.pop())
        self._root = []

    def _count_fallback(self, args, report, span) -> None:
        if report.diagnostics.get("fit_range") == "full(fallback)":
            self.count("estimators.fit_fallbacks")

    def _count_matrix(self, args, matrix, span) -> None:
        errors = sum(isinstance(c, harness.CellError) for c in matrix.cells.values())
        self.count("harness.cells", len(matrix.cells))
        self.count("harness.err_cells", errors)
        self.count("harness.capacity_s", args[0].workers * (span[3] - span[2]))

    def times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive time, self time and call count per span name."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[id(span[1])].append(span)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            name, _, start, end = span
            total[name] += end - start
            own[name] += end - start - _covered(start, end, children.get(id(span), ()))
            calls[name] += 1
        return total, own, calls


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the child spans."""
    covered = 0.0
    reach = start
    for _, _, s, e in sorted(kids, key=lambda k: k[2]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    total, own, calls = tracer.times()
    counts = tracer.counts

    def per_pass(value: float) -> float:
        return value / passes

    seconds = {
        "series.read_s": own["series.read"],
        "series.write_s": own["series.write"],
        "series.acf_s": own["series.acf"],
        "series.aggregate_s": own["series.aggregate"],
        "traces.parse_s": own["traces.parse"],
        "traces.bin_s": own["traces.bin"],
        "generators.farima_s": own["generators.farima"],
        "generators.fgn_s": own["generators.fgn"],
        "generators.ar1_s": own["generators.ar1"],
        "transforms.corrupt_s": own["transforms.corrupt"],
        "transforms.filter_poly_s": own["transforms.filter_poly"],
        "transforms.filter_linear_s": own["transforms.filter_linear"],
        "transforms.filter_log_s": own["transforms.filter_log"],
        "spectral.periodogram_s": own["spectral.periodogram"],
        "wavelet.dwt_s": own["wavelet.dwt"],
        "estimators.rs_s": own["estimators.rs"],
        "estimators.aggvar_s": own["estimators.aggvar"],
        "estimators.pgram_s": own["estimators.pgram"],
        "estimators.lwhittle_s": own["estimators.lwhittle"],
        "estimators.wavelet_s": own["estimators.wavelet"],
        "harness.run_matrix_self_s": own["harness.run_matrix"],
        "harness.format_s": own["harness.format"],
        "harness.config_s": own["harness.config"],
        "harness.cell_busy_s": total["harness.cell"],
        "cli.self_s": own["cli.main"],
    }
    counted = {
        "series.points_io": counts["series.points_io"],
        "series.timeseries_copies": counts["series.timeseries_copies"],
        "traces.packets": counts["traces.packets"],
        "traces.array_rebuilds": counts["traces.array_rebuilds"],
        "spectral.periodogram_calls": calls["spectral.periodogram"],
        "estimators.fit_fallbacks": counts["estimators.fit_fallbacks"],
        "harness.cells": counts["harness.cells"],
        "harness.err_cells": counts["harness.err_cells"],
    }
    metrics = {name: (per_pass(v), "s") for name, v in seconds.items()}
    metrics.update({name: (per_pass(v), "count") for name, v in counted.items()})
    metrics["series.bytes_copied"] = (per_pass(counts["series.bytes_copied"]), "bytes")
    capacity = counts["harness.capacity_s"]
    efficiency = total["harness.cell"] / capacity if capacity else 0.0
    metrics["harness.parallel_efficiency"] = (efficiency, "ratio")
    return metrics
