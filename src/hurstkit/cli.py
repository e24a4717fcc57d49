"""Command-line interface.

Subcommands: generate, corrupt, filter, estimate, ingest, acf, matrix.
File arguments accept '-' for stdin/stdout.  Exit code 0 on success;
fatal errors print a one-line diagnostic and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .errors import HurstkitError
from .estimators import estimate
from .harness import (
    CONFIG_KEYS,
    CORRUPTIONS,
    FILTERS,
    GENERATOR_MODELS,
    METHODS,
    TRACE_MODES,
    FileSource,
    GeneratorSource,
    TraceSource,
    build_experiment_spec,
    export_acf,
    format_matrix,
    open_input,
    parse_config,
    run_matrix,
)
from .series import write_series

# Not called here since generate and every read go through the harness
# sources, but perfbench's tracer patches these names on this module, so they
# must stay importable.
from .generators import gen_ar1, gen_farima, gen_fgn  # noqa: F401
from .series import read_series  # noqa: F401
from .traces import bin_bytes, parse_packet_trace  # noqa: F401
from .transforms import CorruptionKind, FilterKind, apply_filter, corrupt


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_series_arg(series, path: str) -> int:
    with _open_out(path) as fh:
        write_series(series, fh)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    source = GeneratorSource(
        model=args.model,
        n=args.n,
        hurst=args.h,
        d=args.d,
        phi=tuple(args.phi or ()),
        theta=tuple(args.theta or ()),
        sigma=args.sigma,
    )
    return _write_series_arg(source.make(args.seed), args.out)


def _cmd_corrupt(args: argparse.Namespace) -> int:
    series = FileSource(args.infile).make(0)
    (name,) = CORRUPTIONS(args.kind)
    kind = CorruptionKind(name=name, phi=args.phi, cycles=args.cycles)
    return _write_series_arg(corrupt(series, kind, seed=args.seed), args.out)


def _cmd_filter(args: argparse.Namespace) -> int:
    series = FileSource(args.infile).make(0)
    (name,) = FILTERS(args.kind)
    kind = FilterKind(name=name, degree=args.degree)
    return _write_series_arg(apply_filter(series, kind), args.out)


def _cmd_estimate(args: argparse.Namespace) -> int:
    series = FileSource(args.infile).make(0)
    reports = []
    for method in METHODS(args.method):
        kwargs = {}
        if method == "local_whittle" and args.bandwidth is not None:
            kwargs["m"] = args.bandwidth
        reports.append(estimate(series, method, **kwargs))
    with _open_out(args.out) as fh:
        fh.write("method,h,ci_lo,ci_hi,slope,intercept,slope_se,fit_points,notes\n")
        for rep in reports:
            ci_lo = f"{rep.ci95[0]:.6g}" if rep.ci95 else ""
            ci_hi = f"{rep.ci95[1]:.6g}" if rep.ci95 else ""
            if rep.fit is not None:
                slope = f"{rep.fit.slope:.6g}"
                intercept = f"{rep.fit.intercept:.6g}"
                se = f"{rep.fit.slope_se:.6g}"
                pts = str(rep.fit.fit_hi - rep.fit.fit_lo + 1)
            else:
                slope = intercept = se = pts = ""
            notes = ";".join(f"{k}={v}" for k, v in sorted(rep.diagnostics.items()))
            fh.write(
                f"{rep.method},{rep.hurst:.6g},{ci_lo},{ci_hi},{slope},{intercept},{se},{pts},\"{notes}\"\n"
            )
    if args.dump_fit:
        if len(reports) != 1:
            raise HurstkitError("--dump-fit needs a single estimator, not 'all'")
        fit = reports[0].fit
        if fit is None:
            raise HurstkitError(f"estimator {reports[0].method} has no log-log fit to dump")
        with _open_out(args.dump_fit) as fh:
            for i, (lx, ly) in enumerate(zip(fit.xs, fit.ys)):
                in_fit = 1 if fit.fit_lo <= i <= fit.fit_hi else 0
                fh.write(f"{np.exp(lx):.10g} {np.exp(ly):.10g} {in_fit}\n")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    source = TraceSource(
        path=args.trace, mode=args.mode, bin_width=args.bin_width, skip=args.skip, take=args.take
    )
    return _write_series_arg(source.make(0), args.out)


def _cmd_acf(args: argparse.Namespace) -> int:
    series = FileSource(args.infile).make(0)
    with _open_out(args.out) as fh:
        export_acf(series, args.max_lag, fh)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    mapping: dict[str, list[str]] = {}
    if args.config:
        with open_input(args.config) as fh:
            mapping = parse_config(fh.read())
    for key in CONFIG_KEYS:
        values = getattr(args, key)
        if values is not None:
            mapping[key] = values if isinstance(values, list) else [values]

    spec = build_experiment_spec(mapping)
    matrix = run_matrix(spec)
    text = format_matrix(matrix, spec.fmt)
    with _open_out(spec.output) as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurstkit",
        description="Generate, corrupt, filter and analyse long-range-dependent time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a series")
    p.add_argument("--model", required=True, choices=GENERATOR_MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=0.7, help="Hurst parameter (fgn)")
    p.add_argument("--d", type=float, default=0.2, help="fractional differencing (farima)")
    p.add_argument("--phi", type=float, action="append", help="AR coefficient (repeatable)")
    p.add_argument("--theta", type=float, action="append", help="MA coefficient (repeatable)")
    p.add_argument("--sigma", type=float, default=1.0, help="innovation std")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("corrupt", help="add a std-matched corruption")
    p.add_argument("--kind", required=True, choices=[c for c in CORRUPTIONS.names if c != "none"])
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi", type=float, default=0.9)
    p.add_argument("--cycles", type=int, default=10)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("filter", help="apply a preprocessing filter")
    p.add_argument("--kind", required=True, choices=[c for c in FILTERS.names if c != "none"])
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--degree", type=int, default=10)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("estimate", help="estimate the Hurst parameter")
    p.add_argument("--method", required=True, choices=METHODS.names)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--bandwidth", type=int, help="local Whittle bandwidth override")
    p.add_argument("--dump-fit", help="write the fit's (x, y, in_fit) points to a file")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("ingest", help="derive a series from a packet trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", required=True, choices=TRACE_MODES)
    p.add_argument("--bin-width", type=float)
    p.add_argument("--skip", type=int, default=0)
    p.add_argument("--take", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("acf", help="export 'lag rho |rho|' columns")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("matrix", help="run an experiment matrix")
    p.add_argument("--config", help="key=value config file")
    for key, spec in CONFIG_KEYS.items():
        flags = [f"--{key}"] + (["--out"] if key == "output" else [])
        action = "append" if spec.is_list else "store"
        p.add_argument(*flags, dest=key, action=action, choices=spec.choices, help=f"config key '{key}'")
    p.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HurstkitError, OSError, ValueError) as exc:
        print(f"hurstkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
