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
from .estimators import METHOD_ORDER, estimate
from .generators import Ar1Spec, FarimaSpec, FgnSpec, gen_ar1, gen_farima, gen_fgn, gen_iid_gaussian
from .harness import (
    TraceSource,
    build_experiment_spec,
    export_acf,
    format_matrix,
    open_input,
    parse_config,
    run_matrix,
)
from .series import read_series, write_series

# Not called here since ingest goes through TraceSource, but perfbench's
# tracer patches these names on this module, so they must stay importable.
from .traces import bin_bytes, parse_packet_trace  # noqa: F401
from .transforms import CorruptionKind, FilterKind, apply_filter, corrupt

_ESTIMATE_CODES = {
    "rs": ("rs",),
    "aggvar": ("aggvar",),
    "pgram": ("periodogram",),
    "lwhittle": ("local_whittle",),
    "wavelet": ("wavelet",),
    "all": METHOD_ORDER,
}

_CORRUPT_CODES = {"ar1": "ar1", "sine": "sine", "trend": "linear_trend"}
_FILTER_CODES = {"log": "log", "linear": "linear_detrend", "poly": "poly_detrend"}


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _read_series_arg(path: str):
    with open_input(path) as fh:
        return read_series(fh)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "fgn":
        series = gen_fgn(FgnSpec(hurst=args.h, n=args.n, seed=args.seed))
    elif args.model == "farima":
        series = gen_farima(
            FarimaSpec(
                d=args.d,
                n=args.n,
                seed=args.seed,
                ar=tuple(args.phi or ()),
                ma=tuple(args.theta or ()),
                sigma=args.sigma,
            )
        )
    elif args.model == "ar1":
        phi = args.phi[0] if args.phi else 0.9
        series = gen_ar1(Ar1Spec(phi=phi, n=args.n, seed=args.seed, sigma=args.sigma))
    else:
        series = gen_iid_gaussian(args.n, args.seed)
    with _open_out(args.out) as fh:
        write_series(series, fh)
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    series = _read_series_arg(args.infile)
    name = _CORRUPT_CODES[args.kind]
    kind = CorruptionKind(name=name, phi=args.phi, cycles=args.cycles)
    out = corrupt(series, kind, seed=args.seed)
    with _open_out(args.out) as fh:
        write_series(out, fh)
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    series = _read_series_arg(args.infile)
    kind = FilterKind(name=_FILTER_CODES[args.kind], degree=args.degree)
    out = apply_filter(series, kind)
    with _open_out(args.out) as fh:
        write_series(out, fh)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    series = _read_series_arg(args.infile)
    methods = _ESTIMATE_CODES[args.method]
    reports = []
    for method in methods:
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
    if args.mode == "bins" and args.bin_width is None:
        raise HurstkitError("--mode bins requires --bin-width")
    source = TraceSource(
        path=args.trace, mode=args.mode, bin_width=args.bin_width, skip=args.skip, take=args.take
    )
    series = source.make(0)
    with _open_out(args.out) as fh:
        write_series(series, fh)
    return 0


def _cmd_acf(args: argparse.Namespace) -> int:
    series = _read_series_arg(args.infile)
    with _open_out(args.out) as fh:
        export_acf(series, args.max_lag, fh)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    mapping: dict[str, list[str]] = {}
    if args.config:
        with open_input(args.config) as fh:
            mapping = parse_config(fh.read())
    overrides = {
        "source": args.source,
        "n": args.n,
        "h": args.h,
        "d": args.d,
        "sigma": args.sigma,
        "path": args.path,
        "mode": args.mode,
        "bin-width": args.bin_width,
        "skip": args.skip,
        "take": args.take,
        "runs": args.runs,
        "seed": args.seed,
        "format": args.format,
        "output": args.out,
        "workers": args.workers,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = [str(value)]
    for key, values in (
        ("phi", args.phi),
        ("theta", args.theta),
        ("corruption", args.corruption),
        ("filter", args.filter),
        ("estimator", args.estimator),
    ):
        if values:
            mapping[key] = [str(v) for v in values]

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
    p.add_argument("--model", required=True, choices=["fgn", "farima", "ar1", "iid"])
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
    p.add_argument("--kind", required=True, choices=sorted(_CORRUPT_CODES))
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi", type=float, default=0.9)
    p.add_argument("--cycles", type=int, default=10)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("filter", help="apply a preprocessing filter")
    p.add_argument("--kind", required=True, choices=sorted(_FILTER_CODES))
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--degree", type=int, default=10)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("estimate", help="estimate the Hurst parameter")
    p.add_argument("--method", required=True, choices=sorted(_ESTIMATE_CODES))
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--bandwidth", type=int, help="local Whittle bandwidth override")
    p.add_argument("--dump-fit", help="write the fit's (x, y, in_fit) points to a file")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("ingest", help="derive a series from a packet trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", required=True, choices=["bins", "interarrival"])
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
    p.add_argument("--source", choices=["fgn", "farima", "ar1", "iid", "file", "trace"])
    p.add_argument("--n", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--phi", type=float, action="append")
    p.add_argument("--theta", type=float, action="append")
    p.add_argument("--path")
    p.add_argument("--mode", choices=["bins", "interarrival"])
    p.add_argument("--bin-width", type=float)
    p.add_argument("--skip", type=int)
    p.add_argument("--take", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--corruption", action="append", choices=["none", "ar1", "sine", "trend"])
    p.add_argument("--filter", action="append", choices=["none", "log", "linear", "poly"])
    p.add_argument(
        "--estimator",
        action="append",
        choices=["rs", "aggvar", "pgram", "lwhittle", "wavelet", "all"],
    )
    p.add_argument("--format", choices=["csv", "aligned"])
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HurstkitError as exc:
        print(f"hurstkit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hurstkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
