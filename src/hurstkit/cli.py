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
from .errors import ConfigError, HurstkitError
from .estimators import estimate
from .harness import (
    CONFIG_KEYS,
    CORRUPTIONS,
    FILTERS,
    GENERATOR_MODELS,
    METHODS,
    FileSource,
    build_experiment_spec,
    build_source,
    cast_config,
    export_acf,
    format_matrix,
    open_input,
    parse_config,
    refuse_unread,
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


def _flags(args: argparse.Namespace) -> dict[str, list[str]]:
    """The config keys given as flags, mapped as parse_config maps a file's lines."""
    given = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    return {key: v if isinstance(v, list) else [v] for key, v in given.items() if v is not None}


def _cmd_source(args: argparse.Namespace) -> int:
    config = cast_config(_flags(args))
    return _write_series_arg(build_source(config).make(config.get("seed", 0)), args.out)


def _cmd_corrupt(args: argparse.Namespace) -> int:
    (name,) = CORRUPTIONS(args.kind)
    fields = cast_config(_flags(args)) | ({} if args.corruption_phi is None else {"phi": args.corruption_phi})
    seed = fields.pop("seed", 0)
    refuse_unread(fields, transforms=[name], also=("phi",) if name == "ar1" else ())
    kind = CorruptionKind(name=name, **fields)
    return _write_series_arg(corrupt(FileSource(args.infile).make(0), kind, seed=seed), args.out)


def _cmd_filter(args: argparse.Namespace) -> int:
    (name,) = FILTERS(args.kind)
    fields = cast_config(_flags(args))
    refuse_unread(fields, transforms=[name])
    kind = FilterKind(name=name, **fields)
    return _write_series_arg(apply_filter(FileSource(args.infile).make(0), kind), args.out)


def _cmd_estimate(args: argparse.Namespace) -> int:
    methods = METHODS(args.method)
    if args.bandwidth is not None and "local_whittle" not in methods:
        raise ConfigError("--bandwidth applies only to --method lwhittle or all")
    if args.dump_fit and (len(methods) != 1 or methods == ("local_whittle",)):
        raise ConfigError("--dump-fit needs one estimator with a log-log fit, not 'all' or 'lwhittle'")
    series = FileSource(args.infile).make(0)
    reports = [
        estimate(series, method, **({"m": args.bandwidth} if method == "local_whittle" else {}))
        for method in methods
    ]
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
        fit = reports[0].fit
        with _open_out(args.dump_fit) as fh:
            for i, (lx, ly) in enumerate(zip(fit.xs, fit.ys)):
                in_fit = 1 if fit.fit_lo <= i <= fit.fit_hi else 0
                fh.write(f"{np.exp(lx):.10g} {np.exp(ly):.10g} {in_fit}\n")
    return 0


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
    spec = build_experiment_spec(mapping | _flags(args))
    matrix = run_matrix(spec)
    text = format_matrix(matrix, spec.fmt)
    with _open_out(spec.output) as fh:
        fh.write(text)
    return 0


def _key_flags(parser: argparse.ArgumentParser, *keys: str, required: tuple[str, ...] = ()) -> None:
    """One flag per config key, named after it; cast_config parses what it is given."""
    for key in keys:
        spec = CONFIG_KEYS[key]
        flags = [f"--{key}"] + (["--out"] if key == "output" else [])
        action = "append" if spec.is_list else "store"
        parser.add_argument(
            *flags, dest=key, action=action, choices=spec.choices, required=key in required, help=f"config key {key!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurstkit",
        description="Generate, corrupt, filter and analyse long-range-dependent time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a series")
    p.add_argument("--model", dest="source", required=True, choices=GENERATOR_MODELS)
    _key_flags(p, "n", "seed", "h", "d", "phi", "theta", "sigma", required=("n",))
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_source)

    p = sub.add_parser("corrupt", help="add a std-matched corruption")
    p.add_argument("--kind", required=True, choices=[c for c in CORRUPTIONS.names if c != "none"])
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    _key_flags(p, "seed", "cycles")
    p.add_argument("--phi", dest="corruption_phi", type=float, help="AR(1) coefficient (no config key)")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("filter", help="apply a preprocessing filter")
    p.add_argument("--kind", required=True, choices=[c for c in FILTERS.names if c != "none"])
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    _key_flags(p, "degree")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("estimate", help="estimate the Hurst parameter")
    p.add_argument("--method", required=True, choices=METHODS.names)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--bandwidth", type=int, help="local Whittle bandwidth override")
    p.add_argument("--dump-fit", help="write the fit's (x, y, in_fit) points to a file")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("ingest", help="derive a series from a packet trace")
    p.add_argument("--trace", dest="path", required=True)
    _key_flags(p, "mode", "bin-width", "skip", "take", required=("mode",))
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_source, source="trace")

    p = sub.add_parser("acf", help="export 'lag rho |rho|' columns")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("matrix", help="run an experiment matrix")
    p.add_argument("--config", help="key=value config file")
    _key_flags(p, *CONFIG_KEYS)
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
