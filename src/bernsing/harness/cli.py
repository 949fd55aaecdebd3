"""Command-line front end.

Subcommands: lemmas | direct | inverse | rates | dump-operator.
Exit codes: 0 when everything passed, 1 when any check failed,
2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from ..exceptions import Degenerate
from ..moduli import T_MAX
from ..weights import StepWeight, WeightParams
from .checks import direct_check, error_decay, inverse_check, lemma_suite, operator_dump
from .config import ExperimentConfig
from .rates import _csv, lemma_results_to_csv, report_to_csv, report_to_json

__all__ = ["run_cli", "main"]


class UsageError(Exception):
    pass


# flag -> (value type, rule on the endpoints, the rule in words)
_SWEEPS = {
    "n": (int, lambda lo, hi: 1 <= lo <= hi and not (lo & (lo - 1) or hi & (hi - 1)),
          "1 <= min <= max, both powers of two"),
    "t": (float, lambda lo, hi: 0.0 < lo <= hi <= T_MAX, f"0 < min <= max <= {T_MAX}"),
}


def _parse_sweep(flag: str, spec) -> tuple:
    """'min:max' -> doubling ladder from min up to max; a single value
    is allowed.  A list (from --config) is a sweep of its own entries,
    each checked as a single value."""
    if isinstance(spec, (list, tuple)):
        return tuple(v for item in spec for v in _parse_sweep(flag, str(item)))
    spec = str(spec)
    kind, valid, rule = _SWEEPS[flag]
    try:
        lo_s, hi_s = spec.split(":", 1) if ":" in spec else (spec, spec)
        lo, hi = kind(lo_s), kind(hi_s)
    except ValueError as e:
        raise UsageError(f"cannot parse --{flag} {spec!r}: {e}") from None
    if not valid(lo, hi):
        raise UsageError(f"--{flag} range must satisfy {rule}, got {spec!r}")
    vals = []
    v = lo
    while v <= hi * (1.0 + 1e-12):
        vals.append(min(v, hi))
        v *= 2
    return tuple(vals)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernsing",
        description="Verification experiments for Bernstein-type approximation "
        "around an interior singularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("lemmas", "run all bounded-constant and decay checks"),
        ("direct", "Jackson-type error/modulus ratio sweep"),
        ("inverse", "exponent recovery for a function of known smoothness"),
        ("rates", "raw weighted-error decay table with a log-log fit"),
        ("dump-operator", "knots and spliced samples of the largest degree"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--xi", type=float, help="singularity location in (0,1)")
        p.add_argument("--alpha", type=float, help="weight exponent, > 0")
        p.add_argument("--beta0", type=float, default=0.5, help="step-weight exponent at 0")
        p.add_argument("--beta1", type=float, default=0.5, help="step-weight exponent at 1")
        p.add_argument("--function", default="inner-root", help="corpus function name")
        p.add_argument("--alpha0", type=float, default=None,
                       help="nominal exponent for inner-cusp")
        p.add_argument("--n", default="64:1024", help="powers-of-two degree sweep min:max")
        p.add_argument("--t", default="0.001953125:0.125",
                       help="geometric scale sweep min:max (doubling)")
        p.add_argument("--grid", type=int, default=4097, help="uniform grid density")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override the flags")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read --config {args.config!r}: {e}") from None
        if not isinstance(overrides, dict):
            raise UsageError(f"--config {args.config!r} must hold a JSON object, "
                             f"got {overrides!r}")
        unknown = set(overrides) - set(merged)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(overrides)
    return merged


def _experiment_config(merged: dict) -> tuple[ExperimentConfig, str | None, str]:
    """The experiment, the output path (None for stdout) and the format."""
    for key in ("xi", "alpha"):
        if merged[key] is None:
            raise UsageError(f"--{key} is required (flag or config file)")
    n_values = _parse_sweep("n", merged["n"])
    t_values = _parse_sweep("t", merged["t"])
    grid, out, fmt = merged["grid"], merged["out"], str(merged["format"])
    if type(grid) is not int:
        raise UsageError(f"grid must be an integer, got {grid!r}")
    if out is not None and not isinstance(out, str):
        raise UsageError(f"out must be a path string, got {out!r}")
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        cfg = ExperimentConfig(
            params=WeightParams(xi=float(merged["xi"]), alpha=float(merged["alpha"])),
            sw=StepWeight(beta0=float(merged["beta0"]), beta1=float(merged["beta1"])),
            function_name=str(merged["function"]),
            n_values=n_values,
            t_values=t_values,
            grid_density=grid,
            alpha0=None if merged["alpha0"] is None else float(merged["alpha0"]),
        )
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from None
    return cfg, out, fmt


def _dump_to_csv(dump: dict) -> str:
    n = dump["n"]
    return _csv(["k", "t", "fbar_sample"],
                ((k, k / n, s) for k, s in enumerate(dump["samples"])))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg, out, fmt = _experiment_config(_merge_config(args))
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.command == "lemmas":
            result = lemma_suite(cfg)
            ok = all(r.verdict != "fail" for r in result.values())
            to_csv = lemma_results_to_csv
        elif args.command == "dump-operator":
            result, ok = operator_dump(cfg), True
            to_csv = _dump_to_csv
        else:
            check = {"direct": direct_check, "inverse": inverse_check, "rates": error_decay}
            result = check[args.command](cfg)
            ok = result.verdict == "pass"
            to_csv = report_to_csv
        _write(to_csv(result) if fmt == "csv" else report_to_json(result), out)
    except Degenerate as e:
        sys.stderr.write(f"check failed: {e}\n")
        return 1
    except OSError as e:
        sys.stderr.write(f"error: cannot write the output: {e}\n")
        return 2
    except (ValueError, MemoryError) as e:
        # a MemoryError is an array too large for this machine, such as
        # the grid of an oversize --grid: a configuration error
        sys.stderr.write(f"error: {e}\n")
        return 2
    return 0 if ok else 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
