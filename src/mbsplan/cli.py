"""Command-line front end.

Four subcommands mirror the experiments the toolkit supports: ``run`` (one
scenario, full artifact set), ``sweep-density`` and ``sweep-cost`` (the two
parameter sweeps), and ``validate`` (analytic model vs Monte Carlo and
grid-scan oracles).

Exit codes: 0 on success, 1 when a validation or feasibility constraint
fails, 2 on bad input (config, flags, unreadable files).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .pipeline import (run_pipeline, sweep_cost_ratio, sweep_density_ratio,
                       validate, write_sweep_csv)


# glibc mallopt parameters and the values the command line fixes them at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES, _MMAP_THRESHOLD_BYTES = 64 << 20, 32 << 20


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Keep freed array memory in the heap for the next command to reuse.

    glibc serves a large block by mmap, and hands the free top of its heap
    back to the kernel, below thresholds it raises as the process frees
    mmapped blocks. Whether a command's temporaries came back as fresh,
    page-faulted memory then hung on its input, on the process layout and
    on what ran before: ``validate --trials 1000`` took 0 to about 300
    minor faults per call. Fixed thresholds take that out. Off Linux,
    or where the C library has no ``mallopt``, nothing is set.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _ratio_range(text: str) -> np.ndarray:
    """Parse ``start:stop:count`` into an inclusive linearly spaced vector."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric start:stop:count, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"start and stop must be finite, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, got {count}")
    if count > 10_000:
        raise argparse.ArgumentTypeError(f"count must be at most 10000, got {count}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"stop {stop} is below start {start}")
    return np.linspace(start, stop, count)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first ``main`` call and
    shared by the later ones. Building it takes 0.7-1.1 ms on a 2-vCPU Xeon
    VM, mostly in gettext lookups and terminal-size queries, and
    ``parse_args`` keeps no state in the parser between calls."""
    parser = argparse.ArgumentParser(
        prog="mbsplan",
        description="Capacity planning for hybrid static/mobile cellular deployments.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="dimension one scenario and write all artifacts")
    run_p.add_argument("--config", default=None,
                       help="scenario config JSON (default: built-in two-district scenario)")
    run_p.add_argument("--out", required=True, help="output directory")

    for name, help_text, default_csv in (
            ("sweep-density", "sweep the office/residential user-density ratio",
             "sweep_density.csv"),
            ("sweep-cost", "sweep the static/mobile unit-cost ratio", "sweep_cost.csv")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="scenario config JSON (default: built-in scenario)")
        p.add_argument("--ratios", required=True, type=_ratio_range,
                       metavar="START:STOP:COUNT",
                       help="inclusive linear range of ratios, e.g. 1:10:10")
        p.add_argument("--out", default=".",
                       help=f"output directory for {default_csv} (default: current dir)")

    val_p = sub.add_parser("validate", help="check the analytic model against oracles")
    val_p.add_argument("--config", default=None,
                       help="scenario config JSON (default: built-in scenario)")
    val_p.add_argument("--trials", type=int, default=10000,
                       help="Monte Carlo trials per spot check (1000 to 1000000, default 10000)")
    val_p.add_argument("--seed", type=int, default=1234, help="oracle RNG seed")
    return parser


def _cmd_run(args) -> int:
    report = run_pipeline(args.config, args.out)
    print(f"wrote {Path(args.out)}")
    print(f"total saving: {100 * report.total_saving_fraction:.2f}% "
          f"(static-only {report.static_only_total:.1f} stations, "
          f"hybrid {report.hybrid_total:.1f})")
    return 0


def _cmd_sweep(args, sweep_fn, csv_name: str) -> int:
    result = sweep_fn(args.config, args.ratios)
    path = Path(args.out) / csv_name
    write_sweep_csv(path, result)
    print(f"wrote {path} ({result.parameter_values.size - len(result.failures)} points)")
    for value, message in result.failures:
        print(f"point {value:g} failed: {message}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_validate(args) -> int:
    report = validate(args.config, mc_trials=args.trials, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _fix_malloc_thresholds()
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep-density":
            return _cmd_sweep(args, sweep_density_ratio, "sweep_density.csv")
        if args.command == "sweep-cost":
            return _cmd_sweep(args, sweep_cost_ratio, "sweep_cost.csv")
        return _cmd_validate(args)
    except (ValueError, OSError) as exc:
        # covers config schema errors (ScenarioError is a ValueError),
        # malformed JSON, and unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        # infeasible demand, non-convergent model, solver breakdown
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
