"""Command-line entry point.

``vilenkin-lab run <config.json>`` executes one experiment and writes its
records; ``vilenkin-lab check`` runs the full gate suite.  Exit codes:
0 success, 2 an assertion-grade check failed, 3 a capacity limit was hit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .acceptance import run_all
from .errors import CapacityError
from .experiments import load_config, run_experiment
from .reporting import write_records
from . import frozen


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw["seed"] = args.seed
    fmt = args.format or cfg.output_format
    out = Path(args.out or cfg.output_path or f"{cfg.experiment}.{fmt}")
    if not out.parent.is_dir():
        print(f"config error: output directory {out.parent} does not exist", file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg, cap=args.cells_cap)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        write_records(result.records, out, fmt)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for msg in result.messages:
        print(msg, file=sys.stderr)
    print(f"wrote {len(result.records)} records to {out} (exit {result.exit_code})")
    return result.exit_code


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_all(min_speedup=args.min_speedup, echo=print)
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed in {total:.1f}s")
    return 0 if not failed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilenkin-lab",
        description="Fourier analysis experiments on bounded Vilenkin groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument("--out", help="output path (default: config output.path)")
    run_p.add_argument("--format", choices=("csv", "json"), help="output format")
    run_p.add_argument(
        "--cells-cap", type=int, default=None,
        help="cell budget override (env VILENKIN_CELL_CAP, default 2^22)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="run the full invariant gate suite")
    check_p.add_argument(
        "--min-speedup", type=float, default=frozen.MIN_SPEEDUP,
        help="relax or tighten the transform performance gate",
    )
    check_p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
