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
from .experiments import DEFAULT_CELL_CAP, OUTPUT_FORMATS, load_config, run_experiment
from .reporting import write_records


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
        fmt = args.format or cfg.output_format
        out = Path(args.out or cfg.output_path or f"{cfg.experiment}.{fmt}")
        if not out.parent.is_dir():
            raise ValueError(f"output directory {out.parent} does not exist")
        result = run_experiment(cfg, cap=args.cells_cap)
        write_records(result.records, out, fmt)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a float power that no config check foresees
        print(f"config error: a value overflows a float: {exc}", file=sys.stderr)
        return 2
    for msg in result.messages:
        print(msg, file=sys.stderr)
    print(f"wrote {len(result.records)} records to {out} (exit {result.exit_code})")
    return result.exit_code


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        results = run_all(echo=print)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
    run_p.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
    run_p.add_argument(
        "--cells-cap", type=int, default=DEFAULT_CELL_CAP,
        help="cell budget (default 2^22)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="run the full invariant gate suite")
    check_p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
