"""Command-line entry point: run an experiment file and write a CSV."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import parse_experiment, run_experiment
from .cluster import ENGINE_MODES
from .config import Config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangemon",
        description="Run a moving-object range-query experiment and write CSV metrics.",
    )
    parser.add_argument("--config", metavar="PATH", help="cluster/topology config file")
    parser.add_argument("--experiment", metavar="PATH", required=True, help="experiment spec file")
    parser.add_argument("--engine", choices=ENGINE_MODES, help="override the engine under test")
    parser.add_argument("--out", metavar="PATH", help="override the CSV output path")
    parser.add_argument("--seed", type=int, metavar="N", help="override the RNG seed")
    parser.add_argument("--transport", choices=("loopback", "socket"), help="override the transport")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = Config()
        if args.config:
            cfg = cfg.merged(Config.load(args.config))
        cfg = cfg.merged(Config.load(args.experiment))
        exp = parse_experiment(cfg)
        if args.engine:
            exp = replace(exp, cluster=replace(exp.cluster, engine=args.engine))
        if args.seed is not None:
            exp = replace(exp, workload=replace(exp.workload, seed=args.seed))
        if args.transport:
            exp = replace(exp, cluster=replace(exp.cluster, transport=args.transport))
        out = args.out or exp.output
        rows = run_experiment(exp, out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"rangemon: {exc}", file=sys.stderr)
        return 1
    print(f"{exp.name}: {len(rows)} rows -> {out}")
    for row in rows:
        print(
            f"  {row['engine']} {row['param']}={row['value']} rep={row['repetition']}"
            f" build={row['build_time']}s initial={row['query_time_initial']}s"
            f" incremental={row['query_time_incremental']}s hash={row['result_hash'][:12]}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
