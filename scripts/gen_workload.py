#!/usr/bin/env python3
"""Materialize a synthetic workload as JSONL (file or stdout, pipeable).

The workload is set by ``key=value`` arguments named as in an experiment
file (the ``workload.*`` keys, ``rng.seed`` and ``grid.n``); a key left
out keeps its ``WorkloadSpec`` default:

    python3 scripts/gen_workload.py workload.distribution=GD \\
        workload.gauss_sigma=0.1,0.1 rng.seed=3 --out gd.jsonl
"""

import argparse
import sys

from rangemon.bench import WORKLOAD_KEYS
from rangemon.config import Config
from rangemon.workload import WorkloadSpec, iter_event_records, write_events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("settings", nargs="*", metavar="KEY=VALUE", help=f"one of {', '.join(WORKLOAD_KEYS)}")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    args = parser.parse_args(argv)
    values = dict(s.partition("=")[::2] for s in args.settings)
    unknown = sorted(values.keys() - WORKLOAD_KEYS.keys())
    if unknown:
        parser.error(f"unknown keys: {', '.join(unknown)}")
    try:
        spec = Config(values).applied(WorkloadSpec(), WORKLOAD_KEYS)
    except ValueError as exc:
        parser.error(str(exc))
    if args.out == "-":
        count = write_events(sys.stdout, iter_event_records(spec))
    else:
        with open(args.out, "w") as fp:
            count = write_events(fp, iter_event_records(spec))
        print(f"{count} events -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
