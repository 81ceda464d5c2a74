#!/usr/bin/env python3
"""Materialize a synthetic workload as JSONL (file or stdout, pipeable)."""

import argparse
import sys

from rangemon.workload import DISTRIBUTIONS, WorkloadSpec, iter_event_records, write_events


def main() -> int:
    d = WorkloadSpec()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distribution", choices=DISTRIBUTIONS, default=d.distribution)
    parser.add_argument("--objects", type=int, default=d.n_objects)
    parser.add_argument("--queries", type=int, default=d.n_queries)
    parser.add_argument("--radius", type=float, default=d.radius)
    parser.add_argument("--object-speed", type=float, default=d.object_speed)
    parser.add_argument("--query-speed", type=float, default=d.query_speed)
    parser.add_argument("--ticks", type=int, default=d.ticks)
    parser.add_argument("--zipf-s", type=float, default=d.zipf_s)
    parser.add_argument("--grid-n", type=int, default=d.grid_n)
    parser.add_argument("--seed", type=int, default=d.seed)
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    args = parser.parse_args()

    spec = WorkloadSpec(
        distribution=args.distribution,
        n_objects=args.objects,
        n_queries=args.queries,
        radius=args.radius,
        object_speed=args.object_speed,
        query_speed=args.query_speed,
        ticks=args.ticks,
        zipf_s=args.zipf_s,
        grid_n=args.grid_n,
        seed=args.seed,
    )
    if args.out == "-":
        count = write_events(sys.stdout, iter_event_records(spec))
    else:
        with open(args.out, "w") as fp:
            count = write_events(fp, iter_event_records(spec))
        print(f"{count} events -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
