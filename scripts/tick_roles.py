#!/usr/bin/env python3
"""Where an incremental tick goes, per role and message kind.

Builds one benchmark workload's inputs with ``perfbench/run.py``'s
``build_inputs`` for each seed, runs the setup and registration ticks
untimed on a default loopback cluster, then times every incremental tick
and, inside it, each node's handling of each message with
``time.perf_counter``:

    python3 scripts/tick_roles.py --workload uniform-sparse --seeds 7000,7001,7002

Prints, per role (``entrance``, ``iw`` for the index workers, ``qw`` for
the query workers) and message kind (the body's class), the mean
milliseconds per incremental tick and the share of the tick it takes.  On
the loopback transport handlers never nest, so the shares sum to at most
100%; the rest is the pump, the client and the timing itself.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROLES = {"EntranceWorker": "entrance", "IndexWorker": "iw", "QueryWorker": "qw"}


def timed_handler(handle, role: str, spent: Counter):
    """``handle`` adding its time per message kind into ``spent``."""
    clock = time.perf_counter

    def wrapper(node, msg):
        t0 = clock()
        try:
            return handle(node, msg)
        finally:
            spent[f"{role}.{type(msg.body).__name__}"] += clock() - t0

    return wrapper


def measure(workload: str, seeds: list[int]) -> tuple[int, float, Counter]:
    """Incremental ticks run, their total seconds, and the seconds each
    role and message kind took in them."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    from rangemon import cluster as cluster_mod

    bench = run.WORKLOADS[workload]
    ticks, total = 0, 0.0
    spent: Counter = Counter()
    during: Counter = Counter()  # the current tick's handler times
    classes = [getattr(cluster_mod, name) for name in ROLES]
    originals = [cls.__dict__["handle"] for cls in classes]
    # the transport binds each node's handle when the cluster is built
    for cls, handle in zip(classes, originals):
        cls.handle = timed_handler(handle, ROLES[cls.__name__], during)
    try:
        for seed in seeds:
            inputs = run.build_inputs(bench, seed)
            clu = cluster_mod.Cluster(cluster_mod.ClusterSpec(engine=bench.engine))
            try:
                clu.run_tick(inputs.inserts)
                clu.run_tick(inputs.registrations)
                for step in inputs.steps:
                    gc.collect()
                    during.clear()
                    t0 = time.perf_counter()
                    clu.run_tick(step.events)
                    total += time.perf_counter() - t0
                    spent.update(during)
                    ticks += 1
            finally:
                clu.close()
    finally:
        for cls, handle in zip(classes, originals):
            cls.handle = handle
    return ticks, total, spent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    ticks, total, spent = measure(args.workload, seeds)
    print(f"{args.workload}, seeds {args.seeds}: {ticks} incremental ticks, "
          f"{1e3 * total / ticks:.2f} ms per tick")
    print(f"{'role.kind':<24} {'ms/tick':>8} {'share':>7}")
    for key, seconds in spent.most_common():
        print(f"{key:<24} {1e3 * seconds / ticks:>8.3f} {100 * seconds / total:>6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
