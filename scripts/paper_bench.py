#!/usr/bin/env python3
"""The paper-scale headline: ``drqa`` against the ``gi`` and ``ns`` baselines.

Runs ``rangemon.bench.run_single`` for ``drqa``, ``gi`` and ``ns`` on the
paper-sized Z20k shape (ZIPF s=1.2, 20,000 objects, 200 queries, radius
0.02, object and query speed 0.005, two ticks, seed 0) and on UD and GD
shapes of the same size, with the default ``ClusterSpec`` (100x100 grid,
4 index workers, 2 query workers, fifo loopback).  Every run is a fresh
subprocess, so no engine inherits another's heap, and the engine order
alternates over the repeats (forward in even repeats, reversed in odd
ones).  Writes one JSON file with, per shape and engine, the median phase
times (build, maintenance, initial, incremental), ``messages_sent``,
``objects_examined`` and ``result_hash``; and per shape, ``drqa``'s
change against the best baseline of the initial and the incremental
phase, beside the paper's claims of -22.7% and -15.2%:

    python3 scripts/paper_bench.py --repeats 3 --out BENCH_paper.json

Standard library only; the package is imported from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENGINES = ("drqa", "gi", "ns")
SIZE = dict(n_objects=20_000, n_queries=200, radius=0.02, object_speed=0.005, query_speed=0.005,
            ticks=2, seed=0)
SHAPES = {
    "Z20k": dict(SIZE, distribution="ZIPF", zipf_s=1.2),
    "U20k": dict(SIZE, distribution="UD"),
    "G20k": dict(SIZE, distribution="GD"),
}
PHASES = ("build_time", "maintenance_time", "query_time_initial", "query_time_incremental")
COUNTS = ("messages_sent", "objects_examined", "result_hash")
# the paper's change of drqa's cost against the best baseline
PAPER = {"query_time_initial": -0.227, "query_time_incremental": -0.152}


def child(shape: str, engine: str) -> None:
    """One run, in this process; prints its RunMetrics as one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    from dataclasses import asdict

    from rangemon.bench import run_single
    from rangemon.cluster import ClusterSpec
    from rangemon.workload import WorkloadSpec

    metrics = run_single(WorkloadSpec(**SHAPES[shape]), ClusterSpec(engine=engine))
    print(json.dumps(asdict(metrics)))


def run(shape: str, engine: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", shape, engine],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{shape} {engine}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Median phase times over the repeats; counts must repeat exactly."""
    out = {phase: statistics.median(r[phase] for r in runs) for phase in PHASES}
    out["runs"] = {phase: [r[phase] for r in runs] for phase in PHASES}
    for name in COUNTS:
        values = {r[name] for r in runs}
        if len(values) != 1:
            raise RuntimeError(f"{name} differs between repeats: {sorted(values)}")
        out[name] = values.pop()
    return out


def headline(engines: dict) -> dict:
    """drqa's change against the faster baseline of each claimed phase."""
    out = {}
    for phase, paper in PAPER.items():
        best = min((e for e in engines if e != "drqa"), key=lambda e: engines[e][phase])
        out[phase] = {
            "drqa_s": engines["drqa"][phase],
            "best_baseline": best,
            "best_baseline_s": engines[best][phase],
            "change": engines["drqa"][phase] / engines[best][phase] - 1.0,
            "paper_change": paper,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="shape to run (repeatable); default: all three")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_paper.json")
    parser.add_argument("--child", nargs=2, metavar=("SHAPE", "ENGINE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    shapes = args.shape or list(SHAPES)
    result = {
        "command": "scripts/paper_bench.py",
        "repeats": args.repeats,
        "order": "engines forward in even repeats, reversed in odd repeats",
        "python": platform.python_version(),
        "shapes": {},
    }
    for shape in shapes:
        runs: dict[str, list[dict]] = {e: [] for e in ENGINES}
        for i in range(args.repeats):
            for engine in ENGINES if i % 2 == 0 else ENGINES[::-1]:
                runs[engine].append(run(shape, engine))
                r = runs[engine][-1]
                print(f"{shape} repeat {i} {engine}: initial {r['query_time_initial']:.3f} s, "
                      f"incremental {r['query_time_incremental']:.3f} s", flush=True)
        engines = {e: summarize(runs[e]) for e in ENGINES}
        result["shapes"][shape] = {
            "workload": SHAPES[shape],
            "engines": engines,
            "same_result_hash": len({engines[e]["result_hash"] for e in ENGINES}) == 1,
            "drqa_vs_best_baseline": headline(engines),
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    for shape, s in result["shapes"].items():
        for phase, h in s["drqa_vs_best_baseline"].items():
            print(f"{shape} {phase}: drqa {h['drqa_s']:.3f} s, {h['best_baseline']} "
                  f"{h['best_baseline_s']:.3f} s, change {h['change']:+.1%} (paper {h['paper_change']:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
