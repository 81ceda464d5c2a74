#!/usr/bin/env python3
"""The paper-scale headline: ``drqa`` against the ``gi`` and ``ns`` baselines.

Runs ``rangemon.bench.run_single`` for ``drqa``, ``gi`` and ``ns`` on the
paper-sized Z20k shape (ZIPF s=1.2, 20,000 objects, 200 queries, radius
0.02, object and query speed 0.005, two ticks, seed 0) and on UD and GD
shapes of the same size (U20k, G20k), with the default ``ClusterSpec``
(100x100 grid, 4 index workers, 2 query workers, fifo loopback).  A phase
time covers only the phase's ``Cluster.run_tick`` calls.  Every run is a
fresh subprocess, so no engine inherits another's heap, and the engine
order alternates over the repeats (forward in even repeats, reversed in
odd ones).

``--sweep PARAM=v1,v2,...`` runs each shape at each point of one sweep
parameter of ``rangemon.bench.SWEEPABLE`` (as ``sweep.PARAM`` in an
experiment file), set by ``rangemon.bench._apply_point``; an unknown
parameter or a non-positive value fails by name.  README gives the m,
alpha, population and radius sweeps:

    python3 scripts/paper_bench.py --shape Z20k --sweep radius=0.01,0.02,0.05

Writes one JSON file (``BENCH_paper.json``, or ``BENCH_paper_sweep.json``
for a sweep, unless ``--out`` names one) with, per shape (or shape and
sweep point) and engine, the median and every repeat's phase times
(build, maintenance, initial, incremental), and ``messages_sent``,
``objects_examined`` and ``result_hash``, which must repeat exactly.  The
headline of each shape and of the initial and the incremental phase is a
paired ratio: in each repeat, ``drqa``'s time over the best baseline's
time in the same repeat, the best baseline being the one with the lower
median.  It gives the median ratio and its min-max over the repeats,
beside the paper's claims of 0.773 and 0.848, and a verdict: ``drqa
faster`` or ``drqa slower`` if the whole spread is on one side of 1.0,
``unresolved`` if not:

    python3 scripts/paper_bench.py --repeats 5 --out BENCH_paper.json

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
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rangemon.bench import ExperimentSpec, _apply_point, run_single  # noqa: E402
from rangemon.cluster import ClusterSpec  # noqa: E402
from rangemon.workload import WorkloadSpec  # noqa: E402

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
# the paper's ratio of drqa's cost to the best baseline's
PAPER = {"query_time_initial": 1 - 0.227, "query_time_incremental": 1 - 0.152}


def sweep(text: str) -> tuple[str, list[float]]:
    """``PARAM=v1,v2,...`` as a sweep that ``ExperimentSpec`` accepts."""
    param, _, values = text.partition("=")
    try:
        points = [float(v) for v in values.split(",")]
        ExperimentSpec(sweeps={param: points})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return param, points


def child(shape: str, engine: str, point: tuple[str, list[float]] | None) -> None:
    """One run, in this process; prints its RunMetrics as one JSON line."""
    param, value = (point[0], point[1][0]) if point else (None, 0.0)
    exp = ExperimentSpec(workload=WorkloadSpec(**SHAPES[shape]), cluster=ClusterSpec(engine=engine))
    print(json.dumps(asdict(run_single(*_apply_point(exp, param, value)))))


def run(shape: str, engine: str, point: str | None) -> dict:
    cmd = [sys.executable, __file__, "--child", shape, engine]
    proc = subprocess.run(cmd + (["--sweep", point] if point else []), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{shape} {engine} {point or ''}: exit {proc.returncode}\n{proc.stderr}")
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


def paired(runs: dict[str, list[dict]]) -> dict:
    """Per claimed phase, drqa's time over the best baseline's in the same
    repeat: the median and min-max over the repeats."""
    out = {}
    for phase, paper in PAPER.items():
        medians = {e: statistics.median(r[phase] for r in runs[e]) for e in runs}
        best = min((e for e in runs if e != "drqa"), key=medians.get)
        ratios = [d[phase] / b[phase] for d, b in zip(runs["drqa"], runs[best])]
        low, high = min(ratios), max(ratios)
        out[phase] = {
            "best_baseline": best,
            "drqa_median_s": medians["drqa"],
            "best_baseline_median_s": medians[best],
            "ratio_median": statistics.median(ratios),
            "ratio_min": low,
            "ratio_max": high,
            "verdict": "drqa faster" if high < 1 else "drqa slower" if low > 1 else "unresolved",
            "paper_ratio": paper,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="shape to run (repeatable); default: all three")
    parser.add_argument("--sweep", type=sweep, metavar="PARAM=v1,v2,...",
                        help="run each shape at each value of one sweep parameter")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_paper.json, or BENCH_paper_sweep.json for a sweep")
    parser.add_argument("--child", nargs=2, metavar=("SHAPE", "ENGINE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child, args.sweep)
        return 0
    points = [None]
    if args.sweep:
        # each point as the child's --sweep reads it back; 20000.0 reads as 20000
        param, values = args.sweep
        points = [f"{param}={str(v).removesuffix('.0')}" for v in values]
    out = args.out or ROOT / ("BENCH_paper_sweep.json" if args.sweep else "BENCH_paper.json")
    result = {
        "command": "scripts/paper_bench.py",
        "repeats": args.repeats,
        "order": "engines forward in even repeats, reversed in odd repeats",
        "python": platform.python_version(),
        "workloads": {shape: SHAPES[shape] for shape in args.shape or SHAPES},
        "runs": {},
    }
    for shape in result["workloads"]:
        for point in points:
            label = f"{shape} {point}" if point else shape
            runs: dict[str, list[dict]] = {e: [] for e in ENGINES}
            for i in range(args.repeats):
                for engine in ENGINES if i % 2 == 0 else ENGINES[::-1]:
                    r = run(shape, engine, point)
                    runs[engine].append(r)
                    print(f"{label} repeat {i} {engine}: initial {r['query_time_initial']:.3f} s, "
                          f"incremental {r['query_time_incremental']:.3f} s", flush=True)
            engines = {e: summarize(runs[e]) for e in ENGINES}
            result["runs"][label] = {
                "engines": engines,
                "same_result_hash": len({engines[e]["result_hash"] for e in ENGINES}) == 1,
                "drqa_vs_best_baseline": paired(runs),
            }
            out.write_text(json.dumps(result, indent=1) + "\n")
    for label, s in result["runs"].items():
        for phase, h in s["drqa_vs_best_baseline"].items():
            print(f"{label} {phase}: drqa/{h['best_baseline']} median {h['ratio_median']:.3f} "
                  f"[{h['ratio_min']:.3f}, {h['ratio_max']:.3f}] {h['verdict']} (paper {h['paper_ratio']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
