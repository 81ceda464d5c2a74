#!/usr/bin/env python3
"""A/B comparison of two checkouts on the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` of a parent and a change checkout in N
alternating pairs per workload (the parent first in even pairs, the change
first in odd ones), with the same seed and ``--seconds`` on both sides of
a pair, and writes each side's median and quartiles and the per-pair win
count of every end-to-end metric to one JSON file:

    python3 scripts/ab_bench.py --parent ../parent --change . \\
        --pairs 10 --seconds 25 --seed 9001 --out BENCH_9.json

Pair i uses seed ``--seed + i``.  Metric names, units, bounds and which
direction is better come from the change checkout's ``BENCHMARK.json``.
The file is rewritten after every pair, so an interrupted comparison keeps
the pairs it finished.

Each metric also gets a verdict, printed as one row per workload and
metric after the last pair:

* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side), its median is better by more than the parent's
  quartile spread, and no more runs failed than at the parent;
* ``unresolved``: the parent's quartile spread, over its median, is wider
  than the bound, and not every change run is better than every parent
  run;
* ``no regression``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def revision(checkout: Path) -> dict:
    """The checkout's commit and whether its tracked files differ from it;
    both None when it is not a git work tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"rev": rev, "dirty": bool(status) if rev is not None else None}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its final JSON line."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0", "--out", out],
            cwd=checkout, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(m: dict, failed: dict) -> str:
    """The label of one metric's summary ``m``; see the module docstring."""
    p, c = m["parent"], m["change"]
    sign = 1 if m["better"] == "higher" else -1
    gap = sign * (c["median"] - p["median"])  # > 0: the change is better
    base = abs(p["median"])
    if -gap > m["bound"] * base:
        return "regression"
    if (m["change_wins"] >= 0.9 * m["pairs"] and gap > p["q3"] - p["q1"]
            and failed["change"] <= failed["parent"]):
        return "gain"
    all_better = min(sign * v for v in c["runs"]) > max(sign * v for v in p["runs"])
    if p["q3"] - p["q1"] > m["bound"] * base and not all_better:
        return "unresolved"
    return "no regression"


def summarize(spec: dict, runs: dict) -> dict:
    """Per workload and metric: both sides' spread and the change's wins."""
    out = {}
    for workload, sides in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            ties = sum(1 for p, c in zip(parent, change) if c == p)
            p, c = spread(parent), spread(change)
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": p,
                "change": c,
                "change_over_parent": c["median"] / p["median"] if p["median"] else None,
                "change_wins": wins,
                "ties": ties,
                "pairs": len(change),
            }
        failed = {side: sum(r["failed"] for r in sides[side]) for side in ("parent", "change")}
        for m in metrics.values():
            m["verdict"] = verdict(m, failed)
        out[workload] = {
            "metrics": metrics,
            "failed": failed,
            "correct": {side: all(r["correct"] for r in sides[side]) for side in ("parent", "change")},
        }
    return out


def print_verdicts(summary: dict) -> None:
    print(f"{'workload':<20} {'metric':<14} {'change/parent':>13} {'wins':>6} {'parent IQR':>11}  verdict")
    for workload, w in summary.items():
        for name, m in w["metrics"].items():
            ratio = m["change_over_parent"]
            spread = m["parent"]["q3"] - m["parent"]["q1"]
            print(f"{workload:<20} {name:<14} {'-' if ratio is None else f'{ratio:.3f}':>13} "
                  f"{m['change_wins']:>3}/{m['pairs']:<2} {spread:>11.4g}  {m['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: every BENCHMARK.json workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(run_once(checkouts[side], workload, seed, args.seconds))
            got = {side: runs[workload][side][-1]["metrics"]["tick_p50_s"]["value"] for side in order}
            print(f"pair {i} seed {seed} {workload}: tick_p50_s parent {got['parent']:.4g} "
                  f"change {got['change']:.4g}", flush=True)
        summary = summarize(spec, runs)
        args.out.write_text(json.dumps({
            "command": "perfbench/run.py --trace 0",
            "seconds": args.seconds,
            "seeds": [args.seed + j for j in range(i + 1)],
            "order": "parent first in even pairs, change first in odd pairs",
            "parent": revision(args.parent),
            "change": revision(args.change),
            "workloads": summary,
        }, indent=1) + "\n")
    print_verdicts(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
