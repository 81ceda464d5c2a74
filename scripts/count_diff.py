#!/usr/bin/env python3
"""Traced work counts of two checkouts, side by side.

Runs ``perfbench/run.py --trace 1 --seed 1 --seconds 5`` of a parent and a
change checkout on every workload of the change's ``BENCHMARK.json``.  For
each workload it prints both sides' ``result_hash`` and every metric whose
value differs, apart from times (unit ``s``), which do not repeat from run
to run.  Counts, bytes and ratios do, so any difference among them is a
change in the work done.  One line per workload says how many work
counters differ: the tree's search counts and the cell delta entries (in
the incremental and the register phase) and the message and id counts.

Then each checkout runs one fixed mixed workload (object reports,
registrations, moves and expiries, shuffled each tick by a seeded RNG)
under every engine, on the fifo loopback, on the random pump and on the
socket transport, where every frame is encoded and decoded again, and
the script compares each tick's answers (the ``result_hash`` of every
query's result, ``queries_ready`` and ``errors``) and, apart from them,
its ``results_digest``, which also moves when queries move between query
workers.  Last, each checkout runs every workload's first round (the
traced run's inputs) untraced, and the script compares the final query id
-> query worker map of the entrance's registry, and prints the line
total of ``src/rangemon/*.py`` in each checkout.  Exits 1 if a
``result_hash``, a tick or a route differs:

    python3 scripts/count_diff.py ../parent .
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# metric name prefixes of the work counters, after any "register." prefix
WORK_COUNTERS = ("mtree.nodes_visited", "mtree.leaf_descents", "mtree.cache_hits",
                 "mtree.objects_examined", "cells.delta_entries", "transport.msgs", "transport.ids")


def traced_run(checkout: Path, workload: str) -> tuple[list[str], dict]:
    """The round hashes and the metrics (name -> {value, unit}) of one run."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "5", "--trace", "1", "--out", out],
            cwd=checkout, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    hashes = [line.rsplit(" ", 1)[1] for line in lines if line.startswith("result_hash seed ")]
    return hashes, json.loads(lines[-1])["metrics"]


# runs in a subprocess on the checkout's own src/; prints one JSON list of
# [result_hash, queries_ready, errors, results_digest] per tick, over every run
TICKS_SCRIPT = """
import json, random
from rangemon.bench import result_hash
from rangemon.cluster import ENGINE_MODES, Cluster, ClusterSpec
from rangemon.geometry import Circle, Point
from rangemon.wire import ObjectUpdate, QueryExpire, QueryMove, QueryRegister

def circle(rng):
    return Circle(Point(rng.random(), rng.random()), rng.uniform(0.02, 0.15))

rows = []
for engine in ENGINE_MODES:
    for transport, policy in (("loopback", "fifo"), ("loopback", "random"), ("socket", "fifo")):
        rng = random.Random(7)
        cluster = Cluster(ClusterSpec(grid_n=20, index_workers=3, query_workers=2, alpha=8, m=4,
                                      engine=engine, transport=transport, loopback_policy=policy,
                                      seed=7))
        positions = {o: Point(rng.random(), rng.random()) for o in range(2000)}
        live, next_q = set(), 0
        events = [ObjectUpdate(o, None, p) for o, p in positions.items()]
        for tick in range(8):
            for o in rng.sample(sorted(positions), 300 if tick else 0):
                new = Point(rng.random(), rng.random())
                events.append(ObjectUpdate(o, positions[o], new))
                positions[o] = new
            chosen = rng.sample(sorted(live), min(len(live), 12))
            events += [QueryMove(q, circle(rng)) for q in chosen[:8]]
            events += [QueryExpire(q) for q in chosen[8:]]
            live -= set(chosen[8:])
            for q in range(next_q, next_q + 10):
                events.append(QueryRegister(q, circle(rng), 0, 100))
                live.add(q)
            next_q += 10
            rng.shuffle(events)
            report = cluster.run_tick(events)
            rows.append([result_hash(cluster.results()), report.queries_ready, report.errors,
                         report.results_digest])
            events = []
        cluster.close()
print(json.dumps(rows))
"""


# runs like TICKS_SCRIPT, and imports the checkout's perfbench/run.py;
# prints, per workload, the query worker of every query after the round
ROUTES_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import run
from rangemon.cluster import Cluster, ClusterSpec

routes = {}
for name in json.loads(sys.argv[1]):
    bench = run.WORKLOADS[name]
    inputs = run.build_inputs(bench, run.sub_seed(1, 0))
    cluster = Cluster(ClusterSpec(engine=bench.engine))
    for events in [inputs.inserts, inputs.registrations] + [step.events for step in inputs.steps]:
        cluster.run_tick(events)
    routes[name] = {q: entry[2] for q, entry in cluster.entrance.registry.items()}
    cluster.close()
print(json.dumps(routes))
"""


def src_lines(checkout: Path) -> int:
    """The line total of the checkout's ``src/rangemon/*.py``, as
    ``cat src/rangemon/*.py | wc -l`` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "rangemon").glob("*.py"))


def script_output(checkout: Path, script: str, *args: str):
    """The JSON that one of the scripts above prints, run in the checkout
    on its own src/."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    hashes_differ = False
    for workload in workloads:
        parent_hashes, parent = traced_run(args.parent, workload)
        change_hashes, change = traced_run(args.change, workload)
        same = parent_hashes == change_hashes
        hashes_differ |= not same
        print(f"{workload}: result_hash parent {' '.join(parent_hashes)}, "
              f"change {' '.join(change_hashes)} ({'same' if same else 'DIFFERENT'})")
        differ = []
        for name in sorted(parent.keys() | change.keys()):
            p, c = parent.get(name), change.get(name)
            if (p or c)["unit"] == "s" or (p and c and p["value"] == c["value"]):
                continue
            differ.append(name)
            p_value = p["value"] if p else "-"
            c_value = c["value"] if c else "-"
            print(f"  {name}: {p_value} -> {c_value} {(p or c)['unit']}")
        work = sum(1 for name in differ if name.removeprefix("register.").startswith(WORK_COUNTERS))
        print(f"  work counters: {f'{work} differ' if work else 'same'}")
    parent_rows, change_rows = (script_output(side, TICKS_SCRIPT) for side in (args.parent, args.change))
    missing = abs(len(parent_rows) - len(change_rows))
    answers = sum(p[:3] != c[:3] for p, c in zip(parent_rows, change_rows)) + missing
    digests = sum(p[3] != c[3] for p, c in zip(parent_rows, change_rows)) + missing
    print(f"tick results: {f'{answers} differ' if answers else 'same'}")
    print(f"tick digests: {f'{digests} differ' if digests else 'same'}")
    parent_routes, change_routes = (script_output(side, ROUTES_SCRIPT, json.dumps(workloads))
                                    for side in (args.parent, args.change))
    routes = sum(parent_routes[w].get(q) != change_routes[w].get(q)
                 for w in workloads for q in parent_routes[w].keys() | change_routes[w].keys())
    print(f"routes: {f'{routes} differ' if routes else 'same'}")
    print(f"src lines: parent {src_lines(args.parent)} -> change {src_lines(args.change)}")
    return 1 if hashes_differ or answers or digests or routes else 0


if __name__ == "__main__":
    sys.exit(main())
