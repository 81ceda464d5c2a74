#!/usr/bin/env python3
"""Cluster benchmark for rangemon.

Runs one named workload against ``rangemon.cluster.Cluster`` on the
loopback transport and prints every end-to-end metric by name and unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload zipf-hot --seed 1 --seconds 25 --trace 0

Load model: closed loop, one single-threaded client, and the loopback
cluster runs in that same thread.  A run is a series of rounds.  Each round
generates its workload from a seed derived from ``--seed`` and the round
number, builds every tick's events before any timing starts, and then
drives ``Cluster.run_tick`` through three phases, each one tick drained to
its barrier:

* setup: construct the cluster and insert every object;
* register: register every standing query;
* incremental: one tick per workload step, carrying every object's
  position report plus every query move.

After registration and after every incremental tick, outside the timed
region, each query's result is compared with ``baselines.ns_search`` over
the generator's own positions and circles.  Each round runs in a process of
its own.  Rounds repeat until ``--seconds`` have passed (at least
``MIN_ROUNDS``); the timings are medians over rounds and ticks, so one run
averages over many query placements, scaled by a reference loop timed in
the same processes (see ``REF_LOOP_S``).

``--trace 1`` runs round 0 once untraced and once with every layer
wrapped (see ``tracing.py``), and reports the per-layer metrics of the
traced pass plus the tracing overhead, i.e. traced minus untraced phase
times.  Its work is fixed by the seed, so its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3

# A run, its round processes included, must end within this many seconds.
RUN_DEADLINE_S = 170.0

# Host contention on a shared machine slows all code for seconds at a
# time.  Each round therefore also times a fixed pure-Python loop that uses
# no rangemon code, before every phase and after the last one, and scales
# its times by REF_LOOP_S over that loop's median time in the round (one
# figure per round follows the contention better than one per run).  The
# figures are seconds at the speed where the loop takes REF_LOOP_S, about
# its uncontended time on a 2-core 2.1 GHz Xeon VM.
REF_LOOP_S = 0.03


def reference_loop() -> float:
    """Seconds to run a fixed dict, set and tuple workload."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(100_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        pair = (key, i & 7)
        if pair in seen:
            seen.discard(pair)
        else:
            seen.add(pair)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Bench:
    engine: str
    spec: dict  # WorkloadSpec fields other than seed and ticks
    ticks: int  # incremental ticks per round
    move_objects: bool = True  # send object position reports after setup


ZIPF_HOT = dict(distribution="ZIPF", zipf_s=1.2, n_objects=1000, n_queries=100, radius=0.02,
                object_speed=0.005, query_speed=0.005)

# Every workload uses the default ClusterSpec: 100x100 grid, alpha 20, m 6,
# 4 index workers, 2 query workers and the fifo loopback.  BENCHMARK.json
# says why each is there.
WORKLOADS = {
    "zipf-hot": Bench("drqa", ZIPF_HOT, ticks=2),
    "uniform-sparse": Bench(
        "drqa",
        dict(distribution="UD", n_objects=10000, n_queries=400, radius=0.01,
             object_speed=0.005, query_speed=0.0),
        ticks=2),
    "gauss-query-churn": Bench(
        "drqa",
        dict(distribution="GD", gauss_mean=(0.5, 0.5), gauss_sigma=(0.08, 0.08), n_objects=10000,
             n_queries=200, radius=0.04, object_speed=0.0, query_speed=0.01),
        ticks=2, move_objects=False),
    "zipf-hot-gi": Bench("gi", ZIPF_HOT, ticks=2),
    # not a benchmark workload: small enough for the benchmark's own smoke test
    "tiny": Bench(
        "drqa",
        dict(distribution="ZIPF", zipf_s=1.2, n_objects=400, n_queries=12, radius=0.03,
             object_speed=0.01, query_speed=0.01),
        ticks=2),
}

END_TO_END = (
    ("setup_s", "s"),
    ("register_s", "s"),
    ("tick_p50_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
)


def import_rangemon():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rangemon

    if Path(rangemon.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"rangemon imported from {rangemon.__file__}, not from {SRC}")


# -- inputs ---------------------------------------------------------------------


@dataclass
class Step:
    events: list
    positions: dict  # object id -> Point after the step
    circles: dict  # query id -> Circle after the step
    updates: int  # object reports plus query moves


@dataclass
class RoundInputs:
    inserts: list
    registrations: list
    positions: dict
    circles: dict
    steps: list[Step]


def sub_seed(seed: int, round_no: int) -> int:
    return seed * 1000 + round_no


def build_inputs(bench: Bench, seed: int) -> RoundInputs:
    from rangemon.wire import ObjectUpdate, QueryMove, QueryRegister
    from rangemon.workload import Workload, WorkloadSpec

    wl = Workload(WorkloadSpec(**bench.spec, ticks=bench.ticks, seed=seed))
    positions = dict(wl.objects)
    circles = {q: c for q, c, _, _ in wl.queries}
    inputs = RoundInputs(
        inserts=[ObjectUpdate(o, None, p) for o, p in sorted(positions.items())],
        registrations=[QueryRegister(q, c, t0, t1) for q, c, t0, t1 in wl.queries],
        positions=positions, circles=circles, steps=[],
    )
    for _ in range(bench.ticks):
        events: list = []
        if bench.move_objects:
            events = [ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()]
            positions = dict(wl.objects)
        moves = wl.step_queries()
        if moves:
            circles = {**circles, **dict(moves)}
            events.extend(QueryMove(q, c) for q, c in moves)
        inputs.steps.append(Step(events, positions, circles, len(events)))
    return inputs


# -- correctness ----------------------------------------------------------------------


class Oracle:
    """``ns_search`` over the generator's positions, prefiltered by a
    bucket grid of the benchmark's own (one bucket per radius)."""

    def __init__(self, positions: dict, radius: float):
        self.b = max(1, min(256, int(1.0 / radius)))
        self.buckets: dict[tuple[int, int], dict] = {}
        for obj_id, p in positions.items():
            self.buckets.setdefault((self._bucket(p.x), self._bucket(p.y)), {})[obj_id] = p

    def _bucket(self, v: float) -> int:
        return min(max(int(v * self.b), 0), self.b - 1)

    def search(self, circle) -> set[int]:
        from rangemon.baselines import ns_search

        (cx, cy), r = circle
        pad = r + 1e-9
        out: set[int] = set()
        for bx in range(self._bucket(cx - pad), self._bucket(cx + pad) + 1):
            for by in range(self._bucket(cy - pad), self._bucket(cy + pad) + 1):
                cell = self.buckets.get((bx, by))
                if cell:
                    out |= ns_search(cell, circle)
        return out


def count_mismatches(results: dict, positions: dict, circles: dict, radius: float) -> int:
    """Queries whose result differs from the oracle (a missing query counts)."""
    oracle = Oracle(positions, radius)
    return sum(1 for q_id, circle in circles.items() if results.get(q_id) != oracle.search(circle))


# -- one round --------------------------------------------------------------------------


@dataclass
class RoundResult:
    seed: int
    setup_s: float | None = None
    register_s: float | None = None
    tick_s: list[float] = field(default_factory=list)
    updates: int = 0
    attempted: int = 0
    failed: int = 0
    result_hash: str | None = None
    ref_s: list[float] = field(default_factory=list)  # reference loop times
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)  # traced rounds: name -> (value, unit)


def run_round(bench: Bench, seed: int, tracer=None) -> RoundResult:
    """Setup, register and incremental phases on a fresh cluster.  With a
    tracer, its layer wrappers must already be installed."""
    from rangemon.bench import result_hash
    from rangemon.cluster import Cluster, ClusterSpec

    inputs = build_inputs(bench, seed)
    radius = bench.spec["radius"]
    n_queries = len(inputs.circles)
    out = RoundResult(seed)
    # every check of the round: one per query at registration and after each
    # tick, plus one per incremental tick
    total_checks = n_queries + bench.ticks * (n_queries + 1)
    clu = None

    def enter(phase: str, tick: int) -> None:
        if tracer is not None:
            tracer.set_phase(phase)
            tracer.tick = tick
        gc.collect()
        out.ref_s.append(reference_loop())

    def leave() -> None:
        if tracer is not None:
            tracer.encode_sent()

    try:
        enter("setup", 1)
        t0 = time.perf_counter()
        clu = Cluster(ClusterSpec(engine=bench.engine))
        clu.run_tick(inputs.inserts)
        out.setup_s = time.perf_counter() - t0
        leave()

        enter("register", 2)
        t0 = time.perf_counter()
        clu.run_tick(inputs.registrations)
        out.register_s = time.perf_counter() - t0
        leave()
        out.attempted += n_queries
        out.failed += count_mismatches(clu.results(), inputs.positions, inputs.circles, radius)

        for i, step in enumerate(inputs.steps):
            enter("incremental", 3 + i)
            t0 = time.perf_counter()
            report = clu.run_tick(step.events)
            out.tick_s.append(time.perf_counter() - t0)
            leave()
            out.updates += step.updates
            out.attempted += 1 + n_queries
            out.failed += report.queries_ready != n_queries
            out.failed += count_mismatches(clu.results(), step.positions, step.circles, radius)
        out.result_hash = result_hash(clu.results())
        out.ref_s.append(reference_loop())
        if tracer is not None:
            import tracing

            out.layers = tracing.layer_metrics(tracer, out.updates, tracing.tree_state(clu))
    except Exception:  # noqa: BLE001 - a raised tick is a failed check, reported below
        traceback.print_exc()
        out.failed += total_checks - out.attempted
        out.attempted = total_checks
    finally:
        if clu is not None:
            clu.close()
    return out


def child_round(workload: str, seed: int, spans_path: Path | None) -> RoundResult:
    """One round in a process of its own, so no round runs on a heap an
    earlier round left behind and each reports its own peak RSS.  With
    `spans_path`, the round is traced and its spans are written there."""
    import_rangemon()
    bench = WORKLOADS[workload]
    if spans_path is None:
        out = run_round(bench, seed)
    else:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            out = run_round(bench, seed, tracer)
        finally:
            tracer.restore()
        kept = tracer.write(spans_path)
        print(f"{kept} spans written to {spans_path} ({tracer.dropped} not kept)")
    out.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return out


def spawn_round(workload: str, seed: int, spans_path: Path | None, deadline: float) -> RoundResult:
    """Run `child_round` in a fresh interpreter and wait for it to end.
    The round's result is the last line of its standard output; its other
    output is passed on.  `subprocess.run` kills and reaps the child if it
    outlives `deadline` (a `time.perf_counter` value) or this process is
    interrupted, so no round outlives the run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--child"]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                          timeout=max(1.0, deadline - time.perf_counter()))
    *lines, last = proc.stdout.splitlines() or [""]
    for line in lines:
        print(line)
    if proc.returncode != 0:
        raise RuntimeError(f"round {seed} exited with code {proc.returncode}")
    return RoundResult(**json.loads(last))


# -- result hashes ----------------------------------------------------------------------


def check_hashes(out_dir: Path, workload: str, rounds: list[RoundResult]) -> list[str]:
    """Compare each round's result hash with the one an earlier run recorded
    for the same workload definition and seed; returns the disagreements."""
    path = out_dir / "result_hashes.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    definition = hashlib.sha256(repr(WORKLOADS[workload]).encode()).hexdigest()[:12]
    errors = []
    for r in rounds:
        if r.result_hash is None:
            continue
        key = f"{workload}/{definition}/{r.seed}"
        if known.setdefault(key, r.result_hash) != r.result_hash:
            errors.append(f"{key}: result_hash {r.result_hash} but an earlier run had {known[key]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return errors


# -- runs -------------------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[RoundResult], dict]:
    """End-to-end metrics as name -> (value, unit).  Times are scaled to
    the reference speed; the lines printed before the result also give
    them as measured."""
    rounds: list[RoundResult] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(spawn_round(workload, sub_seed(seed, len(rounds)), None, deadline))
    timed = [r for r in rounds if r.setup_s is not None and r.register_s is not None and r.tick_s]
    if not timed:
        raise RuntimeError("no round completed its timed phases")
    updates = sum(r.updates for r in timed)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    def summary(scale) -> dict:
        return {
            "setup_s": statistics.median(r.setup_s * scale(r) for r in timed),
            "register_s": statistics.median(r.register_s * scale(r) for r in timed),
            "tick_p50_s": statistics.median(t * scale(r) for r in timed for t in r.tick_s),
            # each round's updates over its total incremental time; the
            # median keeps one stalled tick from moving the figure
            "updates_per_s": statistics.median(r.updates / (sum(r.tick_s) * scale(r)) for r in timed),
        }

    measured = summary(lambda r: 1.0)
    metrics = summary(lambda r: REF_LOOP_S / statistics.median(r.ref_s))
    metrics["peak_rss_mb"] = statistics.median(r.rss_mb for r in rounds)
    metrics["pass_frac"] = 1.0 - failed / attempted
    n_ticks = sum(len(r.tick_s) for r in timed)
    notes = {
        "setup_s": f"median of {len(timed)} rounds",
        "register_s": f"median of {len(timed)} rounds",
        "tick_p50_s": f"median of {n_ticks} ticks",
        "updates_per_s": f"median of {len(timed)} rounds, {updates} updates",
        "peak_rss_mb": f"median of {len(rounds)} processes",
    }
    ref_ms = sorted(statistics.median(r.ref_s) * 1e3 for r in rounds)
    print(f"{len(rounds)} rounds, round seeds {rounds[0].seed}..{rounds[-1].seed}, "
          f"{time.perf_counter() - start:.1f} s; reference loop {ref_ms[0]:.2f}..{ref_ms[-1]:.2f} ms "
          f"over rounds, each round's times scaled by {REF_LOOP_S * 1e3:g} ms over its own")
    for name, unit in END_TO_END:
        note = [notes[name]] if name in notes else []
        if name in measured:
            note.append(f"{measured[name]:.6g} {unit} as measured")
        print(f"{name} {metrics[name]:.6g} {unit}" + (f" ({'; '.join(note)})" if note else ""))
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")
    return rounds, {name: (metrics[name], unit) for name, unit in END_TO_END}


def traced_run(workload: str, seed: int, out_dir: Path, deadline: float) -> tuple[list[RoundResult], dict]:
    """Per-layer metrics as name -> (value, unit)."""
    round_seed = sub_seed(seed, 0)
    plain = spawn_round(workload, round_seed, None, deadline)
    traced = spawn_round(workload, round_seed, out_dir / f"spans-{workload}-{seed}.json", deadline)
    if traced.result_hash != plain.result_hash:
        traced.failed += 1
        print(f"traced and untraced results differ: {traced.result_hash} vs {plain.result_hash}",
              file=sys.stderr)
    values = dict(traced.layers)
    # traced minus untraced phase times, each scaled by its own round's
    # reference loop like the end-to-end times
    k_traced, k_plain = (REF_LOOP_S / statistics.median(r.ref_s) for r in (traced, plain))
    for phase in ("setup", "register"):
        t, p = getattr(traced, phase + "_s"), getattr(plain, phase + "_s")
        values[f"trace.overhead.{phase}_s"] = (
            t * k_traced - p * k_plain if t is not None and p is not None else 0.0, "s")
    values["trace.overhead.incremental_s"] = (sum(traced.tick_s) * k_traced - sum(plain.tick_s) * k_plain, "s")
    values["trace.ref_loop_s"] = (statistics.median(traced.ref_s), "s")
    print(f"traced round seed {round_seed}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    return [plain, traced], values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for span files and recorded result hashes")
    # internal: run the round with seed --seed in this process (see spawn_round)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(asdict(child_round(args.workload, args.seed, args.spans))))
        return 0
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        import_rangemon()
    except ImportError as exc:
        print(f"cannot import rangemon from {SRC}: {exc}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    bench = WORKLOADS[args.workload]
    print(f"workload {args.workload}: engine {bench.engine}, {bench.spec}, "
          f"{bench.ticks} incremental ticks per round, seed {args.seed}, trace {args.trace}")
    if args.trace:
        rounds, metrics = traced_run(args.workload, args.seed, args.out, deadline)
    else:
        rounds, metrics = timed_run(args.workload, args.seed, args.seconds, deadline)
    errors = check_hashes(args.out, args.workload, rounds)
    for error in errors:
        print(error, file=sys.stderr)
    for r in rounds:
        print(f"result_hash seed {r.seed}: {r.result_hash}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
