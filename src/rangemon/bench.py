"""Benchmark harness: runs an experiment matrix against the cluster and
emits one CSV row per sweep point per repetition.

A run has four timed phases: build (initial object inserts), maintenance
(movement ticks with no queries registered), initial query (all
registrations), and incremental (movement ticks with queries live).  The
correctness columns (objects_examined, messages_sent, result_hash) are
deterministic for a fixed seed on the loopback transport; the timing
columns are machine-relative.
"""

from __future__ import annotations

import csv
import hashlib
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from .baselines import GridStore, gi_search, ns_search
from .cluster import Cluster, ClusterSpec, ENGINE_MODES
from .config import Config
from .engine import Engine
from .geometry import Circle, Point
from .grid import GridIndex
from .mtree import SearchStats, SplitConfig
from .workload import Workload, WorkloadSpec, read_events
from .wire import ObjectUpdate, QueryExpire, QueryMove, QueryRegister

CSV_COLUMNS = [
    "experiment", "engine", "distribution", "param", "value",
    "n_objects", "n_queries", "radius", "alpha", "m", "seed", "repetition",
    "build_time", "maintenance_time", "query_time_initial", "query_time_incremental",
    "throughput", "objects_examined", "messages_sent", "result_hash",
]

SWEEPABLE = ("m", "alpha", "radius", "objects", "queries", "object_speed", "query_speed")


@dataclass
class ExperimentSpec:
    name: str = "experiment"
    engine: str = "drqa"
    repetitions: int = 1
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    sweeps: dict[str, list[float]] = field(default_factory=dict)
    object_queue_cap: int = 50_000
    query_queue_cap: int = 10_000
    measure_throughput: bool = False
    workload_file: str | None = None
    output: str = "results.csv"

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.engine not in ENGINE_MODES:
            raise ValueError(f"unknown engine {self.engine!r}")
        for param, values in self.sweeps.items():
            if param not in SWEEPABLE:
                raise ValueError(f"cannot sweep {param!r}; one of {SWEEPABLE}")
            if any(v <= 0 for v in values):
                raise ValueError(f"sweep values for {param} must be positive")


def parse_experiment(cfg: Config) -> ExperimentSpec:
    mean = cfg.get_floats("workload.gauss_mean") or [0.5, 0.5]
    sigma = cfg.get_floats("workload.gauss_sigma") or [0.2, 0.2]
    workload = WorkloadSpec(
        distribution=cfg.get("workload.distribution", "UD"),
        n_objects=cfg.get_int("workload.objects", 10_000),
        n_queries=cfg.get_int("workload.queries", 100),
        radius=cfg.get_float("workload.radius", 0.02),
        object_speed=cfg.get_float("workload.object_speed", 0.005),
        query_speed=cfg.get_float("workload.query_speed", 0.0),
        ticks=cfg.get_int("workload.ticks", 5),
        seed=cfg.get_int("rng.seed", 0),
        zipf_s=cfg.get_float("workload.zipf_s", 1.0),
        gauss_mean=(mean[0], mean[1]),
        gauss_sigma=(sigma[0], sigma[1]),
        grid_n=cfg.get_int("grid.n", 100),
    )
    sweeps = {}
    for param in SWEEPABLE:
        values = cfg.get_floats(f"sweep.{param}")
        if values:
            sweeps[param] = values
    exp = ExperimentSpec(
        name=cfg.get("experiment.name", "experiment"),
        engine=cfg.get("experiment.engine", "drqa"),
        repetitions=cfg.get_int("experiment.repetitions", 1),
        workload=workload,
        cluster=cfg.cluster_spec(),
        sweeps=sweeps,
        object_queue_cap=cfg.get_int("queues.object_cap", 50_000),
        query_queue_cap=cfg.get_int("queues.query_cap", 10_000),
        measure_throughput=cfg.get_bool("measure.throughput", False),
        workload_file=cfg.get("workload.file"),
        output=cfg.get("experiment.output", "results.csv"),
    )
    unknown = sorted(cfg.values.keys() - cfg.read)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return exp


def _apply_point(exp: ExperimentSpec, param: str | None, value: float) -> tuple[WorkloadSpec, ClusterSpec]:
    wl, cl = exp.workload, replace(exp.cluster, engine=exp.engine)
    if param == "m":
        cl = replace(cl, m=int(value))
    elif param == "alpha":
        cl = replace(cl, alpha=int(value))
    elif param == "radius":
        wl = replace(wl, radius=value)
    elif param == "objects":
        wl = replace(wl, n_objects=int(value))
    elif param == "queries":
        wl = replace(wl, n_queries=int(value))
    elif param == "object_speed":
        wl = replace(wl, object_speed=value)
    elif param == "query_speed":
        wl = replace(wl, query_speed=value)
    wl = replace(wl, grid_n=cl.grid_n)
    return wl, cl


def result_hash(results: dict[int, set[int]]) -> str:
    digest = hashlib.sha256()
    for q_id in sorted(results):
        digest.update(repr((q_id, sorted(results[q_id]))).encode())
    return digest.hexdigest()


@dataclass
class RunMetrics:
    build_time: float = 0.0
    maintenance_time: float = 0.0
    query_time_initial: float = 0.0
    query_time_incremental: float = 0.0
    throughput: float = 0.0
    objects_examined: int = 0
    messages_sent: int = 0
    result_hash: str = ""
    # set by replays, where the file (not the workload spec) is the truth
    n_objects: int | None = None
    n_queries: int | None = None


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def run_single(workload_spec: WorkloadSpec, cluster_spec: ClusterSpec,
               object_queue_cap: int = 50_000) -> RunMetrics:
    """One full pass: build, maintenance ticks, register queries, movement
    ticks with live queries."""
    metrics = RunMetrics()
    wl = Workload(workload_spec)
    cluster = Cluster(cluster_spec)
    try:
        inserts = [ObjectUpdate(o, None, p) for o, p in sorted(wl.objects.items())]
        t0 = time.monotonic()
        for chunk in _chunks(inserts, object_queue_cap):
            report = cluster.run_tick(chunk)
            metrics.messages_sent += report.messages
        metrics.build_time = time.monotonic() - t0

        t0 = time.monotonic()
        for _ in range(workload_spec.ticks):
            report = cluster.run_tick([ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()])
            metrics.messages_sent += report.messages
        metrics.maintenance_time = time.monotonic() - t0

        registrations = [QueryRegister(q, c, t0_, t1) for q, c, t0_, t1 in wl.queries]
        t0 = time.monotonic()
        report = cluster.run_tick(registrations)
        metrics.query_time_initial = time.monotonic() - t0
        metrics.messages_sent += report.messages
        metrics.objects_examined += report.objects_examined

        t0 = time.monotonic()
        for _ in range(workload_spec.ticks):
            events: list = [ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()]
            events.extend(QueryMove(q, c) for q, c in wl.step_queries())
            report = cluster.run_tick(events)
            metrics.messages_sent += report.messages
            metrics.objects_examined += report.objects_examined
        metrics.query_time_incremental = time.monotonic() - t0
        metrics.result_hash = result_hash(cluster.results())
    finally:
        cluster.close()
    return metrics


def run_replay(path: str, cluster_spec: ClusterSpec) -> RunMetrics:
    """Replay a JSONL workload file; all ticks count as incremental time."""
    metrics = RunMetrics()
    by_tick: dict[int, list] = {}
    positions: dict[int, Point] = {}
    query_radius: dict[int, float] = {}
    query_end: dict[int, int] = {}
    registered = 0
    with open(path) as fp:
        for rec in read_events(fp):
            by_tick.setdefault(rec["tick"], []).append(rec)
    cluster = Cluster(cluster_spec)
    try:
        for tick in sorted(by_tick):
            events = []
            for q_id in sorted(q for q, end in query_end.items() if end <= tick):
                events.append(QueryExpire(q_id))
                del query_end[q_id]
                del query_radius[q_id]
            for rec in by_tick[tick]:
                if rec["kind"] == "object":
                    p = Point(rec["x"], rec["y"])
                    events.append(ObjectUpdate(rec["id"], positions.get(rec["id"]), p))
                    positions[rec["id"]] = p
                elif rec["kind"] == "query":
                    query_radius[rec["id"]] = rec["r"]
                    query_end[rec["id"]] = rec["t_end"]
                    registered += 1
                    events.append(QueryRegister(
                        rec["id"], Circle(Point(rec["x"], rec["y"]), rec["r"]),
                        rec["tick"], rec["t_end"],
                    ))
                elif rec["kind"] == "query_move":
                    circle = Circle(Point(rec["x"], rec["y"]), query_radius[rec["id"]])
                    events.append(QueryMove(rec["id"], circle))
                else:
                    raise ValueError(f"unknown event kind {rec['kind']!r}")
            t0 = time.monotonic()
            report = cluster.run_tick(events)
            if tick == 0:
                metrics.build_time += time.monotonic() - t0
            else:
                metrics.query_time_incremental += time.monotonic() - t0
            metrics.messages_sent += report.messages
            metrics.objects_examined += report.objects_examined
        metrics.result_hash = result_hash(cluster.results())
        metrics.n_objects = len(positions)
        metrics.n_queries = registered
    finally:
        cluster.close()
    return metrics


def run_experiment(exp: ExperimentSpec, out_path: str | Path | None = None) -> list[dict]:
    """Execute every sweep point x repetition; returns the rows and writes
    them as RFC-4180 CSV."""
    points: list[tuple[str | None, float]] = []
    if exp.sweeps:
        for param, values in exp.sweeps.items():
            points.extend((param, v) for v in values)
    else:
        points.append((None, 0.0))
    rows = []
    for param, value in points:
        for rep in range(exp.repetitions):
            wl, cl = _apply_point(exp, param, value)
            wl = replace(wl, seed=wl.seed + rep)
            cl = replace(cl, seed=wl.seed)
            if exp.workload_file is not None:
                metrics = run_replay(exp.workload_file, cl)
            else:
                metrics = run_single(wl, cl, exp.object_queue_cap)
            if exp.measure_throughput:
                metrics.throughput = measure_throughput(exp, wl, cl)
            rows.append({
                "experiment": exp.name,
                "engine": exp.engine,
                "distribution": "file" if exp.workload_file else wl.distribution,
                "param": param or "-",
                "value": value,
                "n_objects": metrics.n_objects if metrics.n_objects is not None else wl.n_objects,
                "n_queries": metrics.n_queries if metrics.n_queries is not None else wl.n_queries,
                "radius": wl.radius,
                "alpha": cl.alpha,
                "m": cl.m,
                "seed": wl.seed,
                "repetition": rep,
                "build_time": round(metrics.build_time, 6),
                "maintenance_time": round(metrics.maintenance_time, 6),
                "query_time_initial": round(metrics.query_time_initial, 6),
                "query_time_incremental": round(metrics.query_time_incremental, 6),
                "throughput": round(metrics.throughput, 3),
                "objects_examined": metrics.objects_examined,
                "messages_sent": metrics.messages_sent,
                "result_hash": metrics.result_hash,
            })
    path = Path(out_path if out_path is not None else exp.output)
    with open(path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


# -- throughput ---------------------------------------------------------------


class _QueryFeed:
    """Cycling pool of query circles, cheap enough that generation never
    bottlenecks the saturation probe."""

    def __init__(self, wl: WorkloadSpec, pool: int = 512):
        spec = replace(wl, n_queries=pool)
        self.circles = [c for _, c, _, _ in Workload(spec).queries]
        self.n = 0

    def next(self) -> tuple[int, Circle]:
        self.n += 1
        return self.n, self.circles[self.n % len(self.circles)]


def _make_query_processor(engine_kind: str, wl: WorkloadSpec, cl: ClusterSpec,
                          stats: SearchStats | None = None):
    objects = Workload(wl).objects
    if engine_kind == "ns":
        return lambda item: ns_search(objects, item[1], stats)
    if engine_kind == "gi":
        store = GridStore(GridIndex(cl.grid_n))
        for o, p in objects.items():
            store.insert(o, p)
        return lambda item: gi_search(store, item[1], stats)
    engine = Engine(GridIndex(cl.grid_n), SplitConfig(alpha=cl.alpha, m=cl.m))
    engine.on_objects_moved([(o, None, p) for o, p in objects.items()])

    def process(item):
        q_id, circle = item
        engine.submit_query(q_id, circle, stats=stats)
        engine.remove_query(q_id)  # steady state; the subtree cache persists

    return process


def _rate_sustainable(process, feed, rate: float, queue_cap: int,
                      windows: int = 10, window_s: float = 0.08) -> bool:
    """Feed the queue at `rate` events/s; sustainable iff the depth stays
    bounded across `windows` consecutive post-warmup windows: it never
    reaches half the capacity and never grows monotonically (an offered
    rate above saturation shows up as strictly growing backlog)."""
    queue: deque = deque()
    depths: list[int] = []
    carry = 0.0
    for w in range(windows + 2):
        carry += rate * window_s
        arrivals = int(carry)
        carry -= arrivals
        for _ in range(arrivals):
            if len(queue) >= queue_cap:
                return False
            queue.append(feed.next())
        deadline = time.monotonic() + window_s
        while queue and time.monotonic() < deadline:
            process(queue.popleft())
        if w >= 2:
            depths.append(len(queue))
            if depths[-1] >= queue_cap / 2:
                return False
    growing = all(b > a for a, b in zip(depths, depths[1:])) and depths[-1] > depths[0]
    return not growing


def measure_throughput(exp: ExperimentSpec, wl: WorkloadSpec | None = None,
                       cl: ClusterSpec | None = None) -> float:
    """Saturation search: double the offered rate until the queue grows,
    then bisect between the last sustainable and first unsustainable rate."""
    wl = wl if wl is not None else exp.workload
    cl = cl if cl is not None else replace(exp.cluster, engine=exp.engine)
    process = _make_query_processor(cl.engine, wl, cl)
    feed = _QueryFeed(wl)
    cap = exp.query_queue_cap
    rate = 32.0
    last_ok = 0.0
    while rate <= 2 ** 22:
        if _rate_sustainable(process, feed, rate, cap):
            last_ok = rate
            rate *= 2
        else:
            break
    if last_ok == 0.0:
        return 0.0
    lo, hi = last_ok, rate
    for _ in range(3):
        mid = (lo + hi) / 2
        if _rate_sustainable(process, feed, mid, cap):
            lo = mid
        else:
            hi = mid
    return lo
