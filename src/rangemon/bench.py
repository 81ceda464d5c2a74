"""Benchmark harness: runs an experiment matrix against the cluster and
emits one CSV row per sweep point per repetition.

A run has four timed phases: build (initial object inserts), maintenance
(movement ticks with no queries registered), initial query (all
registrations), and incremental (movement ticks with queries live).  A
phase's time covers only its ``Cluster.run_tick`` calls, not the building
of their events.  The correctness columns (objects_examined,
messages_sent, result_hash) are deterministic for a fixed seed on the
loopback transport; the timing columns are machine-relative.
"""

from __future__ import annotations

import csv
import hashlib
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .baselines import GridStore, gi_search, ns_search
from .cluster import Cluster, ClusterSpec
from .config import CLUSTER_KEYS, Config
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

# sweep parameter -> (the ExperimentSpec part it varies, that part's field)
SWEEPABLE = {
    "m": ("cluster", "m"),
    "alpha": ("cluster", "alpha"),
    "radius": ("workload", "radius"),
    "objects": ("workload", "n_objects"),
    "queries": ("workload", "n_queries"),
    "object_speed": ("workload", "object_speed"),
    "query_speed": ("workload", "query_speed"),
}

WORKLOAD_KEYS = {
    "workload.distribution": "distribution",
    "workload.objects": "n_objects",
    "workload.queries": "n_queries",
    "workload.radius": "radius",
    "workload.object_speed": "object_speed",
    "workload.query_speed": "query_speed",
    "workload.ticks": "ticks",
    "rng.seed": "seed",
    "workload.zipf_s": "zipf_s",
    "workload.gauss_mean": "gauss_mean",
    "workload.gauss_sigma": "gauss_sigma",
    "grid.n": "grid_n",
}

EXPERIMENT_KEYS = {
    "experiment.name": "name",
    "experiment.repetitions": "repetitions",
    "measure.throughput": "measure_throughput",
    "workload.file": "workload_file",
    "experiment.output": "output",
}


@dataclass
class ExperimentSpec:
    name: str = "experiment"
    repetitions: int = 1
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    sweeps: dict[str, list[float]] = field(default_factory=dict)
    measure_throughput: bool = False
    workload_file: str | None = None
    output: str = "results.csv"

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        # every point is built here, so a bad one fails by its key before
        # any run
        for param, values in self.sweeps.items():
            try:
                if param not in SWEEPABLE:
                    raise ValueError(f"cannot sweep {param!r}; one of {tuple(SWEEPABLE)}")
                for value in values:
                    _apply_point(self, param, value)
            except ValueError as exc:
                raise ValueError(f"sweep.{param}: {exc}") from None


def parse_experiment(cfg: Config) -> ExperimentSpec:
    sweep_keys = {f"sweep.{param}": param for param in SWEEPABLE}
    known = CLUSTER_KEYS.keys() | WORKLOAD_KEYS.keys() | EXPERIMENT_KEYS.keys() | sweep_keys.keys()
    unknown = sorted(cfg.values.keys() - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    sweeps = {}
    for key, param in sweep_keys.items():
        try:
            values = [float(v) for v in cfg.values.get(key, "").split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"{key}: expected comma-separated numbers, got {cfg.values[key]!r}") from None
        if values:
            sweeps[param] = values
    base = ExperimentSpec(workload=cfg.applied(WorkloadSpec(), WORKLOAD_KEYS),
                          cluster=cfg.cluster_spec(), sweeps=sweeps)
    return cfg.applied(base, EXPERIMENT_KEYS)


def _apply_point(exp: ExperimentSpec, param: str | None, value: float) -> tuple[WorkloadSpec, ClusterSpec]:
    parts = {"workload": exp.workload, "cluster": exp.cluster}
    if param is not None:
        part, name = SWEEPABLE[param]
        spec = parts[part]
        kind = type(getattr(spec, name))
        if not value > 0:
            raise ValueError(f"sweep values for {param} must be positive")
        if kind is int and not float(value).is_integer():
            raise ValueError(f"expected a whole number, got {value!r}")
        parts[part] = replace(spec, **{name: kind(value)})
    cl = parts["cluster"]
    return replace(parts["workload"], grid_n=cl.grid_n), cl


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


def _run(ticks: Iterable[tuple[str, list]], cluster_spec: ClusterSpec) -> RunMetrics:
    """Run each ``(phase, events)`` tick on a fresh cluster.  Only the
    ``run_tick`` call is timed, into the phase's field; the events are
    built outside the timer."""
    metrics = RunMetrics()
    cluster = Cluster(cluster_spec)
    try:
        for phase, events in ticks:
            t0 = time.monotonic()
            report = cluster.run_tick(events)
            setattr(metrics, phase, getattr(metrics, phase) + time.monotonic() - t0)
            metrics.messages_sent += report.messages
            metrics.objects_examined += report.objects_examined
        metrics.result_hash = result_hash(cluster.results())
    finally:
        cluster.close()
    return metrics


def run_single(workload_spec: WorkloadSpec, cluster_spec: ClusterSpec) -> RunMetrics:
    """One full pass: build, maintenance ticks, register queries, movement
    ticks with live queries."""
    wl = Workload(workload_spec)

    def ticks():
        yield "build_time", [ObjectUpdate(o, None, p) for o, p in sorted(wl.objects.items())]
        for _ in range(workload_spec.ticks):
            yield "maintenance_time", [ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()]
        yield "query_time_initial", [QueryRegister(q, c, t0, t1) for q, c, t0, t1 in wl.queries]
        for _ in range(workload_spec.ticks):
            events: list = [ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()]
            events.extend(QueryMove(q, c) for q, c in wl.step_queries())
            yield "query_time_incremental", events

    return _run(ticks(), cluster_spec)


def run_replay(path: str, cluster_spec: ClusterSpec) -> RunMetrics:
    """Replay a JSONL workload file: tick 0 counts as build time, every
    later tick as incremental time.  A malformed record, or a move of a
    query not registered, raises ``ValueError`` naming the file and tick."""
    by_tick: dict[int, list] = {}
    with open(path) as fp:
        for rec in read_events(fp):
            if "tick" not in rec:
                raise ValueError(f"{path}: a record has no field 'tick'")
            by_tick.setdefault(rec["tick"], []).append(rec)
    positions: dict[int, Point] = {}
    query_radius: dict[int, float] = {}
    query_end: dict[int, int] = {}

    def ticks():
        for tick in sorted(by_tick):
            events = []
            for q_id in sorted(q for q, end in query_end.items() if end <= tick):
                events.append(QueryExpire(q_id))
                del query_end[q_id]
                del query_radius[q_id]
            for rec in by_tick[tick]:
                try:
                    if rec["kind"] == "object":
                        p = Point(rec["x"], rec["y"])
                        events.append(ObjectUpdate(rec["id"], positions.get(rec["id"]), p))
                        positions[rec["id"]] = p
                    elif rec["kind"] == "query":
                        query_radius[rec["id"]] = rec["r"]
                        query_end[rec["id"]] = rec["t_end"]
                        events.append(QueryRegister(
                            rec["id"], Circle(Point(rec["x"], rec["y"]), rec["r"]),
                            rec["tick"], rec["t_end"],
                        ))
                    elif rec["kind"] == "query_move":
                        if rec["id"] not in query_radius:  # never registered, or expired by its t_end
                            raise ValueError(f"query_move of query {rec['id']}, which is not registered")
                        circle = Circle(Point(rec["x"], rec["y"]), query_radius[rec["id"]])
                        events.append(QueryMove(rec["id"], circle))
                    else:
                        raise ValueError(f"unknown event kind {rec['kind']!r}")
                except KeyError as exc:  # only a record's own fields are looked up by key
                    raise ValueError(f"{path}: tick {tick}: a record has no field {exc.args[0]!r}") from None
                except ValueError as exc:
                    raise ValueError(f"{path}: tick {tick}: {exc}") from None
            yield "build_time" if tick == 0 else "query_time_incremental", events

    metrics = _run(ticks(), cluster_spec)
    metrics.n_objects = len(positions)
    metrics.n_queries = sum(rec["kind"] == "query" for recs in by_tick.values() for rec in recs)
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
                metrics = run_single(wl, cl)
            if exp.measure_throughput:
                metrics.throughput = measure_throughput(exp, wl, cl)
            rows.append({
                "experiment": exp.name,
                "engine": cl.engine,
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

QUERY_QUEUE_CAP = 10_000  # the saturation probe's bounded query queue


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
    cl = cl if cl is not None else exp.cluster
    process = _make_query_processor(cl.engine, wl, cl)
    feed = _QueryFeed(wl)
    rate = 32.0
    last_ok = 0.0
    while rate <= 2 ** 22:
        if _rate_sustainable(process, feed, rate, QUERY_QUEUE_CAP):
            last_ok = rate
            rate *= 2
        else:
            break
    if last_ok == 0.0:
        return 0.0
    lo, hi = last_ok, rate
    for _ in range(3):
        mid = (lo + hi) / 2
        if _rate_sustainable(process, feed, mid, QUERY_QUEUE_CAP):
            lo = mid
        else:
            hi = mid
    return lo
