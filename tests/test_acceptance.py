"""Acceptance gate: eight criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Correctness criteria
use exact set equality against the brute-force scan; performance criteria
assert orderings and curve shapes only, never absolute numbers.
"""

import random
import statistics
import time

from rangemon.baselines import GridStore, gi_search, ns_search
from rangemon.bench import (
    ExperimentSpec,
    _make_query_processor,
    _QueryFeed,
    measure_throughput,
    result_hash,
    run_single,
)
from rangemon.cluster import Cluster, ClusterSpec
from rangemon.engine import Engine
from rangemon.geometry import Circle, Point, UNIT_SQUARE
from rangemon.grid import GridIndex
from rangemon.mtree import MTree, SearchStats, SplitConfig, SubtreeCache
from rangemon.workload import Workload, WorkloadSpec
from rangemon.wire import ObjectUpdate, QueryRegister

from conftest import check_tree_invariants


class _Gate:
    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.label}: {status}")
        return False


def test_1_oracle_equivalence():
    """1,000 random instances, three distributions: initial results equal
    the brute-force scan exactly."""
    with _Gate("1 oracle equivalence (initial search == full scan, 1000 instances)"):
        rng = random.Random(101)
        distributions = ("UD", "GD", "ZIPF")
        for trial in range(1000):
            n_objects = int(10 ** rng.uniform(2, 4))  # up to 10^4
            n_queries = rng.randint(1, 100)
            spec = WorkloadSpec(
                distribution=distributions[trial % 3],
                n_objects=n_objects, n_queries=n_queries,
                radius=rng.uniform(0.005, 0.1),
                grid_n=rng.choice([20, 50, 100]),
                seed=rng.randrange(2 ** 31),
            )
            wl = Workload(spec)
            engine = Engine(GridIndex(spec.grid_n), SplitConfig(alpha=rng.choice([5, 10, 20]),
                                                                m=rng.choice([4, 6, 9])))
            engine.on_objects_moved([(o, None, p) for o, p in wl.objects.items()])
            for q_id, circle, _, _ in wl.queries:
                got = engine.submit_query(q_id, circle)
                expected = ns_search(wl.objects, circle)
                assert got == expected, (
                    f"instance {trial}: query {q_id} diverged "
                    f"(missing={expected - got}, extra={got - expected})"
                )


def test_2_incremental_equivalence():
    """500 ticks mixing moves, query moves, insertions, and expiries: every
    active query equals a from-scratch recomputation after every tick."""
    with _Gate("2 incremental equivalence (500 mixed ticks == from-scratch)"):
        rng = random.Random(202)
        spec = WorkloadSpec(distribution="UD", n_objects=10_000, n_queries=0, seed=77)
        wl = Workload(spec)
        positions = dict(wl.objects)
        engine = Engine(GridIndex(100), SplitConfig(alpha=20, m=6))
        engine.on_objects_moved([(o, None, p) for o, p in positions.items()])

        circles: dict[int, Circle] = {}
        next_q = 0

        def add_query(now: int) -> None:
            nonlocal next_q
            c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.08))
            circles[next_q] = c
            engine.submit_query(next_q, c, t_start=now, t_end=now + rng.randint(50, 400))
            next_q += 1

        for _ in range(100):
            add_query(0)

        for tick in range(1, 501):
            # object moves
            updates = []
            for obj in rng.sample(range(10_000), 250):
                old = positions[obj]
                new = Point(
                    min(max(old.x + rng.uniform(-0.02, 0.02), 0.0), 1.0),
                    min(max(old.y + rng.uniform(-0.02, 0.02), 0.0), 1.0),
                )
                positions[obj] = new
                updates.append((obj, old, new))
            assert engine.on_objects_moved(updates) == []
            # query moves
            active = sorted(engine.queries)
            for q in rng.sample(active, min(5, len(active))):
                c = circles[q]
                nc = Circle(
                    Point(min(max(c.center.x + rng.uniform(-0.03, 0.03), 0.0), 1.0),
                          min(max(c.center.y + rng.uniform(-0.03, 0.03), 0.0), 1.0)),
                    c.radius,
                )
                circles[q] = nc
                engine.on_query_moved(q, nc)
            # expiries and fresh insertions
            expired = engine.expire_queries(tick)
            for q in expired:
                del circles[q]
            while len(engine.queries) < 100:
                add_query(tick)
            # exact from-scratch comparison for every active query
            for q in engine.queries:
                assert engine.result(q) == ns_search(positions, circles[q]), (
                    f"tick {tick}: query {q} diverged from recomputation"
                )
            for q in expired:
                assert q not in engine.queries


def test_3_structural_invariants():
    """10^4-operation randomized fuzz preserves leaf-size, merge, tiling,
    and query-placement invariants."""
    with _Gate("3 structural invariants (10^4-op fuzz, zero violations)"):
        rng = random.Random(303)
        tree = MTree(UNIT_SQUARE, SplitConfig(alpha=8, m=6))
        for q in range(12):
            tree.insert_query(q, Circle(Point(rng.random(), rng.random()), rng.uniform(0.02, 0.3)))
        alive: set[int] = set()
        next_id = 0
        for op in range(10_000):
            roll = rng.random()
            if alive and roll < 0.35:
                obj = rng.choice(sorted(alive))
                tree.remove(obj)
                alive.discard(obj)
            elif alive and roll < 0.55:
                tree.move(rng.choice(sorted(alive)), Point(rng.random(), rng.random()))
            else:
                tree.insert(next_id, Point(rng.random(), rng.random()))
                alive.add(next_id)
                next_id += 1
            if op % 500 == 499:
                check_tree_invariants(tree)
        check_tree_invariants(tree)


def test_4_cache_coherence():
    """Interleaved mutations and shared searches never return a stale set;
    an identical second query reuses every covered subtree without leaf
    descents."""
    with _Gate("4 subtree-cache coherence (10^3 interleavings; full reuse on repeat)"):
        rng = random.Random(404)
        tree = MTree(UNIT_SQUARE, SplitConfig(alpha=6, m=9))
        cache = SubtreeCache()
        alive: dict[int, Point] = {}
        next_id = 0
        for i in range(400):
            p = Point(rng.random(), rng.random())
            tree.insert(next_id, p)
            alive[next_id] = p
            next_id += 1
        probes = [Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.35)) for _ in range(3)]
        for round_no in range(1000):
            roll = rng.random()
            if alive and roll < 0.35:
                obj = rng.choice(sorted(alive))
                tree.remove(obj)
                del alive[obj]
            elif alive and roll < 0.6:
                obj = rng.choice(sorted(alive))
                p = Point(rng.random(), rng.random())
                tree.move(obj, p)
                alive[obj] = p
            else:
                p = Point(rng.random(), rng.random())
                tree.insert(next_id, p)
                alive[next_id] = p
                next_id += 1
            circle = probes[round_no % 3]
            got = tree.search_shared(round_no % 3, circle, cache)
            expected = ns_search(alive, circle)
            assert got == expected, f"interleaving {round_no}: stale shared result"

        # identical queries: the second one's covered subtrees all come from
        # the cache, so it descends into zero leaves under them
        fresh = MTree(UNIT_SQUARE, SplitConfig(alpha=6, m=9))
        for o, p in alive.items():
            fresh.insert(o, p)
        fresh_cache = SubtreeCache()
        circle = Circle(Point(0.5, 0.5), 0.3)
        first = SearchStats()
        r1 = fresh.search_shared(9001, circle, fresh_cache, first)
        assert first.leaf_descents > 0
        second = SearchStats()
        r2 = fresh.search_shared(9002, circle, fresh_cache, second)
        assert r2 == r1 == ns_search(alive, circle)
        assert second.leaf_descents == 0, "second identical query descended into leaves"
        assert second.cache_hits > 0


def test_5_pruning_trend():
    """Zipf, 10^5 objects, 10^3 queries: objects-examined ordered
    drqa <= gi <= ns on every query; median per-query time strictly
    drqa < gi < ns."""
    with _Gate("5 pruning trend (examined drqa<=gi<=ns each query; median time drqa<gi<ns)"):
        # zipf exponent 1.2 concentrates both objects and query centers into
        # the dense core, the regime the tree index exists for
        spec = WorkloadSpec(distribution="ZIPF", n_objects=100_000, n_queries=1000,
                            radius=0.02, grid_n=100, seed=55, zipf_s=1.2)
        wl = Workload(spec)
        positions = wl.objects

        store = GridStore(GridIndex(100))
        for o, p in positions.items():
            store.insert(o, p)
        engine = Engine(GridIndex(100), SplitConfig(alpha=20, m=6))
        engine.on_objects_moved([(o, None, p) for o, p in positions.items()])

        times = {"drqa": [], "gi": [], "ns": []}
        for q_id, circle, _, _ in wl.queries:
            s_ns, s_gi, s_dr = SearchStats(), SearchStats(), SearchStats()

            t0 = time.perf_counter()
            r_ns = ns_search(positions, circle, s_ns)
            times["ns"].append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            r_gi = gi_search(store, circle, s_gi)
            times["gi"].append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            r_dr = engine.submit_query(q_id, circle, stats=s_dr)
            times["drqa"].append(time.perf_counter() - t0)
            engine.remove_query(q_id)

            assert r_dr == r_gi == r_ns, f"query {q_id}: engines disagree"
            assert s_dr.objects_examined <= s_gi.objects_examined <= s_ns.objects_examined, (
                f"query {q_id}: examined counts out of order "
                f"({s_dr.objects_examined}, {s_gi.objects_examined}, {s_ns.objects_examined})"
            )

        med = {k: statistics.median(v) for k, v in times.items()}
        print(f"\n[acceptance 5] median per-query seconds: drqa={med['drqa']:.6f} "
              f"gi={med['gi']:.6f} ns={med['ns']:.6f}")
        assert med["drqa"] < med["gi"] < med["ns"], f"median times out of order: {med}"


def _timed_build_and_query(wl: Workload, alpha: int, m: int,
                           work: SearchStats | None = None) -> tuple[float, float]:
    """Build and query times; with `work` given, one more untimed query pass
    adds its deterministic work counters to it."""
    engine = Engine(GridIndex(100), SplitConfig(alpha=alpha, m=m))
    inserts = [(o, None, p) for o, p in sorted(wl.objects.items())]
    t0 = time.perf_counter()
    engine.on_objects_moved(inserts)
    build = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q_id, circle, _, _ in wl.queries:
        engine.submit_query(q_id, circle)
        engine.remove_query(q_id)
    query = time.perf_counter() - t0
    if work is not None:
        for q_id, circle, _, _ in wl.queries:
            engine.submit_query(q_id, circle, stats=work)
            engine.remove_query(q_id)
    return build, query


def _work_line(work: list[SearchStats]) -> str:
    return (f"examined {[s.objects_examined for s in work]}, "
            f"visited {[s.nodes_visited for s in work]}")


def test_6_parameter_sweep_shape():
    """Build and query time over the m and alpha sweeps: the smallest
    parameter value is never the curve's minimum (the curves dip first).
    Observed optima are reported, not asserted."""
    with _Gate("6 sweep shape (smallest m / smallest alpha never optimal)"):
        spec = WorkloadSpec(distribution="ZIPF", n_objects=30_000, n_queries=150,
                            radius=0.02, grid_n=100, seed=66)
        wl = Workload(spec)

        def median_curve(points, fixed_alpha=None, fixed_m=None):
            build_curve, query_curve, work_curve = [], [], []
            for v in points:
                alpha = fixed_alpha if fixed_alpha is not None else v
                m = fixed_m if fixed_m is not None else v
                work = SearchStats()
                samples = [_timed_build_and_query(wl, alpha, m, work if i == 0 else None) for i in range(3)]
                build_curve.append(statistics.median(s[0] for s in samples))
                query_curve.append(statistics.median(s[1] for s in samples))
                work_curve.append(work)
            return build_curve, query_curve, work_curve

        m_points = [2, 4, 6, 9, 16, 25]
        build_m, query_m, work_m = median_curve(m_points, fixed_alpha=20)
        alpha_points = [5, 10, 20, 40, 80]
        build_a, query_a, work_a = median_curve(alpha_points, fixed_m=6)

        print(f"\n[acceptance 6] build(m):  {[f'{t:.3f}' for t in build_m]} over m={m_points}")
        print(f"[acceptance 6] query(m):  {[f'{t:.3f}' for t in query_m]}")
        print(f"[acceptance 6] work(m):   {_work_line(work_m)}")
        print(f"[acceptance 6] build(a):  {[f'{t:.3f}' for t in build_a]} over alpha={alpha_points}")
        print(f"[acceptance 6] query(a):  {[f'{t:.3f}' for t in query_a]}")
        print(f"[acceptance 6] work(a):   {_work_line(work_a)}")
        print(f"[acceptance 6] observed optima: m={m_points[query_m.index(min(query_m))]} "
              f"alpha={alpha_points[query_a.index(min(query_a))]}")

        for name, curve in (("build/m", build_m), ("query/m", query_m),
                            ("build/alpha", build_a), ("query/alpha", query_a)):
            assert curve[0] > min(curve), (
                f"{name}: smallest parameter value is already optimal; "
                f"no initial descent ({curve})"
            )


def test_7_throughput_ordering():
    """Bounded-queue saturation rates ordered drqa >= gi >= ns on the same
    workload and machine."""
    with _Gate("7 throughput ordering (saturation drqa >= gi >= ns)"):
        spec = WorkloadSpec(distribution="ZIPF", n_objects=50_000, n_queries=64,
                            radius=0.02, grid_n=100, seed=88, zipf_s=1.2)
        rates = {}
        for engine_kind in ("ns", "gi", "drqa"):
            exp = ExperimentSpec(
                name="throughput", engine=engine_kind, workload=spec,
                cluster=ClusterSpec(grid_n=100, engine=engine_kind),
            )
            rates[engine_kind] = measure_throughput(exp)
        work = {}
        for engine_kind in rates:  # untimed, after every probe: the probed processor, once over its pool
            work[engine_kind] = SearchStats()
            process = _make_query_processor(engine_kind, spec, ClusterSpec(grid_n=100), work[engine_kind])
            for item in enumerate(_QueryFeed(spec).circles):
                process(item)
        print(f"\n[acceptance 7] saturation events/s: drqa={rates['drqa']:.0f} "
              f"gi={rates['gi']:.0f} ns={rates['ns']:.0f}")
        print("[acceptance 7] work per pass over the probe's query pool: " + "; ".join(
            f"{k} examined={s.objects_examined} visited={s.nodes_visited}" for k, s in work.items()))
        assert rates["drqa"] >= rates["gi"] >= rates["ns"], f"saturation out of order: {rates}"


def test_8_determinism():
    """Identical seed + loopback transport: identical per-tick digests,
    message counts, and final result hashes."""
    with _Gate("8 determinism (same seed -> identical hashes and counts)"):
        def one_run():
            spec = WorkloadSpec(distribution="GD", n_objects=3000, n_queries=40,
                                radius=0.05, object_speed=0.01, query_speed=0.01,
                                ticks=4, grid_n=20, seed=99)
            wl = Workload(spec)
            cluster = Cluster(ClusterSpec(grid_n=20, index_workers=3, query_workers=2,
                                          alpha=10, m=6))
            try:
                reports = [cluster.run_tick(
                    [ObjectUpdate(o, None, p) for o, p in sorted(wl.objects.items())]
                ).as_dict()]
                reports.append(cluster.run_tick(
                    [QueryRegister(q, c, t0, t1) for q, c, t0, t1 in wl.queries]
                ).as_dict())
                from rangemon.wire import QueryMove
                for _ in range(spec.ticks):
                    events = [ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()]
                    events.extend(QueryMove(q, c) for q, c in wl.step_queries())
                    reports.append(cluster.run_tick(events).as_dict())
                return reports, result_hash(cluster.results())
            finally:
                cluster.close()

        reports_1, hash_1 = one_run()
        reports_2, hash_2 = one_run()
        assert reports_1 == reports_2, "tick reports differ between identical runs"
        assert hash_1 == hash_2, "final result hashes differ between identical runs"
