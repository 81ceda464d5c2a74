import math
import random

import pytest

from rangemon.baselines import ns_search
from rangemon.engine import Engine
from rangemon.geometry import Circle, Point
from rangemon.grid import GridIndex
from rangemon.mtree import SplitConfig

from conftest import brute_filter


def make_engine(n=20, alpha=8, m=6):
    return Engine(GridIndex(n), SplitConfig(alpha=alpha, m=m))


def seed_objects(engine, rng, count):
    positions = {}
    updates = []
    for i in range(count):
        p = Point(rng.random(), rng.random())
        positions[i] = p
        updates.append((i, None, p))
    assert engine.on_objects_moved(updates) == []
    return positions


def test_initial_search_empty():
    engine = make_engine()
    assert engine.submit_query(1, Circle(Point(0.5, 0.5), 0.05)) == set()


def test_initial_search_matches_brute_force():
    rng = random.Random(1)
    engine = make_engine()
    positions = seed_objects(engine, rng, 10_000)
    for q in range(30):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.2))
        assert engine.submit_query(q, c) == ns_search(positions, c)


def test_initial_search_single_cell():
    rng = random.Random(2)
    engine = make_engine(n=10, alpha=5)
    positions = seed_objects(engine, rng, 2000)
    c = Circle(Point(0.555, 0.555), 0.004)  # strictly inside one cell
    gr = engine.grid.candidate_cells(c)
    assert gr.full == set() and len(gr.partial) == 1
    assert engine.submit_query(1, c) == brute_filter(positions, c)


def test_duplicate_query_rejected():
    engine = make_engine()
    engine.submit_query(1, Circle(Point(0.5, 0.5), 0.1))
    with pytest.raises(ValueError):
        engine.submit_query(1, Circle(Point(0.5, 0.5), 0.1))


def test_object_moves_update_results():
    rng = random.Random(3)
    engine = make_engine()
    positions = seed_objects(engine, rng, 5000)
    queries = {}
    for q in range(40):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.02, 0.15))
        queries[q] = c
        engine.submit_query(q, c)
    for _ in range(10):
        updates = []
        for obj in rng.sample(sorted(positions), 400):
            old = positions[obj]
            new = Point(
                min(max(old.x + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                min(max(old.y + rng.uniform(-0.05, 0.05), 0.0), 1.0),
            )
            positions[obj] = new
            updates.append((obj, old, new))
        assert engine.on_objects_moved(updates) == []
        for q, c in queries.items():
            assert engine.result(q) == ns_search(positions, c), f"query {q} diverged"


def test_single_object_crossing_in():
    engine = make_engine()
    c = Circle(Point(0.5, 0.5), 0.05)
    p_out = Point(0.6, 0.5)
    engine.on_objects_moved([(1, None, p_out)])
    engine.submit_query(1, c)
    assert engine.result(1) == set()
    p_in = Point(0.52, 0.5)
    engine.on_objects_moved([(1, p_out, p_in)])
    assert engine.result(1) == {1}


def test_move_errors_do_not_abort_batch():
    engine = make_engine()
    p = Point(0.5, 0.5)
    errors = engine.on_objects_moved([
        (1, Point(0.1, 0.1), Point(0.2, 0.2)),  # never inserted
        (2, None, p),
    ])
    assert len(errors) == 1 and errors[0][0] == 1
    assert engine.cell(engine.grid.locate(p)).objects[2] == p


def test_query_move_identity_is_empty_delta():
    rng = random.Random(4)
    engine = make_engine()
    seed_objects(engine, rng, 3000)
    c = Circle(Point(0.4, 0.4), 0.08)
    engine.submit_query(1, c)
    delta = engine.on_query_moved(1, c)
    assert delta.removals == set() and delta.additions == set()


def test_query_move_full_relocation():
    rng = random.Random(5)
    engine = make_engine()
    positions = seed_objects(engine, rng, 5000)
    c1 = Circle(Point(0.2, 0.2), 0.05)
    c2 = Circle(Point(0.8, 0.8), 0.05)
    old = engine.submit_query(1, c1)
    delta = engine.on_query_moved(1, c2)
    assert delta.removals == old
    assert delta.additions == ns_search(positions, c2)
    assert engine.result(1) == ns_search(positions, c2)


def test_query_move_small_translation():
    rng = random.Random(6)
    engine = make_engine()
    positions = seed_objects(engine, rng, 5000)
    c1 = Circle(Point(0.5, 0.5), 0.07)
    engine.submit_query(1, c1)
    old = engine.result(1)
    c2 = Circle(Point(0.52, 0.505), 0.07)
    delta = engine.on_query_moved(1, c2)
    assert engine.result(1) == ns_search(positions, c2)
    assert delta.removals <= old
    assert not (delta.additions & old)


def test_query_move_random_walk_matches_oracle():
    rng = random.Random(7)
    engine = make_engine()
    positions = seed_objects(engine, rng, 4000)
    c = Circle(Point(0.5, 0.5), 0.06)
    engine.submit_query(1, c)
    for _ in range(40):
        nx = min(max(c.center.x + rng.uniform(-0.08, 0.08), 0.0), 1.0)
        ny = min(max(c.center.y + rng.uniform(-0.08, 0.08), 0.0), 1.0)
        c = Circle(Point(nx, ny), c.radius)
        old = engine.result(1)
        delta = engine.on_query_moved(1, c)
        assert delta.removals <= old
        assert not (delta.additions & old)
        assert engine.result(1) == ns_search(positions, c)


def test_expiry_removes_all_registrations():
    rng = random.Random(8)
    engine = make_engine()
    seed_objects(engine, rng, 3000)
    engine.submit_query(1, Circle(Point(0.5, 0.5), 0.1), t_end=5)
    engine.submit_query(2, Circle(Point(0.3, 0.3), 0.1), t_end=50)
    assert engine.expire_queries(3) == []
    assert engine.expire_queries(5) == [1]
    assert engine.expire_queries(5) == []  # idempotent
    for cell in engine.cells.values():
        assert 1 not in cell.full_queries and 1 not in cell.partial_queries
        if cell.tree is not None:
            for node in cell.tree.nodes():
                assert 1 not in node.queries
    assert 2 in engine.queries


def test_expired_queries_receive_no_deltas():
    rng = random.Random(9)
    engine = make_engine()
    positions = seed_objects(engine, rng, 1000)
    engine.submit_query(1, Circle(Point(0.5, 0.5), 0.2), t_end=1)
    engine.expire_queries(1)
    updates = []
    for obj in list(positions)[:200]:
        old = positions[obj]
        new = Point(rng.random(), rng.random())
        positions[obj] = new
        updates.append((obj, old, new))
    assert engine.on_objects_moved(updates) == []  # no KeyError: no stale registrations


def test_mixed_stream_incremental_equals_scratch():
    rng = random.Random(10)
    engine = make_engine(n=16, alpha=6, m=6)
    positions = seed_objects(engine, rng, 2000)
    circles = {}
    next_q = 0
    for tick in range(60):
        # insert a query now and then
        if next_q < 30 and tick % 2 == 0:
            c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.03, 0.12))
            circles[next_q] = c
            engine.submit_query(next_q, c, t_end=tick + rng.randrange(5, 40))
            next_q += 1
        # move some objects
        updates = []
        for obj in rng.sample(sorted(positions), 150):
            old = positions[obj]
            new = Point(rng.random(), rng.random())
            positions[obj] = new
            updates.append((obj, old, new))
        assert engine.on_objects_moved(updates) == []
        # move some queries
        for q in list(engine.queries)[:5]:
            c = circles[q]
            nc = Circle(
                Point(min(max(c.center.x + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                      min(max(c.center.y + rng.uniform(-0.05, 0.05), 0.0), 1.0)),
                c.radius,
            )
            circles[q] = nc
            engine.on_query_moved(q, nc)
        engine.expire_queries(tick)
        for q in engine.queries:
            assert engine.result(q) == ns_search(positions, circles[q]), f"tick {tick} query {q}"
