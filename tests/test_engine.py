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
    # the loader takes moves as well as insertions: after every batch, a
    # fresh one-shot search of each circle sees the objects where they are,
    # while the first search of the same circle stays registered throughout
    rng = random.Random(3)
    engine = make_engine()
    positions = seed_objects(engine, rng, 5000)
    circles = [Circle(Point(rng.random(), rng.random()), rng.uniform(0.02, 0.15)) for _ in range(40)]
    for q, c in enumerate(circles):
        engine.submit_query(1000 + q, c)
    for batch in range(10):
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
        for q, c in enumerate(circles):
            assert engine.submit_query(q, c) == ns_search(positions, c), f"batch {batch} query {q}"
            engine.remove_query(q)


def test_single_object_crossing_in():
    engine = make_engine()
    c = Circle(Point(0.5, 0.5), 0.05)
    p_out = Point(0.6, 0.5)
    engine.on_objects_moved([(1, None, p_out)])
    assert engine.submit_query(1, c) == set()
    engine.remove_query(1)
    p_in = Point(0.52, 0.5)
    engine.on_objects_moved([(1, p_out, p_in)])
    assert engine.submit_query(1, c) == {1}


def test_move_errors_do_not_abort_batch():
    engine = make_engine()
    p = Point(0.5, 0.5)
    errors = engine.on_objects_moved([
        (1, Point(0.1, 0.1), Point(0.2, 0.2)),  # never inserted
        (2, None, p),
    ])
    assert len(errors) == 1 and errors[0][0] == 1
    assert engine.cell(engine.grid.locate(p)).objects[2] == p


def test_expiry_removes_all_registrations():
    rng = random.Random(8)
    engine = make_engine()
    seed_objects(engine, rng, 3000)
    engine.submit_query(1, Circle(Point(0.5, 0.5), 0.1))
    engine.submit_query(2, Circle(Point(0.3, 0.3), 0.1))
    engine.remove_query(1)
    for cell in engine.cells.values():
        assert 1 not in cell.full_queries and 1 not in cell.partial_queries
        if cell.tree is not None:
            for node in cell.tree.nodes():
                assert 1 not in node.queries
    assert list(engine.queries) == [2]


def test_expired_queries_receive_no_deltas():
    rng = random.Random(9)
    engine = make_engine()
    positions = seed_objects(engine, rng, 1000)
    engine.submit_query(1, Circle(Point(0.5, 0.5), 0.2))
    engine.submit_query(2, Circle(Point(0.4, 0.6), 0.2))
    engine.remove_query(1)
    notified = set()
    for obj in list(positions)[:200]:
        old = positions[obj]
        new = Point(rng.random(), rng.random())
        positions[obj] = new
        for _, delta in engine.move_object(obj, old, new):
            notified |= {entry.q_id for entry in delta}
    assert notified == {2}  # no stale registration of the removed query
