import random

import pytest

from rangemon.baselines import GridStore, gi_search, ns_search
from rangemon.engine import Engine
from rangemon.errors import InconsistentUpdateError
from rangemon.geometry import Circle, Point, contains
from rangemon.grid import GridIndex
from rangemon.mtree import SearchStats, SplitConfig


def test_ns_search_empty_and_total():
    assert ns_search({}, Circle(Point(0.5, 0.5), 0.1)) == set()
    positions = {i: Point(i / 10, i / 10) for i in range(10)}
    assert ns_search(positions, Circle(Point(0.5, 0.5), 2.0)) == set(range(10))


def test_ns_search_matches_contains():
    rng = random.Random(1)
    positions = {i: Point(rng.random(), rng.random()) for i in range(2000)}
    for _ in range(50):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.3))
        expected = {o for o, p in positions.items() if contains(c, p)}
        assert ns_search(positions, c) == expected


def test_gi_search_single_cell():
    grid = GridIndex(10)
    store = GridStore(grid)
    rng = random.Random(2)
    positions = {i: Point(rng.random(), rng.random()) for i in range(500)}
    for o, p in positions.items():
        store.insert(o, p)
    c = Circle(Point(0.555, 0.555), 0.004)
    assert gi_search(store, c) == ns_search(positions, c)


def test_gi_store_moves():
    grid = GridIndex(10)
    store = GridStore(grid)
    store.insert(1, Point(0.05, 0.05))
    store.move(1, Point(0.95, 0.95))  # cross-cell
    store.move(1, Point(0.96, 0.96))  # within-cell
    assert gi_search(store, Circle(Point(0.95, 0.95), 0.05)) == {1}
    assert gi_search(store, Circle(Point(0.05, 0.05), 0.05)) == set()
    store.remove(1)
    assert gi_search(store, Circle(Point(0.95, 0.95), 0.05)) == set()


def test_gi_store_rejects_inconsistent_updates():
    store = GridStore(GridIndex(10))
    store.insert(1, Point(0.05, 0.05))
    with pytest.raises(InconsistentUpdateError):
        store.insert(1, Point(0.95, 0.95))  # duplicate into another cell
    with pytest.raises(InconsistentUpdateError):
        store.remove(2)
    with pytest.raises(InconsistentUpdateError):
        store.move(2, Point(0.5, 0.5))
    # the rejected insert left no stale entry behind
    assert store.cells == {store.grid.locate(Point(0.05, 0.05)): {1: Point(0.05, 0.05)}}


def test_three_engines_agree():
    rng = random.Random(3)
    grid_n = 20
    positions = {i: Point(rng.random(), rng.random()) for i in range(5000)}
    store = GridStore(GridIndex(grid_n))
    engine = Engine(GridIndex(grid_n), SplitConfig(alpha=10, m=6))
    for o, p in positions.items():
        store.insert(o, p)
    engine.on_objects_moved([(o, None, p) for o, p in positions.items()])
    for q in range(100):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.2))
        expected = ns_search(positions, c)
        assert gi_search(store, c) == expected
        assert engine.submit_query(q, c) == expected


def test_examined_counters_ordered():
    rng = random.Random(4)
    grid_n = 20
    positions = {i: Point(rng.random(), rng.random()) for i in range(8000)}
    store = GridStore(GridIndex(grid_n))
    engine = Engine(GridIndex(grid_n), SplitConfig(alpha=10, m=6))
    for o, p in positions.items():
        store.insert(o, p)
    engine.on_objects_moved([(o, None, p) for o, p in positions.items()])
    for q in range(50):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.02, 0.15))
        s_ns, s_gi, s_dr = SearchStats(), SearchStats(), SearchStats()
        ns_search(positions, c, s_ns)
        gi_search(store, c, s_gi)
        engine.submit_query(q, c, stats=s_dr)
        assert s_dr.objects_examined <= s_gi.objects_examined <= s_ns.objects_examined
