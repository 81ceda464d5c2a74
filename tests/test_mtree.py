import random

import pytest
from hypothesis import given, settings, strategies as st

from rangemon.errors import (
    DuplicateObjectError,
    NoIntersectionError,
    ObjectNotFoundError,
    OutOfDomainError,
)
from rangemon.geometry import Circle, Coverage, Point, Rect, UNIT_SQUARE, classify
from rangemon.mtree import MAX_DEPTH, MTree, SearchStats, SplitConfig, SubtreeCache

from conftest import brute_filter, check_tree_invariants


def make_tree(alpha=5, m=9, bounds=UNIT_SQUARE):
    return MTree(bounds, SplitConfig(alpha=alpha, m=m))


def test_split_config_factorization():
    assert (SplitConfig(5, 9).rows, SplitConfig(5, 9).cols) == (3, 3)
    assert (SplitConfig(5, 6).rows, SplitConfig(5, 6).cols) == (2, 3)
    assert (SplitConfig(5, 4).rows, SplitConfig(5, 4).cols) == (2, 2)
    assert (SplitConfig(5, 2).rows, SplitConfig(5, 2).cols) == (1, 2)
    assert (SplitConfig(5, 7).rows, SplitConfig(5, 7).cols) == (1, 7)  # prime: strips
    assert (SplitConfig(5, 25).rows, SplitConfig(5, 25).cols) == (5, 5)


def test_single_insert_root_leaf():
    t = make_tree()
    t.insert(1, Point(0.3, 0.3))
    assert t.root.is_leaf()
    assert t.root.objects == {1}


def test_root_splits_into_m_children_at_alpha():
    t = make_tree(alpha=5, m=9)
    pts = [Point(0.01 + i * 0.002, 0.01) for i in range(5)]
    for i, p in enumerate(pts):
        t.insert(i, p)
    assert not t.root.is_leaf()
    assert len(t.root.children) == 9
    check_tree_invariants(t)


def test_duplicate_and_out_of_bounds():
    t = make_tree()
    t.insert(1, Point(0.5, 0.5))
    with pytest.raises(DuplicateObjectError):
        t.insert(1, Point(0.6, 0.6))
    with pytest.raises(OutOfDomainError):
        t.insert(2, Point(1.5, 0.5))
    with pytest.raises(ObjectNotFoundError):
        t.remove(99)


def test_colocated_objects_stop_at_depth_cap():
    t = make_tree(alpha=5, m=4)
    for i in range(7):
        t.insert(i, Point(0.123456, 0.654321))
    leaf = t._path_to_leaf(Point(0.123456, 0.654321))[-1]
    assert leaf.depth == MAX_DEPTH
    assert len(leaf.objects) == 7  # allowed to exceed alpha at the cap
    check_tree_invariants(t)


def test_merge_after_removals():
    t = make_tree(alpha=5, m=9)
    rng = random.Random(1)
    pts = [Point(rng.random(), rng.random()) for _ in range(5)]
    for i, p in enumerate(pts):
        t.insert(i, p)
    assert not t.root.is_leaf()
    # drop to 0 objects: each removal checks the group sum
    for i in range(5):
        t.remove(i)
    assert t.root.is_leaf()
    assert t.root.objects == set()


def test_no_merge_when_group_still_big_enough():
    t = make_tree(alpha=9, m=3)
    rng = random.Random(2)
    for i in range(9):
        t.insert(i, Point(rng.random(), rng.random()))
    assert not t.root.is_leaf()
    t.remove(0)  # 8 left, 8*3 >= 9: no merge
    assert not t.root.is_leaf()
    check_tree_invariants(t)


def test_insert_query_full_cover_records_root_only():
    t = make_tree()
    rng = random.Random(3)
    for i in range(20):
        t.insert(i, Point(rng.random(), rng.random()))
    t.insert_query(100, Circle(Point(0.5, 0.5), 1.5))
    assert 100 in t.root.queries
    for node in t.nodes():
        if node is not t.root:
            assert 100 not in node.queries


def test_insert_query_rejects_disjoint():
    t = MTree(Rect(0.0, 0.0, 0.1, 0.1), SplitConfig(5, 9))
    with pytest.raises(NoIntersectionError):
        t.insert_query(1, Circle(Point(0.9, 0.9), 0.01))


def test_query_placement_full_nodes_and_partial_leaves():
    # two-level 9-ary tree: a circle that swallows one child whole and
    # clips others is recorded on the full child (not its would-be leaves)
    # and on the partially cut leaves only
    t = make_tree(alpha=5, m=9)
    rng = random.Random(4)
    for i in range(60):
        t.insert(i, Point(rng.random(), rng.random()))
    circle = Circle(Point(0.5, 0.5), 0.3)
    t.insert_query(7, circle)
    placed = {n.id for n in t.nodes() if 7 in n.queries}
    assert placed
    for node in t.nodes():
        cov = classify(circle, node.bounds)
        if 7 in node.queries:
            if node.is_leaf():
                assert cov in (Coverage.FULL, Coverage.PARTIAL)
            else:
                assert cov is Coverage.FULL
    check_tree_invariants(t)
    # descendants of a fully covered node never record the query
    for node in t.nodes():
        if 7 in node.queries and not node.is_leaf():
            stack = list(node.children)
            while stack:
                child = stack.pop()
                assert 7 not in child.queries
                stack.extend(child.children)


def test_query_on_single_leaf_corner():
    t = make_tree(alpha=5, m=9)
    rng = random.Random(5)
    for i in range(40):
        t.insert(i, Point(rng.random(), rng.random()))
    circle = Circle(Point(0.001, 0.001), 0.01)
    t.insert_query(3, circle)
    for node in t.nodes():
        expected = classify(circle, node.bounds)
        if 3 in node.queries:
            assert expected is not Coverage.DISJOINT
    check_tree_invariants(t)


def test_remove_query_roundtrip():
    t = make_tree(alpha=5, m=6)
    rng = random.Random(6)
    for i in range(30):
        t.insert(i, Point(rng.random(), rng.random()))
    before = {n.id: set(n.queries) for n in t.nodes()}
    t.insert_query(1, Circle(Point(0.4, 0.4), 0.2))
    t.insert_query(2, Circle(Point(0.6, 0.6), 0.25))
    t.remove_query(1)
    after_one = {n.id: set(n.queries) for n in t.nodes()}
    for nid, qs in after_one.items():
        assert 1 not in qs
    t.remove_query(2)
    assert {n.id: set(n.queries) for n in t.nodes()} == before
    t.remove_query(42)  # unknown id: no-op


def test_remove_second_query_untouched():
    t = make_tree(alpha=5, m=9)
    rng = random.Random(7)
    for i in range(50):
        t.insert(i, Point(rng.random(), rng.random()))
    t.insert_query(1, Circle(Point(0.3, 0.7), 0.15))
    t.insert_query(2, Circle(Point(0.7, 0.3), 0.15))
    t.remove_query(1)
    # the invariant checker recomputes query 2's exact expected placement
    check_tree_invariants(t)
    assert 2 in t.query_circles and 1 not in t.query_circles


def test_search_empty_and_full():
    t = make_tree()
    assert t.search(Circle(Point(0.5, 0.5), 0.1)) == set()
    rng = random.Random(8)
    for i in range(25):
        t.insert(i, Point(rng.random(), rng.random()))
    assert t.search(Circle(Point(0.5, 0.5), 1.5)) == set(range(25))
    assert set(t.positions) == set(range(25))


def test_search_matches_brute_force():
    rng = random.Random(9)
    t = make_tree(alpha=8, m=6)
    for i in range(1000):
        t.insert(i, Point(rng.random(), rng.random()))
    for _ in range(50):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.4))
        assert t.search(c) == brute_filter(t.positions, c)


def test_search_shared_matches_and_caches():
    rng = random.Random(10)
    t = make_tree(alpha=6, m=9)
    for i in range(800):
        t.insert(i, Point(rng.random(), rng.random()))
    cache = SubtreeCache()
    c = Circle(Point(0.5, 0.5), 0.3)
    s1 = SearchStats()
    r1 = t.search_shared(1, c, cache, s1)
    assert r1 == brute_filter(t.positions, c)
    assert s1.cache_hits == 0
    s2 = SearchStats()
    r2 = t.search_shared(2, c, cache, s2)
    assert r2 == r1
    assert s2.leaf_descents == 0  # every full subtree came from the cache
    assert s2.cache_hits > 0


def test_search_shared_version_guard():
    rng = random.Random(11)
    t = make_tree(alpha=6, m=9)
    for i in range(500):
        t.insert(i, Point(rng.random(), rng.random()))
    cache = SubtreeCache()
    c = Circle(Point(0.5, 0.5), 0.25)
    t.search_shared(1, c, cache)
    # mutate under a cached region, then re-query: the stale set must not leak
    t.insert(9999, Point(0.5, 0.5))
    r = t.search_shared(2, c, cache)
    assert r == brute_filter(t.positions, c)
    assert 9999 in r


def test_collect_all_equals_leaf_walk():
    rng = random.Random(12)
    t = make_tree(alpha=5, m=4)
    for i in range(300):
        t.insert(i, Point(rng.random(), rng.random()))
    walked = set()
    for node in t.nodes():
        walked |= node.objects
    assert set(t.positions) == walked == set(range(300))
    check_tree_invariants(t)


def test_move_same_leaf_keeps_versions():
    t = make_tree(alpha=50, m=4)
    t.insert(1, Point(0.5, 0.5))
    v = t.root.version
    t.move(1, Point(0.500001, 0.500001))
    assert t.root.version == v
    assert t.positions[1] == Point(0.500001, 0.500001)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4, 6, 9, 16]))
def test_fuzz_insert_remove_invariants(seed, m):
    rng = random.Random(seed)
    t = MTree(UNIT_SQUARE, SplitConfig(alpha=rng.choice([4, 5, 8, 12]), m=m))
    alive = set()
    next_id = 0
    for _ in range(400):
        if alive and rng.random() < 0.4:
            obj = rng.choice(sorted(alive))
            if rng.random() < 0.5:
                t.remove(obj)
                alive.discard(obj)
            else:
                t.move(obj, Point(rng.random(), rng.random()))
        else:
            t.insert(next_id, Point(rng.random(), rng.random()))
            alive.add(next_id)
            next_id += 1
    check_tree_invariants(t)
    c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.5))
    assert t.search(c) == brute_filter(t.positions, c)


def test_queries_survive_splits_and_merges():
    rng = random.Random(13)
    t = make_tree(alpha=5, m=6)
    circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.4)) for q in range(8)}
    for q, c in circles.items():
        t.insert_query(q, c)
    alive = set()
    next_id = 0
    for _ in range(600):
        if alive and rng.random() < 0.45:
            obj = rng.choice(sorted(alive))
            t.remove(obj)
            alive.discard(obj)
        else:
            t.insert(next_id, Point(rng.random(), rng.random()))
            alive.add(next_id)
            next_id += 1
    check_tree_invariants(t)  # includes exact query-placement comparison


def test_queries_on_path_are_the_queries_touching_the_leaf():
    rng = random.Random(14)
    t = make_tree(alpha=5, m=6)
    circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.3)) for q in range(10)}
    for q, c in circles.items():
        t.insert_query(q, c)
    for i in range(200):
        t.insert(i, Point(rng.random(), rng.random()))
    leaves = [n for n in t.nodes() if n.is_leaf()]
    for _ in range(100):
        p = Point(rng.random(), rng.random())
        leaf = next(n for n in leaves if n.bounds.contains(p.x, p.y))
        touching = {q for q, c in circles.items() if classify(c, leaf.bounds) is not Coverage.DISJOINT}
        assert t.queries_on_path(p) == touching


def reference_move(t, obj_id, p):
    """Move by the older rule: rewrite the position within the leaf, or
    remove and insert again through the public methods."""
    if t._path_to_leaf(t.positions[obj_id])[-1] is t._path_to_leaf(p)[-1]:
        t.positions[obj_id] = p
    else:
        t.remove(obj_id)
        t.insert(obj_id, p)


def assert_same_tree(a, b):
    assert a.positions == b.positions
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        assert (x.id, x.depth, x.version, x.objects, x.queries, len(x.children)) == (
            y.id, y.depth, y.version, y.objects, y.queries, len(y.children))
        stack.extend(zip(x.children, y.children))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4, 6, 9]))
def test_move_matches_remove_then_insert(seed, m):
    """`move` walks each endpoint once and cuts the new path where a merge
    made it end early; node ids, versions, splits and merges must come out
    exactly as a removal followed by an insertion would leave them."""
    rng = random.Random(seed)
    cfg = SplitConfig(alpha=rng.choice([4, 5, 8]), m=m)
    moved, reference = MTree(UNIT_SQUARE, cfg), MTree(UNIT_SQUARE, cfg)
    for q in range(4):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.3))
        moved.insert_query(q, c)
        reference.insert_query(q, c)
    alive: list[int] = []
    next_id = 0
    for _ in range(300):
        r = rng.random()
        if len(alive) < 4 or r < 0.2:
            p = Point(rng.random(), rng.random())
            moved.insert(next_id, p)
            reference.insert(next_id, p)
            alive.append(next_id)
            next_id += 1
        elif r < 0.35:
            obj = alive.pop(rng.randrange(len(alive)))
            moved.remove(obj)
            reference.remove(obj)
        else:
            obj = rng.choice(alive)
            old = moved.positions[obj]
            p = Point(min(max(old.x + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                      min(max(old.y + rng.uniform(-0.05, 0.05), 0.0), 1.0))
            expected = reference.queries_on_path(old) | reference.queries_on_path(p)
            assert moved.move(obj, p) == expected
            reference_move(reference, obj, p)
        assert_same_tree(moved, reference)
        check_tree_invariants(moved)
