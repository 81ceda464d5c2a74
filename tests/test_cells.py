import random

import pytest
from hypothesis import given, settings, strategies as st

from rangemon.cells import NO_CHANGE, Cell, CellDelta
from rangemon.errors import InconsistentUpdateError, StateMismatchError
from rangemon.geometry import Circle, Coverage, Point, Rect, classify, contains
from rangemon.grid import CellId
from rangemon.mtree import SplitConfig

from conftest import brute_filter, check_tree_invariants

BOUNDS = Rect(0.5, 0.5, 0.51, 0.51)


def make_cell(alpha=5, m=9):
    return Cell(CellId(50, 50), BOUNDS, SplitConfig(alpha=alpha, m=m))


def pt(rng):
    return Point(rng.uniform(0.5, 0.51), rng.uniform(0.5, 0.51))


def test_tree_is_lazy():
    cell = make_cell(alpha=5)
    rng = random.Random(1)
    for i in range(4):
        cell.apply_object_update(i, None, pt(rng))
    assert cell.tree is None
    cell.apply_object_update(4, None, pt(rng))
    assert cell.tree is not None
    assert set(cell.tree.positions) == set(range(5))
    # one registry: the cell reads the map the tree writes
    assert cell.objects is cell.tree.positions


def test_tree_inherits_partial_queries():
    cell = make_cell(alpha=5)
    rng = random.Random(2)
    circle = Circle(Point(0.505, 0.505), 0.003)
    cell.register(9, Coverage.PARTIAL, circle)
    assert cell.tree is None
    for i in range(5):
        cell.apply_object_update(i, None, pt(rng))
    assert cell.tree is not None
    assert cell.tree.query_circles == {9: circle}
    # one partial-query map: the cell reads the map the tree writes
    assert cell.partial_queries is cell.tree.query_circles


def test_delta_enter_full_cover():
    cell = make_cell()
    cell.register(1, Coverage.FULL, Circle(Point(0.505, 0.505), 0.02))
    delta = cell.apply_object_update(7, None, Point(0.5001, 0.5001))
    assert delta == CellDelta({1}, set())


def test_delta_partial_tested_by_distance():
    cell = make_cell()
    circle = Circle(Point(0.505, 0.505), 0.002)
    cell.register(1, Coverage.PARTIAL, circle)
    inside = Point(0.505, 0.5055)
    outside = Point(0.5001, 0.5001)
    assert cell.apply_object_update(7, None, inside) == CellDelta({1}, set())
    assert cell.apply_object_update(8, None, outside) == CellDelta(set(), set())
    # move 7 out across the circle boundary: LEAVE
    delta = cell.apply_object_update(7, inside, outside)
    assert delta == CellDelta(set(), {1})


def test_delta_empty_without_queries():
    cell = make_cell()
    a, b = Point(0.501, 0.501), Point(0.509, 0.509)
    # a cell without queries answers with the shared empty delta
    assert cell.apply_object_update(3, None, a) is NO_CHANGE
    assert cell.apply_object_update(3, a, b) is NO_CHANGE
    assert cell.apply_object_update(3, b, None) is NO_CHANGE
    assert NO_CHANGE == CellDelta(set(), set())


def test_inconsistent_updates():
    cell = make_cell()
    with pytest.raises(InconsistentUpdateError):
        cell.apply_object_update(1, Point(0.505, 0.505), None)  # never recorded
    cell.apply_object_update(1, None, Point(0.505, 0.505))
    with pytest.raises(InconsistentUpdateError):
        cell.apply_object_update(1, None, Point(0.506, 0.506))  # double insert


def test_inconsistent_updates_with_tree():
    cell = make_cell(alpha=5)
    rng = random.Random(4)
    for i in range(8):
        cell.apply_object_update(i, None, pt(rng))
    assert cell.tree is not None
    with pytest.raises(InconsistentUpdateError):
        cell.apply_object_update(3, None, pt(rng))  # double insert
    with pytest.raises(InconsistentUpdateError):
        cell.apply_object_update(99, pt(rng), None)  # remove of an unknown id
    with pytest.raises(InconsistentUpdateError):
        cell.apply_object_update(99, pt(rng), pt(rng))  # move of an unknown id
    with pytest.raises(InconsistentUpdateError):
        cell.apply_object_update(3, None, None)
    assert set(cell.objects) == set(range(8))
    check_tree_invariants(cell.tree)


def test_within_move_deltas_match_oracle_with_tree():
    rng = random.Random(3)
    cell = make_cell(alpha=6, m=6)
    positions = {}
    for i in range(60):
        p = pt(rng)
        positions[i] = p
        cell.apply_object_update(i, None, p)
    circles = {q: Circle(pt(rng), rng.uniform(0.001, 0.006)) for q in range(5)}
    for q, c in circles.items():
        cell.register(q, Coverage.PARTIAL, c)
    results = {q: brute_filter(positions, c) for q, c in circles.items()}
    for step in range(300):
        obj = rng.randrange(60)
        new = pt(rng)
        delta = cell.apply_object_update(obj, positions[obj], new)
        positions[obj] = new
        for q_id in delta.entered:
            results[q_id].add(obj)
        for q_id in delta.left:
            results[q_id].discard(obj)
        if step % 50 == 0:
            for q, c in circles.items():
                assert results[q] == brute_filter(positions, c)
    for q, c in circles.items():
        assert results[q] == brute_filter(positions, c)


def test_transitions_six_rules():
    circle = Circle(Point(0.505, 0.505), 0.02)
    cell = make_cell()
    # disjoint -> full
    cell.move_query(1, Coverage.DISJOINT, Coverage.FULL, circle)
    assert 1 in cell.full_queries and 1 not in cell.partial_queries
    # full -> partial
    cell.move_query(1, Coverage.FULL, Coverage.PARTIAL, circle)
    assert cell.partial_queries == {1: circle} and 1 not in cell.full_queries
    # partial -> full
    cell.move_query(1, Coverage.PARTIAL, Coverage.FULL, circle)
    assert 1 in cell.full_queries and not cell.partial_queries
    # full -> disjoint
    cell.move_query(1, Coverage.FULL, Coverage.DISJOINT, circle)
    assert 1 not in cell.full_queries and 1 not in cell.partial_queries
    # disjoint -> partial
    cell.move_query(1, Coverage.DISJOINT, Coverage.PARTIAL, circle)
    assert cell.partial_queries == {1: circle}
    # partial -> disjoint
    cell.move_query(1, Coverage.PARTIAL, Coverage.DISJOINT, circle)
    assert not cell.partial_queries and not cell.full_queries


def test_transition_state_mismatch():
    cell = make_cell()
    circle = Circle(Point(0.505, 0.505), 0.01)
    with pytest.raises(StateMismatchError):
        cell.apply_query_transition(1, Coverage.FULL, Coverage.DISJOINT)
    with pytest.raises(StateMismatchError):
        cell.move_query(1, Coverage.FULL, Coverage.PARTIAL, circle)
    cell.register(1, Coverage.PARTIAL, circle)
    with pytest.raises(StateMismatchError):
        cell.move_query(1, Coverage.FULL, Coverage.FULL, circle)
    with pytest.raises(StateMismatchError):
        cell.move_query(1, Coverage.DISJOINT, Coverage.PARTIAL, circle)
    # a failed move leaves the registration as it was
    assert cell.partial_queries == {1: circle} and not cell.full_queries
    # partial placement has one path: registration with its search
    with pytest.raises(ValueError):
        cell.apply_query_transition(1, Coverage.PARTIAL, Coverage.PARTIAL)


def test_partial_transition_rebuilds_tree_lists():
    rng = random.Random(4)
    cell = make_cell(alpha=5, m=9)
    for i in range(30):
        cell.apply_object_update(i, None, pt(rng))
    c1 = Circle(Point(0.502, 0.502), 0.002)
    cell.register(1, Coverage.PARTIAL, c1)
    placed1 = {n.id for n in cell.tree.nodes() if 1 in n.queries}
    c2 = Circle(Point(0.508, 0.508), 0.002)
    cell.move_query(1, Coverage.PARTIAL, Coverage.PARTIAL, c2)
    placed2 = {n.id for n in cell.tree.nodes() if 1 in n.queries}
    assert placed1 != placed2
    assert cell.tree.query_circles[1] == c2
    assert {n.id for n in cell.tree.query_nodes[1]} == placed2


def test_list_class_coherence_under_random_transitions():
    # drive one query's circle on a random walk through Cell.move_query;
    # after every move the full/partial lists must match a fresh classify
    # of the live circle, (entered, left) must be the brute-force
    # membership difference between the old and the new circle, and under
    # a tree the query must sit on exactly the nodes a fresh registration
    # of the same circle would choose
    def filled_cell(count):
        cell = make_cell(alpha=6, m=6)
        for i in range(count):
            cell.apply_object_update(i, None, positions[i])
        return cell

    for count in (4, 40):  # below alpha (scan path) and above it (tree)
        rng = random.Random(6)
        positions = {i: pt(rng) for i in range(count)}
        cell = filled_cell(count)
        assert (cell.tree is None) == (count < cell.cfg.alpha)
        center = Point(0.505, 0.505)
        cov = Coverage.DISJOINT
        members: set[int] = set()
        for _ in range(200):
            center = Point(
                min(max(center.x + rng.uniform(-0.01, 0.01), 0.48), 0.53),
                min(max(center.y + rng.uniform(-0.01, 0.01), 0.48), 0.53),
            )
            circle = Circle(center, rng.choice([0.002, 0.006, 0.02]))
            new_cov = classify(circle, BOUNDS)
            entered, left = cell.move_query(1, cov, new_cov, circle)
            now_in = brute_filter(positions, circle)
            assert entered == now_in - members
            assert left == members - now_in
            members, cov = now_in, new_cov
            assert (1 in cell.full_queries) == (cov is Coverage.FULL)
            assert cell.partial_queries == ({1: circle} if cov is Coverage.PARTIAL else {})
            if cell.tree is not None:
                check_tree_invariants(cell.tree)
                assert cell.partial_queries is cell.tree.query_circles
                twin = filled_cell(count)
                if cov is not Coverage.DISJOINT:
                    twin.register(1, cov, circle)
                placed = {n.id for n in cell.tree.nodes() if 1 in n.queries}
                assert placed == {n.id for n in twin.tree.nodes() if 1 in n.queries}
                for node in cell.tree.nodes():
                    if 1 in node.queries:
                        assert classify(circle, node.bounds) is not Coverage.DISJOINT


def test_search_matches_scan_and_tree_paths():
    rng = random.Random(5)
    for count in (3, 40):  # below and above the lazy threshold
        cell = make_cell(alpha=8, m=4)
        positions = {}
        for i in range(count):
            p = pt(rng)
            positions[i] = p
            cell.apply_object_update(i, None, p)
        for _ in range(20):
            c = Circle(pt(rng), rng.uniform(0.001, 0.01))
            assert cell.search(99, c) == brute_filter(positions, c)
            assert cell.search_oneshot(c) == brute_filter(positions, c)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cache_keeps_only_live_nodes(seed):
    # merges drop child nodes; their cached sets must go with them
    rng = random.Random(seed)
    cell = make_cell(alpha=4, m=4)
    circle = Circle(Point(0.505, 0.505), 0.004)
    cell.register(1, Coverage.PARTIAL, circle)
    positions = {}
    next_id = 0
    for _ in range(300):
        if positions and rng.random() < 0.5:
            obj_id = rng.choice(sorted(positions))
            cell.apply_object_update(obj_id, positions.pop(obj_id), None)
        else:
            positions[next_id] = pt(rng)
            cell.apply_object_update(next_id, None, positions[next_id])
            next_id += 1
        if rng.random() < 0.3:
            assert cell.search(1, circle) == brute_filter(positions, circle)
        if cell.tree is not None:
            live = {node.id for node in cell.tree.nodes()}
            assert set(cell.cache.sets) <= live


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([5, 40]))
@settings(max_examples=40, deadline=None)
def test_cell_delta_is_the_membership_change(seed, cap):
    # fully and partially covering queries; at most `cap` live objects, so
    # with cap 5 the cell never builds a tree (alpha=6) and with cap 40 it
    # does.  After every insert, remove and within-cell move, the delta's
    # sets are the brute-force change in membership of the reported object
    rng = random.Random(seed)
    cell = make_cell(alpha=6, m=4)
    circles = {0: Circle(Point(0.505, 0.505), 0.02), 1: Circle(Point(0.49, 0.49), 0.05)}
    circles.update({q: Circle(pt(rng), rng.uniform(0.001, 0.006)) for q in range(2, 6)})
    full = {q for q, c in circles.items() if classify(c, BOUNDS) is Coverage.FULL}
    assert full == {0, 1}

    def registered(q):
        return q in cell.full_queries or q in cell.partial_queries

    def holds(p):
        if p is None:
            return set()
        return {q for q, c in circles.items() if registered(q) and (q in full or contains(c, p))}

    for q in (0, 2, 3):
        cell.register(q, classify(circles[q], BOUNDS), circles[q])
    positions: dict[int, Point] = {}
    next_id = 0
    for step in range(200):
        if step == 60:  # later registrations, under a tree when cap is 40
            for q in (1, 4, 5):
                cell.register(q, classify(circles[q], BOUNDS), circles[q])
        roll = rng.random()
        if positions and (roll < 0.2 or len(positions) >= cap):
            obj = rng.choice(sorted(positions))
            old, new = positions.pop(obj), None
        elif positions and roll < 0.6:
            obj = rng.choice(sorted(positions))
            old, new = positions[obj], pt(rng)
            positions[obj] = new
        else:
            obj, old, new = next_id, None, pt(rng)
            positions[obj] = new
            next_id += 1
        delta = cell.apply_object_update(obj, old, new)
        before, after = holds(old), holds(new)
        assert delta.entered == after - before
        assert delta.left == before - after
        assert len(delta) == len(after - before) + len(before - after)
        # the cell's own query set is never handed out
        assert delta.entered is not cell.full_queries and delta.left is not cell.full_queries
    assert (cell.tree is not None) == (cap >= cell.cfg.alpha)


# one query's class sequence that takes each of the eight moves other
# than DISJOINT -> DISJOINT once
CLASS_WALK = [Coverage.DISJOINT, Coverage.FULL, Coverage.FULL, Coverage.PARTIAL, Coverage.PARTIAL,
              Coverage.DISJOINT, Coverage.PARTIAL, Coverage.FULL, Coverage.DISJOINT]


def circle_of_class(rng, cov):
    """A random circle with the given coverage of BOUNDS."""
    if cov is Coverage.FULL:  # the cell's diagonal is 0.0142
        return Circle(pt(rng), rng.uniform(0.015, 0.03))
    if cov is Coverage.DISJOINT:
        return Circle(Point(rng.choice([0.47, 0.54]), rng.uniform(0.47, 0.54)), rng.uniform(0.001, 0.02))
    if rng.random() < 0.5:  # centred inside, too small to reach every corner
        return Circle(pt(rng), rng.uniform(0.001, 0.007))
    # centred outside, reaching across an edge
    return Circle(Point(rng.choice([0.498, 0.512]), rng.uniform(0.5, 0.51)), rng.uniform(0.003, 0.008))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([5, 40]))
@settings(max_examples=30, deadline=None)
def test_two_circle_move_is_the_membership_change(seed, cap):
    # several queries walk through every class pair, with object inserts,
    # removals and moves in between so cached subtree sets go stale; with
    # cap 5 the cell scans (alpha=6), with cap 40 it has a tree.  After
    # each move, (entered, left) is the brute-force membership change, the
    # query sits where a fresh twin registration of its circle sits, and
    # the other queries' placements are untouched
    rng = random.Random(seed)
    cell = make_cell(alpha=6, m=4)
    positions: dict[int, Point] = {}
    next_id = 0

    def object_step():
        nonlocal next_id
        roll = rng.random()
        if positions and (roll < 0.2 or len(positions) >= cap):
            obj = rng.choice(sorted(positions))
            cell.apply_object_update(obj, positions.pop(obj), None)
        elif positions and roll < 0.6:
            obj = rng.choice(sorted(positions))
            new = pt(rng)
            cell.apply_object_update(obj, positions[obj], new)
            positions[obj] = new
        else:
            positions[next_id] = pt(rng)
            cell.apply_object_update(next_id, None, positions[next_id])
            next_id += 1

    def placed(q):
        return {n.id for n in cell.tree.nodes() if q in n.queries} if cell.tree is not None else set()

    for _ in range(cap):
        object_step()
    queries = range(4)
    circles = {q: circle_of_class(rng, Coverage.DISJOINT) for q in queries}
    seen = set()
    for step in range(len(CLASS_WALK) - 1):
        for q in queries:
            for _ in range(rng.randrange(4)):
                object_step()
            old_cov, new_cov = CLASS_WALK[step], CLASS_WALK[step + 1]
            new = circle_of_class(rng, new_cov)
            assert classify(new, BOUNDS) is new_cov
            before = brute_filter(positions, circles[q])
            others = {o: placed(o) for o in queries if o != q}
            entered, left = cell.move_query(q, old_cov, new_cov, new)
            circles[q] = new
            seen.add((old_cov, new_cov))
            after = brute_filter(positions, new)
            assert (entered, left) == (after - before, before - after)
            assert (q in cell.full_queries) == (new_cov is Coverage.FULL)
            assert (q in cell.partial_queries) == (new_cov is Coverage.PARTIAL)
            assert {o: placed(o) for o in others} == others
            if cell.tree is not None:
                check_tree_invariants(cell.tree)
                if new_cov is not Coverage.DISJOINT:
                    twin = 100 + q
                    assert cell.register(twin, new_cov, new) == after
                    assert placed(twin) == placed(q)
                    cell.unregister_query(twin)
    assert len(seen) == 8
    assert (cell.tree is not None) == (cap >= cell.cfg.alpha)
