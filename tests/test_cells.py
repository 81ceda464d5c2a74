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


# Two queries around the corner of the cell's south-west quarter: SMALL
# cuts the quarter, QUARTER covers it.  SW_POINTS build a tree (alpha 5,
# m 4) whose south-west quarter holds four objects; SW_LAST is its fifth,
# which splits the quarter into four leaves, each cut by SMALL.
SMALL = Circle(Point(0.5025, 0.5025), 0.002)
QUARTER = Circle(Point(0.5025, 0.5025), 0.004)
SW_POINTS = [Point(0.507, 0.502), Point(0.502, 0.507), Point(0.507, 0.507), Point(0.5025, 0.5025),
             Point(0.5024, 0.5026), Point(0.5026, 0.5024), Point(0.5025, 0.5026)]
SW_LAST = Point(0.5024, 0.5024)


def south_west_cell(circles):
    cell = make_cell(alpha=5, m=4)
    for q, c in circles.items():
        cell.register(q, Coverage.PARTIAL, c)
    for i, p in enumerate(SW_POINTS):
        cell.apply_object_update(i, None, p)
    return cell


def spy(tree, name):
    """Record every return value of one of the tree's methods."""
    returned = []
    method = getattr(tree, name)

    def recorded(*args):
        out = method(*args)
        returned.append(out)
        return out

    setattr(tree, name, recorded)
    return returned


def test_insertion_that_splits_its_leaf_reports_the_query_pushed_down():
    # the leaf's queries are read before the split moves SMALL off the leaf
    cell = south_west_cell({1: SMALL})
    sw = cell.tree.root.children[0]
    assert sw.is_leaf() and sw.queries == {1}
    assert cell.apply_object_update(7, None, SW_LAST) == CellDelta({1}, set())
    assert not sw.is_leaf() and 1 not in sw.queries
    check_tree_invariants(cell.tree)


def test_crossing_joins_the_interior_path_queries_without_a_test():
    # QUARTER sits on the quarter, an interior node at depth 1 of a depth-2
    # tree: it holds every point below it, so it is certain, not tested
    cell = south_west_cell({1: SMALL, 2: QUARTER})
    cell.apply_object_update(7, None, SW_LAST)
    assert cell.tree.root.children[0].queries == {2}
    inserted = spy(cell.tree, "insert")
    assert cell.apply_object_update(8, None, Point(0.501, 0.501)) == CellDelta({2}, set())
    (certain, tested), = inserted
    assert certain == {2} and set(tested) == {1}


def test_move_between_leaves_under_a_covered_node_skips_its_query():
    cell = south_west_cell({1: SMALL, 2: QUARTER})
    cell.apply_object_update(7, None, SW_LAST)
    moved = spy(cell.tree, "move")
    delta = cell.apply_object_update(7, SW_LAST, Point(0.504, 0.504))
    assert moved == [{1}]  # QUARTER covers both leaves' parent: not a candidate
    assert delta == CellDelta(set(), {1})


def test_removals_that_merge_report_the_brute_force_leaves():
    circles = {1: SMALL, 2: QUARTER}
    cell = south_west_cell(circles)
    positions = dict(enumerate(SW_POINTS))
    positions[7] = SW_LAST
    cell.apply_object_update(7, None, SW_LAST)
    sizes = [len(cell.tree.nodes())]
    for obj in (3, 4, 5, 6, 7, 0, 1, 2):
        p = positions.pop(obj)
        delta = cell.apply_object_update(obj, p, None)
        assert delta == CellDelta(set(), {q for q, c in circles.items() if contains(c, p)})
        check_tree_invariants(cell.tree)
        sizes.append(len(cell.tree.nodes()))
    assert sizes[0] == 9 and sizes[-1] == 1  # the quarter merged, then the root


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


@pytest.mark.parametrize("count", [5, 40])
def test_moves_into_shared_sets_across_two_cells(count):
    # one query walks two cells through every class pair at once, in
    # different orders, each step adding both cells' changes into one
    # shared pair of sets; with 5 objects the cells scan (alpha=6), with
    # 40 they have trees.  The shared sets are the union of the brute-force
    # membership changes, each cell's lists match a twin that registered
    # the new circle fresh, and a wrong old class raises before anything
    # changes
    rng = random.Random(23 + count)
    walks = (CLASS_WALK, CLASS_WALK[::-1])
    positions = [{k * 1000 + i: pt(rng) for i in range(count)} for k in range(2)]

    def filled(k):
        cell = Cell(CellId(50, 50 + k), BOUNDS, SplitConfig(alpha=6, m=4))
        for obj, p in positions[k].items():
            cell.apply_object_update(obj, None, p)
        return cell

    def lists(cell, q):
        placed = {n.id for n in cell.tree.nodes() if q in n.queries} if cell.tree is not None else None
        return q in cell.full_queries, cell.partial_queries.get(q), placed

    cells = [filled(0), filled(1)]
    assert all((cell.tree is None) == (count < cell.cfg.alpha) for cell in cells)
    circles = [circle_of_class(rng, Coverage.DISJOINT) for _ in cells]
    seen = set()
    for step in range(len(CLASS_WALK) - 1):
        entered: set[int] = set()
        left: set[int] = set()
        want_entered: set[int] = set()
        want_left: set[int] = set()
        for k, cell in enumerate(cells):
            old_cov, new_cov = walks[k][step], walks[k][step + 1]
            seen.add((old_cov, new_cov))
            new = circle_of_class(rng, new_cov)
            before, after = brute_filter(positions[k], circles[k]), brute_filter(positions[k], new)
            assert cell.move_query(1, old_cov, new_cov, new, None, entered, left) == (entered, left)
            want_entered |= after - before
            want_left |= before - after
            circles[k] = new
            twin = filled(k)
            if new_cov is not Coverage.DISJOINT:
                twin.register(1, new_cov, new)
            assert lists(cell, 1) == lists(twin, 1)
        assert (entered, left) == (want_entered, want_left)
        for k, cell in enumerate(cells):
            cov = walks[k][step + 1]
            held = lists(cell, 1)
            for wrong in set(Coverage) - {cov}:
                for new_cov in Coverage:
                    shared: tuple[set[int], set[int]] = (set(), set())
                    with pytest.raises(StateMismatchError):
                        cell.move_query(1, wrong, new_cov, circle_of_class(rng, new_cov), None, *shared)
                    assert shared == (set(), set()) and lists(cell, 1) == held
    assert len(seen) == 8  # the seven class pairs that move, and FULL to FULL
