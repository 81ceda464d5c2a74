import random
import threading
import time

import pytest

from rangemon.geometry import Circle, Coverage, Point, classify
from rangemon.mtree import MAX_DEPTH, MTree


def brute_filter(positions, circle):
    """Reference membership filter, independent of any index."""
    cx, cy = circle.center
    rr = circle.radius * circle.radius
    return {o for o, (x, y) in positions.items() if (x - cx) ** 2 + (y - cy) ** 2 <= rr}


def check_tree_invariants(tree: MTree, check_queries: bool = True) -> None:
    """Structural and query-placement invariants of an m-ary tree."""
    cfg = tree.cfg
    seen: dict[int, int] = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.children:
            assert len(node.children) == cfg.m, f"node {node.id} has {len(node.children)} children"
            assert not node.objects, f"interior node {node.id} holds objects"
            # children tile the parent via the shared edge arrays
            assert node.xs[0] == node.bounds.x_lo and node.xs[-1] == node.bounds.x_hi
            assert node.ys[0] == node.bounds.y_lo and node.ys[-1] == node.bounds.y_hi
            for i in range(cfg.rows):
                for j in range(cfg.cols):
                    child = node.children[i * cfg.cols + j]
                    assert child.bounds.x_lo == node.xs[j] and child.bounds.x_hi == node.xs[j + 1]
                    assert child.bounds.y_lo == node.ys[i] and child.bounds.y_hi == node.ys[i + 1]
            # no all-leaf sibling group below the merge threshold
            if all(c.is_leaf() for c in node.children):
                total = sum(len(c.objects) for c in node.children)
                assert not cfg.should_merge(total), (
                    f"all-leaf group under {node.id} holds {total} < alpha/m"
                )
            stack.extend(node.children)
        else:
            if node.depth < MAX_DEPTH:
                assert len(node.objects) < cfg.alpha, (
                    f"leaf {node.id} holds {len(node.objects)} >= alpha={cfg.alpha}"
                )
            for obj_id in node.objects:
                assert obj_id not in seen, f"object {obj_id} in two leaves"
                seen[obj_id] = node.id
                p = tree.positions[obj_id]
                b = node.bounds
                root = tree.root.bounds
                x_ok = b.x_lo <= p.x < b.x_hi or (p.x == b.x_hi == root.x_hi)
                y_ok = b.y_lo <= p.y < b.y_hi or (p.y == b.y_hi == root.y_hi)
                assert x_ok and y_ok, f"object {obj_id} at {p} outside its leaf {b}"
    assert set(seen) == set(tree.positions), "leaf contents disagree with the position registry"

    if check_queries:
        # recompute expected placement per live circle and compare node by node
        expected: dict[int, set[int]] = {n.id: set() for n in tree.nodes()}
        for q_id, circle in tree.query_circles.items():
            stack = [tree.root]
            while stack:
                node = stack.pop()
                cov = classify(circle, node.bounds)
                if cov is Coverage.DISJOINT:
                    continue
                if cov is Coverage.FULL or node.is_leaf():
                    expected[node.id].add(q_id)
                else:
                    stack.extend(node.children)
        for node in tree.nodes():
            assert node.queries == expected[node.id], (
                f"node {node.id}: recorded {node.queries} expected {expected[node.id]}"
            )
        # the reverse map must name exactly the nodes carrying each query
        live = {n.id: n for n in tree.nodes()}
        for q_id in tree.query_circles:
            tracked = {n.id for n in tree.query_nodes.get(q_id, set())}
            actual = {nid for nid, n in live.items() if q_id in n.queries}
            assert tracked == actual, f"query {q_id}: placement map {tracked} != {actual}"


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started running 2 s after it
    ends: a closed socket cluster must have ended its reader threads."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    leaked = [t for t in threading.enumerate() if t not in before]
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(t.name for t in leaked if t.is_alive())
    if alive:
        pytest.fail(f"{len(alive)} thread(s) still running 2 s after the test: {alive}")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_circle(rng: random.Random, r_lo=0.005, r_hi=0.2) -> Circle:
    return Circle(Point(rng.random(), rng.random()), rng.uniform(r_lo, r_hi))
