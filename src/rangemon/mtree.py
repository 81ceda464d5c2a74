"""Adaptive m-ary spatial tree with standing-query lists and a shared
subtree cache.

A leaf that reaches ``alpha`` objects splits into exactly ``m`` children
(tiled as rows x columns); when every child of a node is a leaf and the
group's object total drops below ``alpha / m``, the parent absorbs the
group and becomes a leaf again.  Standing queries are recorded on the
highest fully-covered node (descent stops there) and on every partially
intersected leaf, so both searches and per-object membership updates only
ever touch the region a circle actually overlaps.

The tree owns the position map of its objects (a cell's registry, once
the cell has a tree).  A move walks the old and the new root-to-leaf path
once each and returns the queries recorded on them.  A query move is one
walk against the old and the new circle that descends only where either
circle cuts a node, so its cost follows the change in the answer.

Subtree materializations for fully-covered nodes are memoized in a
:class:`SubtreeCache` keyed by (node id, node version); any object
mutation bumps versions along its root-to-leaf path, which invalidates
exactly the cached sets that could have changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

from .errors import (
    DuplicateObjectError,
    NoIntersectionError,
    ObjectNotFoundError,
    OutOfDomainError,
)
from .geometry import Circle, Coverage, Point, Rect, classify, slot

# Co-located objects can exceed alpha in a single leaf; without a depth cap
# they would split forever.  At the cap a leaf is allowed to grow past alpha.
MAX_DEPTH = 12

# how a node relates to one circle in MTree.move_query
_GEO, _NONE, _CUT, _FULL, _ALL = "geo", "none", "cut", "full", "all"


def _inside(ids: Iterable[int], pos: Mapping[int, Point], circle: Circle) -> set[int]:
    (cx, cy), r = circle
    rr = r * r
    out = set()
    for obj_id in ids:
        px, py = pos[obj_id]
        ex = px - cx
        ey = py - cy
        if ex * ex + ey * ey <= rr:
            out.add(obj_id)
    return out


def member_changes(ids: AbstractSet[int], pos: Mapping[int, Point], old: Circle | bool,
                   new: Circle | bool, entered: set[int], left: set[int]) -> None:
    """Add to ``entered`` the ids inside ``new`` but not ``old``, and to
    ``left`` the reverse, in one pass over ``ids``.  A side that is a bool
    is settled for every id: True holds them all, False none."""
    if isinstance(old, bool):
        inside = _inside(ids, pos, new)
        if old:
            left |= ids - inside
        else:
            entered |= inside
    elif isinstance(new, bool):
        inside = _inside(ids, pos, old)
        if new:
            entered |= ids - inside
        else:
            left |= inside
    else:
        (ox, oy), r = old
        orr = r * r
        (nx, ny), r = new
        nrr = r * r
        for obj_id in ids:
            px, py = pos[obj_id]
            ex = px - ox
            ey = py - oy
            was_in = ex * ex + ey * ey <= orr
            ex = px - nx
            ey = py - ny
            if was_in != (ex * ex + ey * ey <= nrr):
                (left if was_in else entered).add(obj_id)


@dataclass
class SplitConfig:
    """Split threshold ``alpha`` and bifurcation count ``m``.  The merge
    threshold is alpha/m; comparisons are done as ``total * m < alpha`` so
    no fractional threshold is ever materialized."""

    alpha: int = 20
    m: int = 6

    def __post_init__(self) -> None:
        if self.alpha < 2:
            raise ValueError("alpha must be >= 2")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        r = 1
        for d in range(int(self.m ** 0.5), 0, -1):
            if self.m % d == 0:
                r = d
                break
        self.rows = r
        self.cols = self.m // r

    def should_merge(self, group_total: int) -> bool:
        return group_total * self.m < self.alpha


@dataclass
class SearchStats:
    """Mutable counters threaded through searches for instrumentation."""

    nodes_visited: int = 0
    leaf_descents: int = 0
    cache_hits: int = 0
    objects_examined: int = 0


class MTreeNode:
    """Either a leaf (``children == []``, objects live here) or an interior
    node with exactly m children tiling its bounds."""

    __slots__ = ("id", "bounds", "depth", "children", "objects", "queries", "version", "xs", "ys")

    def __init__(self, node_id: int, bounds: Rect, depth: int):
        self.id = node_id
        self.bounds = bounds
        self.depth = depth
        self.children: list[MTreeNode] = []
        self.objects: set[int] = set()
        self.queries: set[int] = set()
        self.version = 0
        self.xs: list[float] | None = None  # child column edges, set on split
        self.ys: list[float] | None = None

    def is_leaf(self) -> bool:
        return not self.children


class SubtreeCache:
    """Materialized object sets of fully covered nodes, shared by every
    query that searches the tree.

    ``sets`` keeps at most one entry per node id; an entry is used only if
    its stored version matches the node's current version, so sets cached
    before a mutation under that node are treated as absent.  The tree the
    cache is attached to evicts the entries of nodes a merge removes.
    """

    def __init__(self) -> None:
        self.sets: dict[int, tuple[int, frozenset[int]]] = {}  # node id -> (version, objects)


class MTree:
    def __init__(self, bounds: Rect, cfg: SplitConfig, cache: SubtreeCache | None = None):
        self.cfg = cfg
        self.cache = cache
        self.positions: dict[int, Point] = {}
        self.query_circles: dict[int, Circle] = {}
        # exactly the nodes whose `queries` set holds each query; kept in
        # sync through splits and merges so removal never walks the tree
        self.query_nodes: dict[int, set[MTreeNode]] = {}
        self._next_id = 0
        self.root = self._new_node(bounds, 0)

    def _new_node(self, bounds: Rect, depth: int) -> MTreeNode:
        node = MTreeNode(self._next_id, bounds, depth)
        self._next_id += 1
        return node

    # -- descent ---------------------------------------------------------

    def _path_to_leaf(self, p: Point) -> list[MTreeNode]:
        node = self.root
        path = [node]
        cols = self.cfg.cols
        while node.children:
            node = node.children[slot(node.ys, p.y) * cols + slot(node.xs, p.x)]
            path.append(node)
        return path

    def _check_domain(self, p: Point) -> None:
        b = self.root.bounds
        if not (b.x_lo <= p.x <= b.x_hi and b.y_lo <= p.y <= b.y_hi):
            raise OutOfDomainError(f"point {p} outside tree bounds {b}")

    # -- object mutations --------------------------------------------------

    def insert(self, obj_id: int, p: Point) -> None:
        if obj_id in self.positions:
            raise DuplicateObjectError(f"object {obj_id} already present")
        self._check_domain(p)
        self._insert_along(obj_id, p, self._path_to_leaf(p))

    def remove(self, obj_id: int) -> None:
        if obj_id not in self.positions:
            raise ObjectNotFoundError(f"object {obj_id} not present")
        self._remove_along(obj_id, self._path_to_leaf(self.positions[obj_id]))

    def move(self, obj_id: int, p_new: Point) -> set[int]:
        """Relocate an object; returns the queries recorded along its old
        and new root-to-leaf paths, the only ones whose membership can
        change.  Each path is walked once, before anything changes.  A move
        within its current leaf touches no structure and no versions (the
        per-node object sets are unchanged); otherwise it is a removal along
        the old path followed by an insertion along the new one."""
        if obj_id not in self.positions:
            raise ObjectNotFoundError(f"object {obj_id} not present")
        old_path = self._path_to_leaf(self.positions[obj_id])
        self._check_domain(p_new)
        new_path = self._path_to_leaf(p_new)
        candidates = set().union(*[n.queries for n in old_path + new_path])
        if new_path[-1] is old_path[-1]:
            self.positions[obj_id] = p_new
            return candidates
        merged = self._remove_along(obj_id, old_path)
        if merged in new_path:
            # the merge made a node of the new path a leaf: it ends there
            del new_path[new_path.index(merged) + 1:]
        self._insert_along(obj_id, p_new, new_path)
        return candidates

    def _insert_along(self, obj_id: int, p: Point, path: list[MTreeNode]) -> None:
        self.positions[obj_id] = p
        for node in path:
            node.version += 1
        leaf = path[-1]
        leaf.objects.add(obj_id)
        if len(leaf.objects) >= self.cfg.alpha:
            self._split(leaf)

    def _remove_along(self, obj_id: int, path: list[MTreeNode]) -> MTreeNode | None:
        del self.positions[obj_id]
        for node in path:
            node.version += 1
        path[-1].objects.remove(obj_id)
        return self._merge_up(path)

    def _split(self, node: MTreeNode) -> None:
        if node.depth >= MAX_DEPTH:
            return
        rows, cols = self.cfg.rows, self.cfg.cols
        b = node.bounds
        node.xs = [b.x_lo + j * (b.width / cols) for j in range(cols)] + [b.x_hi]
        node.ys = [b.y_lo + i * (b.height / rows) for i in range(rows)] + [b.y_hi]
        node.children = [
            self._new_node(Rect(node.xs[j], node.ys[i], node.xs[j + 1], node.ys[i + 1]), node.depth + 1)
            for i in range(rows)
            for j in range(cols)
        ]
        for obj_id in node.objects:
            p = self.positions[obj_id]
            node.children[slot(node.ys, p.y) * cols + slot(node.xs, p.x)].objects.add(obj_id)
        node.objects = set()
        # queries that only partially intersect this node may no longer sit
        # on an interior node; push them down to the children
        staying = set()
        for q_id in node.queries:
            circle = self.query_circles[q_id]
            if classify(circle, node.bounds) is Coverage.FULL:
                staying.add(q_id)
            else:
                self.query_nodes[q_id].discard(node)
                for child in node.children:
                    self._register_down(child, q_id, circle)
        node.queries = staying
        for child in node.children:
            if len(child.objects) >= self.cfg.alpha:
                self._split(child)

    def _merge_up(self, path: list[MTreeNode]) -> MTreeNode | None:
        """Let ancestors on ``path`` absorb all-leaf child groups that fell
        below alpha/m; returns the highest node that absorbed one, if any."""
        merged = None
        for i in range(len(path) - 2, -1, -1):
            parent = path[i]
            if any(not c.is_leaf() for c in parent.children):
                break
            total = sum(len(c.objects) for c in parent.children)
            if not self.cfg.should_merge(total):
                break
            for child in parent.children:
                parent.objects |= child.objects
                parent.queries |= child.queries
                for q_id in child.queries:
                    placements = self.query_nodes[q_id]
                    placements.discard(child)
                    placements.add(parent)
                if self.cache is not None:
                    self.cache.sets.pop(child.id, None)
            parent.children = []
            parent.xs = parent.ys = None
            merged = parent
        return merged

    # -- query registration ------------------------------------------------

    def _register_down(self, start: MTreeNode, q_id: int, circle: Circle) -> None:
        placements = self.query_nodes.setdefault(q_id, set())
        stack = [start]
        while stack:
            node = stack.pop()
            cov = classify(circle, node.bounds)
            if cov is Coverage.DISJOINT:
                continue
            if cov is Coverage.FULL or node.is_leaf():
                node.queries.add(q_id)
                placements.add(node)
            else:
                stack.extend(node.children)

    def insert_query(self, q_id: int, circle: Circle) -> None:
        if classify(circle, self.root.bounds) is Coverage.DISJOINT:
            raise NoIntersectionError(f"query {q_id} does not touch tree bounds")
        self.query_circles[q_id] = circle
        self._register_down(self.root, q_id, circle)

    def remove_query(self, q_id: int) -> None:
        """Idempotent; touches exactly the nodes the query sits on."""
        self.query_circles.pop(q_id, None)
        for node in self.query_nodes.pop(q_id, ()):
            node.queries.discard(q_id)

    def queries_on_path(self, p: Point) -> set[int]:
        """Union of query lists along the root-to-leaf path of p: exactly the
        queries whose circle could contain p."""
        return set().union(*[n.queries for n in self._path_to_leaf(p)])

    # -- search --------------------------------------------------------------

    def _collect(self, start: MTreeNode, out: set[int], stats: SearchStats | None) -> None:
        stack = [start]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                if stats is not None:
                    stats.leaf_descents += 1
                out |= node.objects
            else:
                stack.extend(node.children)

    def search(self, circle: Circle, stats: SearchStats | None = None) -> set[int]:
        """Objects within the circle.  Fully covered branches contribute
        without per-object tests; only partially intersected leaves are
        filtered point by point."""
        return self._search(circle, None, stats)

    def search_shared(
        self,
        q_id: int,
        circle: Circle,
        cache: SubtreeCache,
        stats: SearchStats | None = None,
        register: bool = False,
    ) -> set[int]:
        """Same result as :meth:`search`, but fully-covered subtrees are
        materialized at most once per version and reused across queries.

        With ``register=True`` the pass doubles as query insertion: the
        query lands on exactly the nodes this traversal stops at (covered
        nodes and partially cut leaves), saving a second walk.
        """
        if not register:
            return self._search(circle, cache.sets, stats)
        self.query_circles[q_id] = circle
        return self._search(circle, cache.sets, stats, q_id, self.query_nodes.setdefault(q_id, set()))

    def _search(
        self,
        circle: Circle,
        sets: dict[int, tuple[int, frozenset[int]]] | None,
        stats: SearchStats | None,
        q_id: int = -1,
        placements: set[MTreeNode] | None = None,
    ) -> set[int]:
        """The one search loop.  ``sets`` is a subtree cache's store (None:
        materialize every covered node afresh).  With ``placements`` given,
        q_id is recorded on the nodes the pass stops at and they are added
        to ``placements``.

        The coverage math is inlined (identical to :func:`classify`): node
        visits dominate search cost, so the per-call overhead matters.
        """
        (cx, cy), radius = circle
        rr = radius * radius
        pos = self.positions
        out: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if stats is not None:
                stats.nodes_visited += 1
            b = node.bounds
            x_lo, y_lo, x_hi, y_hi = b.x_lo, b.y_lo, b.x_hi, b.y_hi
            dx = x_lo - cx if cx < x_lo else (cx - x_hi if cx > x_hi else 0.0)
            dy = y_lo - cy if cy < y_lo else (cy - y_hi if cy > y_hi else 0.0)
            if dx * dx + dy * dy > rr:
                continue
            fx = max(cx - x_lo, x_hi - cx)
            fy = max(cy - y_lo, y_hi - cy)
            if fx * fx + fy * fy <= rr:
                if placements is not None:
                    node.queries.add(q_id)
                    placements.add(node)
                out |= self._covered(node, sets, stats)
            elif node.children:
                stack.extend(node.children)
            else:
                if placements is not None:
                    node.queries.add(q_id)
                    placements.add(node)
                for obj_id in node.objects:
                    if stats is not None:
                        stats.objects_examined += 1
                    px, py = pos[obj_id]
                    ex = px - cx
                    ey = py - cy
                    if ex * ex + ey * ey <= rr:
                        out.add(obj_id)
        return out

    def _covered(self, node: MTreeNode, sets: dict[int, tuple[int, frozenset[int]]] | None,
                 stats: SearchStats | None) -> AbstractSet[int]:
        """The objects under a fully covered node: the cached set if it is
        current, else a fresh materialization (cached when ``sets`` is a
        cache's store)."""
        if sets is not None:
            entry = sets.get(node.id)
            if entry is not None and entry[0] == node.version:
                if stats is not None:
                    stats.cache_hits += 1
                return entry[1]
        collected: set[int] = set()
        self._collect(node, collected, stats)
        if sets is None:
            return collected
        ids = frozenset(collected)
        sets[node.id] = (node.version, ids)
        return ids

    def move_query(self, q_id: int, old: Circle | None, new: Circle | None,
                   stats: SearchStats) -> tuple[set[int], set[int]]:
        """Move a query from circle ``old`` to circle ``new`` in one walk;
        returns the (entered, left) object ids.  ``None`` on either side is
        a circle that covers the whole tree, whose query is not placed in
        it (its cell holds it as fully covering).

        The walk classifies each node against both circles.  It stops at a
        node that both cover or neither touches, whose membership cannot
        change; one covered and the other disjoint, the node's objects come
        from the subtree cache.  It descends where either circle cuts an
        interior node, and tests a cut leaf's objects against both circles.
        On the way it moves the query's placement to exactly the nodes a
        fresh registration of ``new`` would choose.  The coverage math is
        :meth:`_search`'s, inlined."""
        sets = self.cache.sets if self.cache is not None else None
        pos = self.positions
        placements = self.query_nodes.setdefault(q_id, set())
        entered: set[int] = set()
        left: set[int] = set()
        if old is not None:
            (ox, oy), o_r = old
            orr = o_r * o_r
        if new is not None:
            (nx, ny), n_r = new
            nrr = n_r * n_r
        # per side, how a node relates to that side's circle: _GEO still to
        # classify, or settled by an ancestor as covered (_ALL, the query
        # placed above) or disjoint (_NONE)
        stack = [(self.root, _ALL if old is None else _GEO, _ALL if new is None else _GEO)]
        while stack:
            node, o_side, n_side = stack.pop()
            stats.nodes_visited += 1
            b = node.bounds
            x_lo, y_lo, x_hi, y_hi = b.x_lo, b.y_lo, b.x_hi, b.y_hi
            # classes: _NONE, _CUT, _FULL (covered, placed here), _ALL
            if o_side is _GEO:
                dx = x_lo - ox if ox < x_lo else (ox - x_hi if ox > x_hi else 0.0)
                dy = y_lo - oy if oy < y_lo else (oy - y_hi if oy > y_hi else 0.0)
                if dx * dx + dy * dy > orr:
                    o_side = _NONE
                else:
                    fx = ox - x_lo if ox - x_lo > x_hi - ox else x_hi - ox
                    fy = oy - y_lo if oy - y_lo > y_hi - oy else y_hi - oy
                    o_side = _FULL if fx * fx + fy * fy <= orr else _CUT
            if n_side is _GEO:
                dx = x_lo - nx if nx < x_lo else (nx - x_hi if nx > x_hi else 0.0)
                dy = y_lo - ny if ny < y_lo else (ny - y_hi if ny > y_hi else 0.0)
                if dx * dx + dy * dy > nrr:
                    n_side = _NONE
                else:
                    fx = nx - x_lo if nx - x_lo > x_hi - nx else x_hi - nx
                    fy = ny - y_lo if ny - y_lo > y_hi - ny else y_hi - ny
                    n_side = _FULL if fx * fx + fy * fy <= nrr else _CUT
            was_placed = o_side is _FULL
            now_placed = n_side is _FULL
            if o_side is _CUT or n_side is _CUT:
                if node.children:
                    o_child = _GEO if o_side is _CUT else (_NONE if o_side is _NONE else _ALL)
                    n_child = _GEO if n_side is _CUT else (_NONE if n_side is _NONE else _ALL)
                    stack.extend([(child, o_child, n_child) for child in node.children])
                else:
                    was_placed = was_placed or o_side is _CUT
                    now_placed = now_placed or n_side is _CUT
                    stats.objects_examined += len(node.objects)
                    member_changes(node.objects, pos,
                                   old if o_side is _CUT else o_side is not _NONE,
                                   new if n_side is _CUT else n_side is not _NONE, entered, left)
            elif o_side is _NONE:
                if n_side is not _NONE:
                    entered |= self._covered(node, sets, stats)
            elif n_side is _NONE:
                left |= self._covered(node, sets, stats)
            if was_placed != now_placed:
                if now_placed:
                    node.queries.add(q_id)
                    placements.add(node)
                else:
                    node.queries.discard(q_id)
                    placements.discard(node)
        if new is None:
            self.query_circles.pop(q_id, None)
            if not placements:
                del self.query_nodes[q_id]
        else:
            self.query_circles[q_id] = new
        return entered, left

    # -- introspection -------------------------------------------------------

    def nodes(self) -> list[MTreeNode]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out
