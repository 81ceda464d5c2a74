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
the cell has a tree).  Every object mutation walks each root-to-leaf path
it touches once and returns the queries recorded on it, read before a
split or a merge changes the path.  A query on an interior node covers
that node and holds the point without a test, so an insertion or a
removal returns those as one union beside the leaf's queries, the only
ones its cell tests; a move returns the queries on the nodes its two
paths do not share.

One walk (:meth:`MTree._walk`) serves every query-side operation.  It
moves a query from an old to a new side, each a circle or a bool settled
for the whole tree, and descends only where either circle cuts a node, so
its cost follows the change in the answer; a cut leaf's objects go through
:func:`member_changes`, the per-object pass a cell without a tree also
runs.  A search is a walk from False (nothing) that places nothing; a
registration is one from False that places the query; a query move walks
both circles at once.

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

NO_IDS: AbstractSet[int] = frozenset()
_NO_QUERIES = (NO_IDS, NO_IDS)  # shared: never mutated

# how a node relates to one side of MTree._walk
_GEO, _NONE, _CUT, _FULL, _ALL = "geo", "none", "cut", "full", "all"


def member_changes(ids: Iterable[int], pos: Mapping[int, Point], old: Circle | bool,
                   new: Circle | bool, entered: set[int], left: set[int]) -> None:
    """Add to ``entered`` the ids inside ``new`` but not ``old``, and to
    ``left`` the reverse, in one pass over ``ids``; a point on a circle is
    inside it.  A side that is a bool is settled for every id: True holds
    them all, False none.  At most one side is a bool."""
    if isinstance(old, bool) or isinstance(new, bool):
        # the changes: the circle's hits (want True) against False, misses against True
        if isinstance(old, bool):
            (cx, cy), r = new
            out, want = (left, False) if old else (entered, True)
        else:
            (cx, cy), r = old
            out, want = (entered, False) if new else (left, True)
        rr = r * r
        for obj_id in ids:
            px, py = pos[obj_id]
            ex = px - cx
            ey = py - cy
            if (ex * ex + ey * ey <= rr) is want:
                out.add(obj_id)
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

    def insert(self, obj_id: int, p: Point) -> tuple[AbstractSet[int], AbstractSet[int]]:
        """Add an object; returns its path's :meth:`_path_queries`."""
        if obj_id in self.positions:
            raise DuplicateObjectError(f"object {obj_id} already present")
        self._check_domain(p)
        path = self._path_to_leaf(p)
        # read before a split pushes the leaf's cut queries down
        found = self._path_queries(path) if self.query_circles else _NO_QUERIES
        self._insert_along(obj_id, p, path)
        return found

    def remove(self, obj_id: int) -> tuple[AbstractSet[int], AbstractSet[int]]:
        """Drop an object; returns its path's :meth:`_path_queries`."""
        if obj_id not in self.positions:
            raise ObjectNotFoundError(f"object {obj_id} not present")
        path = self._path_to_leaf(self.positions[obj_id])
        # read before a merge lifts the leaf's queries
        found = self._path_queries(path) if self.query_circles else _NO_QUERIES
        self._remove_along(obj_id, path)
        return found

    def _path_queries(self, path: list[MTreeNode]) -> tuple[AbstractSet[int], AbstractSet[int]]:
        """The (certain, tested) queries of a root-to-leaf path: the
        interior nodes' queries as one union (each covers its node, so it
        holds every point below it) and the leaf's own set, to be read
        before the tree changes again.  Its callers skip it for a tree
        without queries and take one shared empty pair, so a build pays
        neither a union nor this call."""
        if len(path) == 1:
            return NO_IDS, path[0].queries
        return set().union(*[n.queries for n in path[:-1]]), path[-1].queries

    def move(self, obj_id: int, p_new: Point) -> AbstractSet[int]:
        """Relocate an object; returns the queries whose membership can
        change: those on the nodes of its old and new root-to-leaf paths
        that the paths do not share (a query on a shared node covers both
        points), or within one leaf that leaf's own set.  Each path is
        walked once, before anything changes.  A move within its current
        leaf touches no structure and no versions (the per-node object sets
        are unchanged); otherwise it is a removal along the old path
        followed by an insertion along the new one."""
        if obj_id not in self.positions:
            raise ObjectNotFoundError(f"object {obj_id} not present")
        old_path = self._path_to_leaf(self.positions[obj_id])
        self._check_domain(p_new)
        new_path = self._path_to_leaf(p_new)
        if new_path[-1] is old_path[-1]:
            self.positions[obj_id] = p_new
            return new_path[-1].queries
        candidates: AbstractSet[int] = NO_IDS
        if self.query_circles:
            # the leaves differ, so the paths part below the root and
            # before either ends
            i = 1
            while old_path[i] is new_path[i]:
                i += 1
            candidates = set().union(*[n.queries for n in old_path[i:]], *[n.queries for n in new_path[i:]])
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
        m, alpha = self.cfg.m, self.cfg.alpha
        for i in range(len(path) - 2, -1, -1):
            parent = path[i]
            total = 0
            for child in parent.children:
                total += len(child.objects)
                # a group with an interior child stays, and so does one of
                # alpha/m objects or more (SplitConfig.should_merge)
                if child.children or total * m >= alpha:
                    return merged
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

    def _collect(self, start: MTreeNode, out: set[int], stats: SearchStats) -> None:
        stack = [start]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                stats.leaf_descents += 1
                out |= node.objects
            else:
                stack.extend(node.children)

    def search(self, circle: Circle, stats: SearchStats | None = None) -> set[int]:
        """Objects within the circle: the walk from nothing to ``circle``,
        placing nothing and materializing every covered node afresh."""
        return self._walk(None, False, circle, None, stats)[0]

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

        With ``register=True`` the walk doubles as query insertion: the
        query lands on exactly the nodes it stops at (covered nodes and
        partially cut leaves), saving a second walk.
        """
        return self._walk(q_id if register else None, False, circle, cache.sets, stats)[0]

    def move_query(self, q_id: int, old: Circle | bool, new: Circle | bool,
                   stats: SearchStats | None = None, entered: set[int] | None = None,
                   left: set[int] | None = None) -> tuple[set[int], set[int]]:
        """Move a query from ``old`` to ``new`` in one walk; returns the
        (entered, left) object ids, added into the given sets (fresh ones
        when None).  A side is a circle, or a bool settled for the whole
        tree: True covers it (the query is not placed in it; its cell holds
        it as fully covering), False misses it.  So a move from False is a
        registration and one to False an unregistration."""
        return self._walk(q_id, old, new, self.cache.sets if self.cache is not None else None, stats,
                          entered, left)

    def _walk(
        self,
        q_id: int | None,
        old: Circle | bool,
        new: Circle | bool,
        sets: dict[int, tuple[int, frozenset[int]]] | None,
        stats: SearchStats | None,
        entered: set[int] | None = None,
        left: set[int] | None = None,
    ) -> tuple[set[int], set[int]]:
        """The one tree walk: the (entered, left) ids of a move from ``old``
        to ``new`` (sides as in :meth:`move_query`), added into ``entered``
        and ``left`` (fresh sets when None).  ``sets`` is a subtree
        cache's store (None: materialize every covered node afresh).  With
        a ``q_id``, the walk moves that query's placement to exactly the
        nodes a fresh registration of ``new`` would choose; with None it
        places nothing.

        The walk classifies each node against both circles.  It stops at a
        node that both cover or neither touches, whose membership cannot
        change; one covered and the other disjoint, the node's objects come
        from the subtree cache.  It descends where either circle cuts an
        interior node, and tests a cut leaf's objects against both circles.
        The coverage math is inlined (identical to :func:`classify`): node
        visits dominate the cost, so the per-call overhead matters.
        """
        if stats is None:
            stats = SearchStats()
        pos = self.positions
        placements = self.query_nodes.setdefault(q_id, set()) if q_id is not None else None
        if entered is None or left is None:
            entered, left = set(), set()
        if not isinstance(old, bool):
            (ox, oy), o_r = old
            orr = o_r * o_r
        if not isinstance(new, bool):
            (nx, ny), n_r = new
            nrr = n_r * n_r
        # per side, how a node relates to that side's circle: _GEO still to
        # classify, or settled by an ancestor or a bool side as covered
        # (_ALL, the query placed above or held by the cell) or disjoint
        # (_NONE)
        o_root = _ALL if old is True else _NONE if old is False else _GEO
        n_root = _ALL if new is True else _NONE if new is False else _GEO
        stack = [(self.root, o_root, n_root)]
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
            if was_placed != now_placed and placements is not None:
                if now_placed:
                    node.queries.add(q_id)
                    placements.add(node)
                else:
                    node.queries.discard(q_id)
                    placements.discard(node)
        if placements is not None:
            if isinstance(new, bool):
                self.query_circles.pop(q_id, None)
                if not placements:
                    del self.query_nodes[q_id]
            else:
                self.query_circles[q_id] = new
        return entered, left

    def _covered(self, node: MTreeNode, sets: dict[int, tuple[int, frozenset[int]]] | None,
                 stats: SearchStats) -> AbstractSet[int]:
        """The objects under a fully covered node: the cached set if it is
        current, else a fresh materialization (cached when ``sets`` is a
        cache's store)."""
        if sets is not None:
            entry = sets.get(node.id)
            if entry is not None and entry[0] == node.version:
                stats.cache_hits += 1
                return entry[1]
        collected: set[int] = set()
        self._collect(node, collected, stats)
        if sets is None:
            return collected
        ids = frozenset(collected)
        sets[node.id] = (node.version, ids)
        return ids

    # -- introspection -------------------------------------------------------

    def nodes(self) -> list[MTreeNode]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out
