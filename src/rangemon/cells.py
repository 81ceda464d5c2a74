"""Per-cell state: the object registry, the standing-query lists, and the
lazily built spatial tree; and :class:`CellStore`, the on-demand cells of
one owner, which the single-owner engine and every index worker build on.

A cell keeps fully covering queries as a set of ids and partially covering
ones as one map from query id to circle.  It answers partial-cover queries
by scanning its object map until the object count first reaches the split
threshold; from then on a tree (plus its shared subtree cache) takes over,
and the cell's object map and partial-query map are the tree's position
and query-circle maps, which only the tree writes.  A partial placement
always goes through :meth:`Cell.register_partial_and_search`, one walk
that both places and answers the query; a query move is an unregistration
followed by such a registration.

The tree stays lazy because most cells of a sparse workload never need
one: building it in every cell cost +21% peak RSS, +35% ``tick_p50_s`` and
+46% ``setup_s`` on the benchmark's ``uniform-sparse`` workload (3
alternating pairs of 10 s runs, 2 cores).

Every object mutation is translated into an :data:`ObjectDelta`: (query
id, object id, ENTER|LEAVE) triples, which is the only currency the
result-holding side ever sees.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from .baselines import ns_search
from .errors import InconsistentUpdateError, StateMismatchError
from .geometry import Circle, Coverage, Point, Rect, contains
from .grid import CellId, GridIndex
from .mtree import MTree, SearchStats, SplitConfig, SubtreeCache


class Change(enum.Enum):
    ENTER = "enter"
    LEAVE = "leave"


class DeltaEntry(NamedTuple):
    q_id: int
    obj_id: int
    change: Change


ObjectDelta = list[DeltaEntry]


class Cell:
    def __init__(self, cell_id: CellId, bounds: Rect, cfg: SplitConfig):
        self.id = cell_id
        self.bounds = bounds
        self.cfg = cfg
        self.objects: dict[int, Point] = {}
        self.full_queries: set[int] = set()  # circle fully covers the cell
        # circle partially overlaps the cell: query id -> circle
        self.partial_queries: dict[int, Circle] = {}
        self.tree: MTree | None = None
        self.cache: SubtreeCache | None = None

    # -- objects -----------------------------------------------------------

    def _insert_object(self, obj_id: int, p: Point) -> None:
        if self.tree is not None:
            self.tree.insert(obj_id, p)
            return
        self.objects[obj_id] = p
        if len(self.objects) >= self.cfg.alpha:
            self.cache = SubtreeCache()
            self.tree = MTree(self.bounds, self.cfg, self.cache)
            for other, pos in self.objects.items():
                self.tree.insert(other, pos)
            for q_id, circle in self.partial_queries.items():
                self.tree.insert_query(q_id, circle)
            # from here on the tree is the only writer of the registry
            # and of the partial-query map
            self.objects = self.tree.positions
            self.partial_queries = self.tree.query_circles

    def _remove_object(self, obj_id: int) -> None:
        if self.tree is not None:
            self.tree.remove(obj_id)
        else:
            del self.objects[obj_id]

    def object_ids(self) -> set[int]:
        return set(self.objects)

    # -- search ------------------------------------------------------------

    def search(self, q_id: int, circle: Circle, stats: SearchStats | None = None) -> set[int]:
        """Objects of this cell inside the circle, with subtree-cache reuse
        attributed to q_id when a tree exists."""
        if self.tree is not None:
            assert self.cache is not None
            return self.tree.search_shared(q_id, circle, self.cache, stats)
        return ns_search(self.objects, circle, stats)

    def register_partial_and_search(self, q_id: int, circle: Circle,
                                    stats: SearchStats | None = None) -> set[int]:
        """First registration of a partially covering query, fused with its
        initial search: one traversal both places the query and answers it."""
        if q_id in self.full_queries or q_id in self.partial_queries:
            raise StateMismatchError(f"query {q_id} already registered in cell {self.id}")
        if self.tree is not None:
            assert self.cache is not None
            return self.tree.search_shared(q_id, circle, self.cache, stats, register=True)
        self.partial_queries[q_id] = circle
        return ns_search(self.objects, circle, stats)

    def search_oneshot(self, circle: Circle, stats: SearchStats | None = None) -> set[int]:
        """Search without the subtree cache.  Nothing in the package calls
        it; it stays as the cache-free reference path that the benchmark's
        tracer hooks by name."""
        if self.tree is not None:
            return self.tree.search(circle, stats)
        return ns_search(self.objects, circle, stats)

    # -- object updates -------------------------------------------------------

    def apply_object_update(self, obj_id: int, old: Point | None, new: Point | None) -> ObjectDelta:
        """Insert (old None), remove (new None), or move within the cell.

        Queries fully covering the cell see membership change only on
        entry/exit; partially covering ones are re-tested against their
        circle.  For within-cell moves under a tree, the candidate queries
        are narrowed to those recorded along the two root-to-leaf paths,
        which :meth:`MTree.move` collects while it walks them.
        """
        if old is None and new is None:
            raise InconsistentUpdateError("update with neither old nor new position")
        delta: ObjectDelta = []
        if old is None:
            assert new is not None
            if obj_id in self.objects:
                raise InconsistentUpdateError(f"object {obj_id} already in cell {self.id}")
            self._insert_object(obj_id, new)
            for q_id in self.full_queries:
                delta.append(DeltaEntry(q_id, obj_id, Change.ENTER))
            for q_id, circle in self.partial_queries.items():
                if contains(circle, new):
                    delta.append(DeltaEntry(q_id, obj_id, Change.ENTER))
        elif new is None:
            if obj_id not in self.objects:
                raise InconsistentUpdateError(f"object {obj_id} not in cell {self.id}")
            old_pos = self.objects[obj_id]
            self._remove_object(obj_id)
            for q_id in self.full_queries:
                delta.append(DeltaEntry(q_id, obj_id, Change.LEAVE))
            for q_id, circle in self.partial_queries.items():
                if contains(circle, old_pos):
                    delta.append(DeltaEntry(q_id, obj_id, Change.LEAVE))
        else:
            if obj_id not in self.objects:
                raise InconsistentUpdateError(f"object {obj_id} not in cell {self.id}")
            old_pos = self.objects[obj_id]
            if self.tree is not None:
                candidates = self.tree.move(obj_id, new)
            else:
                candidates = self.partial_queries
                self.objects[obj_id] = new
            for q_id in candidates:
                circle = self.partial_queries[q_id]
                was_in = contains(circle, old_pos)
                is_in = contains(circle, new)
                if was_in and not is_in:
                    delta.append(DeltaEntry(q_id, obj_id, Change.LEAVE))
                elif is_in and not was_in:
                    delta.append(DeltaEntry(q_id, obj_id, Change.ENTER))
        return delta

    # -- query bookkeeping ---------------------------------------------------

    def register(self, q_id: int, cov: Coverage, circle: Circle,
                 stats: SearchStats | None = None) -> set[int]:
        """Register q_id with coverage cov (FULL or PARTIAL); returns the
        ids this cell contributes to its result."""
        if cov is Coverage.FULL:
            self.apply_query_transition(q_id, Coverage.DISJOINT, Coverage.FULL)
            return self.object_ids()
        return self.register_partial_and_search(q_id, circle, stats)

    def move_query(self, q_id: int, old_cov: Coverage, new_cov: Coverage, circle: Circle,
                   stats: SearchStats | None = None) -> tuple[set[int], set[int]]:
        """Move q_id from old_cov to new_cov under its new circle; returns
        the (entered, left) ids of this cell.  The move is an unregistration
        followed by a fresh registration; membership under the old circle is
        recomputed from the cell's own state, so the caller need not keep the
        query's previous contribution."""
        if old_cov is Coverage.FULL and new_cov is Coverage.FULL:
            self.apply_query_transition(q_id, old_cov, new_cov)  # class check only
            return set(), set()
        old_circle = self.partial_queries.get(q_id)
        self.apply_query_transition(q_id, old_cov, Coverage.DISJOINT)
        if old_cov is Coverage.FULL:
            old_in = self.object_ids()
        elif old_cov is Coverage.PARTIAL:
            old_in = self.search(q_id, old_circle, stats)
        else:
            old_in = set()
        new_in = set() if new_cov is Coverage.DISJOINT else self.register(q_id, new_cov, circle, stats)
        return new_in - old_in, old_in - new_in

    def unregister_query(self, q_id: int) -> None:
        if q_id in self.full_queries:
            self.apply_query_transition(q_id, Coverage.FULL, Coverage.DISJOINT)
        elif q_id in self.partial_queries:
            self.apply_query_transition(q_id, Coverage.PARTIAL, Coverage.DISJOINT)

    def apply_query_transition(self, q_id: int, old_cov: Coverage, new_cov: Coverage) -> None:
        """Move q_id from its recorded class old_cov to FULL or DISJOINT.
        A partial placement needs a search pass and goes through
        :meth:`register_partial_and_search` only."""
        if new_cov is Coverage.PARTIAL:
            raise ValueError("partial placement goes through register_partial_and_search")
        in_full = q_id in self.full_queries
        in_partial = q_id in self.partial_queries
        expected = (old_cov is Coverage.FULL, old_cov is Coverage.PARTIAL)
        if (in_full, in_partial) != expected:
            raise StateMismatchError(
                f"query {q_id} in cell {self.id}: recorded (full={in_full}, partial={in_partial}) "
                f"but transition claims {old_cov.name}"
            )
        if old_cov is Coverage.FULL:
            self.full_queries.remove(q_id)
        elif old_cov is Coverage.PARTIAL:
            if self.tree is not None:
                self.tree.remove_query(q_id)
            else:
                del self.partial_queries[q_id]
        if new_cov is Coverage.FULL:
            self.full_queries.add(q_id)


class CellStore:
    """The cells one owner holds, created on first touch, and the split of
    an object report into per-cell updates."""

    def __init__(self, grid: GridIndex, cfg: SplitConfig):
        self.grid = grid
        self.cfg = cfg
        self.cells: dict[CellId, Cell] = {}

    def cell(self, cell_id: CellId) -> Cell:
        cell = self.cells.get(cell_id)
        if cell is None:
            cell = Cell(cell_id, self.grid.cell_bounds(cell_id), self.cfg)
            self.cells[cell_id] = cell
        return cell

    def move_object(self, obj_id: int, old: Point | None,
                    new: Point | None) -> Iterator[tuple[CellId, ObjectDelta]]:
        """Apply one (old, new) report and yield each touched cell's delta.
        A move across cells is a removal from the old cell followed by an
        insertion into the new one.  Deltas are yielded lazily, so the old
        cell's delta reaches the caller even if the insertion then fails."""
        old_cell = self.grid.locate(old) if old is not None else None
        new_cell = self.grid.locate(new) if new is not None else None
        if old_cell is not None and old_cell == new_cell:
            yield old_cell, self.cell(old_cell).apply_object_update(obj_id, old, new)
            return
        if old_cell is not None:
            yield old_cell, self.cell(old_cell).apply_object_update(obj_id, old, None)
        if new_cell is not None:
            yield new_cell, self.cell(new_cell).apply_object_update(obj_id, None, new)
