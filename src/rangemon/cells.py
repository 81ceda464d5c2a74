"""Per-cell state: the object registry, the standing-query lists, and the
lazily built spatial tree; and :class:`CellStore`, the on-demand cells of
one owner, which the single-owner engine and every index worker build on.

A cell keeps fully covering queries as a set of ids and partially covering
ones as one map from query id to circle.  It answers partial-cover queries
by scanning its object map until the object count first reaches the split
threshold; from then on a tree (plus its shared subtree cache) takes over,
and the cell's object map and partial-query map are the tree's position
and query-circle maps, which only the tree writes.  A first partial
placement goes through :meth:`Cell.register_partial_and_search`, one walk
that both places and answers the query.  A query move that stays in
touch with the cell is one pass over the cell's objects against the old
and the new circle, or one tree walk (:meth:`MTree.move_query`), and
yields the ids that entered and left directly.

The tree stays lazy because most cells of a sparse workload never need
one: building it in every cell cost +21% peak RSS, +35% ``tick_p50_s`` and
+46% ``setup_s`` on the benchmark's ``uniform-sparse`` workload (3
alternating pairs of 10 s runs, 2 cores).

Every object mutation of a cell becomes one :class:`CellDelta`, the sets
of query ids the object entered and left; fully covering queries join it
as one set union, so an index worker nets a cross-cell move by difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Iterator

from .baselines import ns_search
from .errors import InconsistentUpdateError, StateMismatchError
from .geometry import Circle, Coverage, Point, Rect, contains
from .grid import CellId, GridIndex
from .mtree import MTree, SearchStats, SplitConfig, SubtreeCache, member_changes


class Change(enum.Enum):
    ENTER = "enter"
    LEAVE = "leave"


@dataclass(slots=True)
class CellDelta:
    """The query ids whose result one object report, in one cell, entered
    and left.  Its length is the number of (query, change) pairs."""

    entered: AbstractSet[int]
    left: AbstractSet[int]

    def __len__(self) -> int:
        return len(self.entered) + len(self.left)


NO_IDS: AbstractSet[int] = frozenset()
NO_CHANGE = CellDelta(NO_IDS, NO_IDS)  # shared: never mutated


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

    def apply_object_update(self, obj_id: int, old: Point | None, new: Point | None) -> CellDelta:
        """Insert (old None), remove (new None), or move within the cell.

        Queries fully covering the cell see membership change only on
        entry/exit; partially covering ones are re-tested against their
        circle.  For within-cell moves under a tree, the candidate queries
        are narrowed to those recorded along the two root-to-leaf paths,
        which :meth:`MTree.move` collects while it walks them.
        """
        if old is None and new is None:
            raise InconsistentUpdateError("update with neither old nor new position")
        if old is None:
            assert new is not None
            if obj_id in self.objects:
                raise InconsistentUpdateError(f"object {obj_id} already in cell {self.id}")
            self._insert_object(obj_id, new)
            return self._crossing(new, entering=True)
        if obj_id not in self.objects:
            raise InconsistentUpdateError(f"object {obj_id} not in cell {self.id}")
        old_pos = self.objects[obj_id]
        if new is None:
            self._remove_object(obj_id)
            return self._crossing(old_pos, entering=False)
        if self.tree is not None:
            candidates = self.tree.move(obj_id, new)
        else:
            candidates = self.partial_queries
            self.objects[obj_id] = new
        if not candidates:
            return NO_CHANGE
        entered, left = set(), set()
        for q_id in candidates:
            circle = self.partial_queries[q_id]
            was_in = contains(circle, old_pos)
            if was_in != contains(circle, new):
                (left if was_in else entered).add(q_id)
        return CellDelta(entered, left)

    def _crossing(self, p: Point, entering: bool) -> CellDelta:
        """An object at p enters or leaves this cell: every fully covering
        query, and each partially covering one whose circle contains p."""
        if not self.full_queries and not self.partial_queries:
            return NO_CHANGE
        holding = self.full_queries.copy()  # never the live set
        for q_id, circle in self.partial_queries.items():
            if contains(circle, p):
                holding.add(q_id)
        return CellDelta(holding, NO_IDS) if entering else CellDelta(NO_IDS, holding)

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
        the (entered, left) ids of this cell, from the cell's own state, so
        the caller need not keep the query's previous contribution.

        A move from or to DISJOINT is a registration or an unregistration.
        Otherwise both circles touch the cell, and one pass (one walk of the
        tree) tests its objects against both: a FULL side covers them all."""
        self._check_class(q_id, old_cov)
        if old_cov is Coverage.DISJOINT:
            if new_cov is Coverage.DISJOINT:
                return set(), set()
            return self.register(q_id, new_cov, circle, stats), set()
        if new_cov is Coverage.DISJOINT:
            if old_cov is Coverage.FULL:
                left = self.object_ids()
            else:
                left = self.search(q_id, self.partial_queries[q_id], stats)
            self.apply_query_transition(q_id, old_cov, new_cov)
            return set(), left
        old = self.partial_queries.get(q_id)  # None: it covered the cell
        new = circle if new_cov is Coverage.PARTIAL else None
        if old is None and new is None:
            return set(), set()
        if self.tree is not None:
            entered, left = self.tree.move_query(q_id, old, new, stats or SearchStats())
        else:
            if stats is not None:
                stats.objects_examined += len(self.objects)
            entered, left = set(), set()
            member_changes(self.objects.keys(), self.objects, True if old is None else old,
                           True if new is None else new, entered, left)
            if new is None:
                del self.partial_queries[q_id]
            else:
                self.partial_queries[q_id] = new
        if old is None:
            self.full_queries.remove(q_id)
        elif new is None:
            self.full_queries.add(q_id)
        return entered, left

    def unregister_query(self, q_id: int) -> None:
        if q_id in self.full_queries:
            self.apply_query_transition(q_id, Coverage.FULL, Coverage.DISJOINT)
        elif q_id in self.partial_queries:
            self.apply_query_transition(q_id, Coverage.PARTIAL, Coverage.DISJOINT)

    def apply_query_transition(self, q_id: int, old_cov: Coverage, new_cov: Coverage) -> None:
        """Move q_id from its recorded class old_cov to FULL or DISJOINT.
        A partial placement needs a search pass and goes through
        :meth:`register_partial_and_search` or :meth:`move_query`."""
        if new_cov is Coverage.PARTIAL:
            raise ValueError("partial placement goes through register_partial_and_search or move_query")
        self._check_class(q_id, old_cov)
        if old_cov is Coverage.FULL:
            self.full_queries.remove(q_id)
        elif old_cov is Coverage.PARTIAL:
            if self.tree is not None:
                self.tree.remove_query(q_id)
            else:
                del self.partial_queries[q_id]
        if new_cov is Coverage.FULL:
            self.full_queries.add(q_id)

    def _check_class(self, q_id: int, cov: Coverage) -> None:
        """Raise unless q_id is recorded in this cell with class cov."""
        in_full = q_id in self.full_queries
        in_partial = q_id in self.partial_queries
        if (in_full, in_partial) != (cov is Coverage.FULL, cov is Coverage.PARTIAL):
            raise StateMismatchError(
                f"query {q_id} in cell {self.id}: recorded (full={in_full}, partial={in_partial}) "
                f"but transition claims {cov.name}"
            )


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
                    new: Point | None) -> Iterator[CellDelta]:
        """Apply one (old, new) report and yield each touched cell's delta.
        A move across cells is a removal from the old cell followed by an
        insertion into the new one.  Deltas are yielded lazily, so the old
        cell's delta reaches the caller even if the insertion then fails."""
        old_cell = self.grid.locate(old) if old is not None else None
        new_cell = self.grid.locate(new) if new is not None else None
        if old_cell is not None and old_cell == new_cell:
            yield self.cell(old_cell).apply_object_update(obj_id, old, new)
            return
        if old_cell is not None:
            yield self.cell(old_cell).apply_object_update(obj_id, old, None)
        if new_cell is not None:
            yield self.cell(new_cell).apply_object_update(obj_id, None, new)
