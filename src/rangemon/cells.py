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
that both places and answers the query.  A query move reads the query's
recorded class once; between fully covering and disjoint it hands over
every object; any other move is one tree walk (:meth:`MTree.move_query`),
or without a tree the walk's cut-leaf pass (:func:`.mtree.member_changes`)
over the cell's objects.  It adds the changed ids into sets its caller
passes, one pair for all of an index worker's cells.

The tree stays lazy because most cells of a sparse workload never need
one: building it in every cell cost +21% peak RSS, +35% ``tick_p50_s`` and
+46% ``setup_s`` on the benchmark's ``uniform-sparse`` workload (3
alternating pairs of 10 s runs, 2 cores).

Every object mutation of a cell becomes one :class:`CellDelta`, the sets
of query ids the object entered and left, so an index worker nets a
cross-cell move by difference.  Fully covering queries join it as one set
union, and so, under a tree, do the queries on the interior nodes of the
object's path, which cover their node.  Only the queries of the object's
leaf (without a tree, every partially covering query) are tested against
its point, by inlined distance arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Collection

from .baselines import ns_search
from .errors import InconsistentUpdateError, RangemonError, StateMismatchError
from .geometry import Circle, Coverage, Point, Rect
from .grid import CellId, GridIndex
from .mtree import NO_IDS, MTree, SearchStats, SplitConfig, SubtreeCache, member_changes


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

    # Insertion and removal return the (certain, tested) queries of the
    # object's crossing: those that hold its point without a test, and
    # those whose circle must be tested against it.

    def _insert_object(self, obj_id: int, p: Point) -> tuple[AbstractSet[int], Collection[int]]:
        if self.tree is not None:
            return self.tree.insert(obj_id, p)
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
        return NO_IDS, self.partial_queries

    def _remove_object(self, obj_id: int) -> tuple[AbstractSet[int], Collection[int]]:
        if self.tree is not None:
            return self.tree.remove(obj_id)
        del self.objects[obj_id]
        return NO_IDS, self.partial_queries

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
        """Search without the subtree cache: the same tree walk as
        :meth:`search`, materializing every covered node afresh.  Nothing in
        the package calls it; the benchmark's tracer hooks it by name."""
        if self.tree is not None:
            return self.tree.search(circle, stats)
        return ns_search(self.objects, circle, stats)

    # -- object updates -------------------------------------------------------

    def apply_object_update(self, obj_id: int, old: Point | None, new: Point | None) -> CellDelta:
        """Insert (old None), remove (new None), or move within the cell.

        An object entering or leaving the cell enters or leaves every fully
        covering query, every query on an interior node of its tree path,
        and each query of its leaf (without a tree, each partially covering
        query) whose circle holds the point.  A move within the cell tests
        the queries :meth:`MTree.move` returns (without a tree, every
        partially covering one).  The distance tests inline the arithmetic
        of :func:`.geometry.contains`: they run once per (object, query)
        pair.
        """
        if old is None and new is None:
            raise InconsistentUpdateError("update with neither old nor new position")
        if old is None:
            assert new is not None
            if obj_id in self.objects:
                raise InconsistentUpdateError(f"object {obj_id} already in cell {self.id}")
            certain, tested = self._insert_object(obj_id, new)
            return self._crossing(new, True, certain, tested)
        if obj_id not in self.objects:
            raise InconsistentUpdateError(f"object {obj_id} not in cell {self.id}")
        old_pos = self.objects[obj_id]
        if new is None:
            certain, tested = self._remove_object(obj_id)
            return self._crossing(old_pos, False, certain, tested)
        if self.tree is not None:
            candidates = self.tree.move(obj_id, new)
        else:
            candidates = self.partial_queries
            self.objects[obj_id] = new
        if not candidates:
            return NO_CHANGE
        circles = self.partial_queries
        ox, oy = old_pos
        nx, ny = new
        entered, left = set(), set()
        for q_id in candidates:
            (cx, cy), r = circles[q_id]
            rr = r * r
            dx = ox - cx
            dy = oy - cy
            was_in = dx * dx + dy * dy <= rr
            dx = nx - cx
            dy = ny - cy
            if was_in != (dx * dx + dy * dy <= rr):
                (left if was_in else entered).add(q_id)
        return CellDelta(entered, left)

    def _crossing(self, p: Point, entering: bool, certain: AbstractSet[int],
                  tested: Collection[int]) -> CellDelta:
        """An object at p enters or leaves this cell: every fully covering
        query and every certain one, and each tested query whose circle
        contains p."""
        full = self.full_queries
        if not (full or certain or tested):
            return NO_CHANGE
        holding = full | certain  # a fresh set, never a live one
        if tested:
            circles = self.partial_queries
            x, y = p
            for q_id in tested:
                (cx, cy), r = circles[q_id]
                dx = x - cx
                dy = y - cy
                if dx * dx + dy * dy <= r * r:
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
                   stats: SearchStats | None = None, entered: set[int] | None = None,
                   left: set[int] | None = None) -> tuple[set[int], set[int]]:
        """Move q_id from old_cov to new_cov under its new circle; adds the
        ids of this cell that entered and left into ``entered`` and ``left``
        (fresh sets when None) and returns them.  They come from the cell's
        own state, so the caller need not keep the query's previous
        contribution, and an index worker passes one pair for all its cells,
        whose objects are disjoint.

        The recorded class is checked against old_cov before anything
        changes.  A side is then a circle (PARTIAL) or a bool settled for
        every object (True: FULL, False: DISJOINT).  Between FULL and
        DISJOINT every object changes; any other move is one tree walk, or
        without a tree its cut-leaf pass (:func:`.mtree.member_changes`)."""
        in_full = q_id in self.full_queries
        old = self.partial_queries.get(q_id)
        if (in_full, old is not None) != (old_cov is Coverage.FULL, old_cov is Coverage.PARTIAL):
            self._check_class(q_id, old_cov)  # raises: the recorded class differs
        if entered is None or left is None:
            entered, left = set(), set()
        if old is None:
            old = in_full
        new: Circle | bool = circle if new_cov is Coverage.PARTIAL else new_cov is Coverage.FULL
        if old is new:  # FULL to FULL, DISJOINT to DISJOINT, or the recorded circle again
            return entered, left
        old_settled = old is True or old is False
        if old_settled and (new is True or new is False):
            (entered if new else left).update(self.objects)
        elif self.tree is not None:
            self.tree.move_query(q_id, old, new, stats, entered, left)
        else:
            if stats is not None:
                stats.objects_examined += len(self.objects)
            member_changes(self.objects, self.objects, old, new, entered, left)
            if new_cov is Coverage.PARTIAL:
                self.partial_queries[q_id] = circle
            elif not old_settled:
                del self.partial_queries[q_id]
        if old is True:
            self.full_queries.remove(q_id)
        elif new is True:
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
        # every object id held in one of the cells: a cell checks only its
        # own objects, so this is what rejects an insertion of an id that
        # another cell of the store holds
        self.held: set[int] = set()

    def cell(self, cell_id: CellId) -> Cell:
        cell = self.cells.get(cell_id)
        if cell is None:
            cell = Cell(cell_id, self.grid.cell_bounds(cell_id), self.cfg)
            self.cells[cell_id] = cell
        return cell

    def move_object(self, obj_id: int, old: Point | None, old_cell: CellId | None,
                    new: Point | None, new_cell: CellId | None, deltas: list[CellDelta]) -> None:
        """Apply one (old, new) report, whose points the caller has located
        in old_cell and new_cell, and append each touched cell's delta to
        ``deltas``.  A move across cells is a removal from the old cell
        followed by an insertion into the new one.  If the insertion raises,
        ``deltas`` already holds the removal's delta, so its changes still
        reach the caller; if the removal raises, nothing is appended.
        An insertion of an id the store holds already raises
        :class:`InconsistentUpdateError` and changes nothing; only a report
        that adds an id to the store or drops one from it touches ``held``.
        A report with neither cell raises it too."""
        if old_cell is None and new_cell is None:
            raise InconsistentUpdateError(f"object {obj_id}: a report with neither point")
        if old_cell is not None and old_cell == new_cell:
            deltas.append(self.cell(old_cell).apply_object_update(obj_id, old, new))
            return
        if old_cell is not None:
            deltas.append(self.cell(old_cell).apply_object_update(obj_id, old, None))
            if new_cell is None:
                self.held.discard(obj_id)
        if new_cell is not None:
            if old_cell is None and obj_id in self.held:
                raise InconsistentUpdateError(f"object {obj_id} already held in another cell")
            try:
                deltas.append(self.cell(new_cell).apply_object_update(obj_id, None, new))
            except RangemonError:
                self.held.discard(obj_id)  # after the removal above, the store holds it no more
                raise
            if old_cell is None:
                self.held.add(obj_id)
