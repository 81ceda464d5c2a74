"""Query lifecycle orchestration over the grid of cells.

The cell maintenance itself (creating cells, splitting a cross-cell object
move, registering a query, moving a query between coverage classes) lives
in :mod:`.cells` and is shared with the cluster's index workers; this
module holds the query states that fold its deltas into results.

Each active query keeps its result partitioned by contributing cell, so
cross-cell object moves are order-independent within a tick.  A query
move is patched cell by cell: each cell diffs the old and new circle over
its own objects and reports the ids that entered and left.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .cells import CellStore, Change
from .geometry import Circle, Coverage, Point
from .grid import CandidateCells, CellId, GridIndex
from .mtree import SearchStats, SplitConfig


@dataclass
class QueryState:
    q_id: int
    # expiry time and candidate cells: kept by the single-owner engine only
    t_end: float = math.inf
    gr: CandidateCells = field(default_factory=CandidateCells)
    by_cell: dict[CellId, set[int]] = field(default_factory=dict)
    # distributed collection bookkeeping: keys still awaited, the key set
    # promised at registration, and the registration generation partials
    # must match
    pending: set = field(default_factory=set)
    expected: frozenset = frozenset()
    epoch: int = 0

    @property
    def result(self) -> set[int]:
        out: set[int] = set()
        for ids in self.by_cell.values():
            out |= ids
        return out

    def ready(self) -> bool:
        return not self.pending

    def set_cell(self, cell_id: CellId, ids: set[int]) -> None:
        # takes ownership of `ids`; callers always pass a fresh set
        if ids:
            self.by_cell[cell_id] = ids if isinstance(ids, set) else set(ids)
        else:
            self.by_cell.pop(cell_id, None)

    def apply(self, cell_id: CellId, obj_id: int, change: Change) -> None:
        if change is Change.ENTER:
            self.by_cell.setdefault(cell_id, set()).add(obj_id)
        else:
            ids = self.by_cell.get(cell_id)
            if ids is not None:
                ids.discard(obj_id)
                if not ids:
                    del self.by_cell[cell_id]

    def apply_delta(self, cell_id: CellId, add: Iterable[int], remove: Iterable[int]) -> None:
        """Fold one cell's entered and left ids into the result."""
        for obj_id in add:
            self.apply(cell_id, obj_id, Change.ENTER)
        for obj_id in remove:
            self.apply(cell_id, obj_id, Change.LEAVE)


@dataclass
class QueryMoveDelta:
    """Net result change of one query move: ids that left and ids that
    entered the result."""

    removals: set[int] = field(default_factory=set)
    additions: set[int] = field(default_factory=set)


class Engine(CellStore):
    """Single-owner engine: all cells in one :class:`CellStore`, plus the
    query states that fold the cells' deltas into results."""

    def __init__(self, grid: GridIndex, cfg: SplitConfig):
        super().__init__(grid, cfg)
        self.queries: dict[int, QueryState] = {}

    # -- lifecycle -----------------------------------------------------------

    def submit_query(
        self,
        q_id: int,
        circle: Circle,
        t_start: int = 0,
        t_end: float = math.inf,
        stats: SearchStats | None = None,
    ) -> set[int]:
        if q_id in self.queries:
            raise ValueError(f"query {q_id} already registered")
        gr = self.grid.candidate_cells(circle)
        state = QueryState(q_id, t_end, gr)
        out: set[int] = set()
        for cov, cell_ids in ((Coverage.FULL, gr.full), (Coverage.PARTIAL, gr.partial)):
            for cell_id in sorted(cell_ids):
                ids = self.cell(cell_id).register(q_id, cov, circle, stats)
                state.set_cell(cell_id, ids)
                out |= ids
        self.queries[q_id] = state
        return out

    def remove_query(self, q_id: int) -> None:
        state = self.queries.pop(q_id)
        for cell_id in state.gr.all_cells():
            self.cell(cell_id).unregister_query(q_id)

    def expire_queries(self, now: int) -> list[int]:
        expired = sorted(q for q, s in self.queries.items() if s.t_end <= now)
        for q_id in expired:
            self.remove_query(q_id)
        return expired

    def result(self, q_id: int) -> set[int]:
        return self.queries[q_id].result

    def results(self) -> dict[int, set[int]]:
        return {q: s.result for q, s in self.queries.items()}

    # -- object updates --------------------------------------------------------

    def on_objects_moved(
        self, updates: list[tuple[int, Point | None, Point | None]]
    ) -> list[tuple[int, Exception]]:
        """Apply a batch of (object id, old, new) reports.  Per-item
        inconsistencies are collected and returned, not raised, so one bad
        report cannot poison the batch."""
        errors: list[tuple[int, Exception]] = []
        for obj_id, old, new in updates:
            try:
                for cell_id, delta in self.move_object(obj_id, old, new):
                    for q_id, moved_id, change in delta:
                        self.queries[q_id].apply(cell_id, moved_id, change)
            except Exception as exc:  # noqa: BLE001 - per-item isolation is the contract
                errors.append((obj_id, exc))
        return errors

    # -- query movement ----------------------------------------------------------

    def on_query_moved(
        self, q_id: int, new_circle: Circle, stats: SearchStats | None = None
    ) -> QueryMoveDelta:
        state = self.queries[q_id]
        gr_new = self.grid.candidate_cells(new_circle)
        delta = QueryMoveDelta()
        for cell_id in sorted(state.gr.all_cells() | gr_new.all_cells()):
            entered, left = self.cell(cell_id).move_query(
                q_id, state.gr.coverage_of(cell_id), gr_new.coverage_of(cell_id), new_circle, stats,
            )
            state.apply_delta(cell_id, entered, left)
            delta.additions |= entered
            delta.removals |= left
        state.gr = gr_new
        return delta
