"""Single-owner one-shot search over the grid of cells.

The cell maintenance itself (creating cells, splitting a cross-cell object
move, registering a query) lives in :mod:`.cells` and is shared with the
cluster's index workers.  Continuous monitoring, the folding of the cells'
deltas into results, is the cluster's alone (see
:class:`.cluster.QueryWorker`); this module keeps no results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cells import CellStore, Change
from .geometry import Circle, Coverage, Point
from .grid import CandidateCells, CellId, GridIndex
from .mtree import SearchStats, SplitConfig


@dataclass
class QueryState:
    """A result partitioned by contributing cell.  Nothing in the package
    calls it: it stays only because the benchmark's tracer hooks
    :meth:`set_cell` and :meth:`apply` by name, and goes with the
    benchmark change that re-points those layers (ROADMAP item 5)."""

    q_id: int
    by_cell: dict[CellId, set[int]] = field(default_factory=dict)

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


class Engine(CellStore):
    """Single-owner engine: all cells in one :class:`CellStore`, searched
    once per submitted query.  A submitted query stays registered in its
    cells until :meth:`remove_query`."""

    def __init__(self, grid: GridIndex, cfg: SplitConfig):
        super().__init__(grid, cfg)
        self.queries: dict[int, CandidateCells] = {}

    def submit_query(self, q_id: int, circle: Circle, stats: SearchStats | None = None) -> set[int]:
        if q_id in self.queries:
            raise ValueError(f"query {q_id} already registered")
        gr = self.grid.candidate_cells(circle)
        out: set[int] = set()
        for cov, cell_ids in ((Coverage.FULL, gr.full), (Coverage.PARTIAL, gr.partial)):
            for cell_id in sorted(cell_ids):
                out |= self.cell(cell_id).register(q_id, cov, circle, stats)
        self.queries[q_id] = gr
        return out

    def remove_query(self, q_id: int) -> None:
        for cell_id in self.queries.pop(q_id).all_cells():
            self.cell(cell_id).unregister_query(q_id)

    def on_objects_moved(
        self, updates: list[tuple[int, Point | None, Point | None]]
    ) -> list[tuple[int, Exception]]:
        """Apply a batch of (object id, old, new) reports.  Per-item
        inconsistencies are collected and returned, not raised, so one bad
        report cannot poison the batch."""
        errors: list[tuple[int, Exception]] = []
        for obj_id, old, new in updates:
            try:
                for _ in self.move_object(obj_id, old, new):
                    pass  # the cells' deltas have no result to update here
            except Exception as exc:  # noqa: BLE001 - per-item isolation is the contract
                errors.append((obj_id, exc))
        return errors
