"""Comparison engines: a naive full scan and a grid-only index.

``ns_search`` doubles as the correctness oracle for every other search
path in the package; its membership arithmetic is kept identical to
:func:`rangemon.geometry.contains` (squared distances, boundary inside).
"""

from __future__ import annotations

from typing import Mapping

from .errors import InconsistentUpdateError
from .geometry import Circle, Point
from .grid import CellId, GridIndex
from .mtree import SearchStats


def ns_search(positions: Mapping[int, Point], c: Circle, stats: SearchStats | None = None) -> set[int]:
    """Brute-force filter over every object."""
    if stats is not None:
        stats.objects_examined += len(positions)
    cx, cy = c.center
    rr = c.radius * c.radius
    return {o for o, (x, y) in positions.items() if (x - cx) * (x - cx) + (y - cy) * (y - cy) <= rr}


class GridStore:
    """Per-cell object maps without trees: full-cover cells contribute
    wholesale, partially covered cells are scanned object by object.  This
    is the grid-only (``gi``) index, standalone and in the cluster."""

    def __init__(self, grid: GridIndex):
        self.grid = grid
        self.cells: dict[CellId, dict[int, Point]] = {}
        self.locations: dict[int, CellId] = {}

    def _location(self, obj_id: int) -> CellId:
        cell_id = self.locations.get(obj_id)
        if cell_id is None:
            raise InconsistentUpdateError(f"object {obj_id} not present")
        return cell_id

    def insert(self, obj_id: int, p: Point) -> None:
        if obj_id in self.locations:
            raise InconsistentUpdateError(f"object {obj_id} already present")
        cell_id = self.grid.locate(p)
        self.cells.setdefault(cell_id, {})[obj_id] = p
        self.locations[obj_id] = cell_id

    def remove(self, obj_id: int) -> None:
        del self.cells[self._location(obj_id)][obj_id]
        del self.locations[obj_id]

    def move(self, obj_id: int, p_new: Point) -> None:
        old_cell = self._location(obj_id)
        new_cell = self.grid.locate(p_new)
        if new_cell == old_cell:
            self.cells[old_cell][obj_id] = p_new
        else:
            del self.cells[old_cell][obj_id]
            self.cells.setdefault(new_cell, {})[obj_id] = p_new
            self.locations[obj_id] = new_cell

    def scan(self, cell_id: CellId, c: Circle, stats: SearchStats | None = None) -> set[int]:
        """Objects of one cell inside the circle, each one tested."""
        return ns_search(self.cells.get(cell_id, {}), c, stats)


def gi_search(store: GridStore, c: Circle, stats: SearchStats | None = None) -> set[int]:
    gr = store.grid.candidate_cells(c)
    out: set[int] = set()
    for cell_id in gr.full:
        cell = store.cells.get(cell_id)
        if cell:
            out |= cell.keys()
    for cell_id in gr.partial:
        out |= store.scan(cell_id, c, stats)
    return out
