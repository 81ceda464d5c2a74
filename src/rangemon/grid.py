"""The global grid: n x n equal cells tiling the domain.

Provides point-to-cell location, candidate-cell computation for a circular
query, and the deterministic cell-to-worker assignment. Immutable after
construction, so it can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import OutOfDomainError
from .geometry import Circle, Coverage, Point, Rect, UNIT_SQUARE, slot


def _axis_terms(c: float, lo: float, hi: float) -> tuple[float, float]:
    """One axis of :func:`classify` for the slab [lo, hi]: the squared gap
    from c to the slab and the squared distance to its farther edge."""
    near = max(lo - c, 0.0, c - hi)
    far = max(c - lo, hi - c)
    return near * near, far * far


class CellId(NamedTuple):
    row: int
    col: int


@dataclass
class CandidateCells:
    """Cells a query circle touches, split by coverage class."""

    full: set[CellId] = field(default_factory=set)
    partial: set[CellId] = field(default_factory=set)

    def all_cells(self) -> set[CellId]:
        return self.full | self.partial

    def coverage_of(self, cell: CellId) -> Coverage:
        if cell in self.full:
            return Coverage.FULL
        if cell in self.partial:
            return Coverage.PARTIAL
        return Coverage.DISJOINT


class GridIndex:
    """Cell boundaries are precomputed once; the same arrays drive location,
    cell bounds, and candidate search, so the three can never disagree on a
    boundary float."""

    def __init__(self, n: int = 100, domain: Rect = UNIT_SQUARE):
        if n < 1:
            raise ValueError("grid dimension must be >= 1")
        self.n = n
        self.domain = domain
        w = domain.width / n
        h = domain.height / n
        self._xs = [domain.x_lo + j * w for j in range(n)] + [domain.x_hi]
        self._ys = [domain.y_lo + i * h for i in range(n)] + [domain.y_hi]
        self._bounds: dict[CellId, Rect] = {}

    def cell_bounds(self, cell: CellId) -> Rect:
        rect = self._bounds.get(cell)
        if rect is None:
            rect = Rect(self._xs[cell.col], self._ys[cell.row],
                        self._xs[cell.col + 1], self._ys[cell.row + 1])
            self._bounds[cell] = rect
        return rect

    def locate(self, p: Point) -> CellId:
        """Cell owning p; the domain's maximum edges belong to the last
        row/column."""
        if not (self.domain.x_lo <= p.x <= self.domain.x_hi and self.domain.y_lo <= p.y <= self.domain.y_hi):
            raise OutOfDomainError(f"point {p} outside domain {self.domain}")
        return CellId(slot(self._ys, p.y), slot(self._xs, p.x))

    def candidate_cells(self, c: Circle) -> CandidateCells:
        """Classify every cell within one cell of the circle's bounding box;
        cells beyond are disjoint (their axis gap exceeds the radius).

        :func:`classify` sums one squared term per axis, so the terms are
        computed once per candidate column and once per row, and each cell
        only adds a pair: the result is classify's, bit for bit."""
        if not (self.domain.x_lo <= c.center.x <= self.domain.x_hi
                and self.domain.y_lo <= c.center.y <= self.domain.y_hi):
            raise OutOfDomainError(f"query center {c.center} outside domain")
        cx, cy = c.center
        r = c.radius
        rr = r * r
        out = CandidateCells()
        col_lo = max(0, slot(self._xs, max(cx - r, self.domain.x_lo)) - 1)
        col_hi = min(self.n - 1, slot(self._xs, min(cx + r, self.domain.x_hi)) + 1)
        row_lo = max(0, slot(self._ys, max(cy - r, self.domain.y_lo)) - 1)
        row_hi = min(self.n - 1, slot(self._ys, min(cy + r, self.domain.y_hi)) + 1)
        # (col, squared nearest gap, squared farthest reach); a column whose
        # gap alone exceeds the radius holds no candidate
        cols = []
        for col in range(col_lo, col_hi + 1):
            near, far = _axis_terms(cx, self._xs[col], self._xs[col + 1])
            if near <= rr:
                cols.append((col, near, far))
        for row in range(row_lo, row_hi + 1):
            near_y, far_y = _axis_terms(cy, self._ys[row], self._ys[row + 1])
            if near_y > rr:
                continue
            for col, near_x, far_x in cols:
                if near_x + near_y > rr:
                    continue
                if far_x + far_y <= rr:
                    out.full.add(CellId(row, col))
                else:
                    out.partial.add(CellId(row, col))
        return out

    def assign_cells(self, workers: Sequence[int]) -> dict[CellId, int]:
        """Row-major split into contiguous blocks, one block per worker;
        block sizes differ by at most one."""
        if not workers:
            raise ValueError("empty worker list")
        total = self.n * self.n
        base, extra = divmod(total, len(workers))
        out: dict[CellId, int] = {}
        idx = 0
        for k, w in enumerate(workers):
            take = base + (1 if k < extra else 0)
            for _ in range(take):
                out[CellId(idx // self.n, idx % self.n)] = w
                idx += 1
        return out

    def cells(self) -> Iterable[CellId]:
        for row in range(self.n):
            for col in range(self.n):
                yield CellId(row, col)
