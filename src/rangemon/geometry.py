"""Planar primitives and the circle-vs-rectangle coverage test.

All comparisons use squared distances on plain doubles; boundary contact
(distance exactly equal to the radius) counts as inside.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class Point(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point
    radius: float


class Coverage(enum.Enum):
    DISJOINT = 0
    PARTIAL = 1
    FULL = 2


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box, half-open: a point belongs iff x_lo <= x < x_hi and
    y_lo <= y < y_hi.  Owners of a tiling (the grid, tree nodes) close the
    tiling's maximum edge themselves so every point has exactly one home.
    """

    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate rect {self}")

    def contains(self, x: float, y: float) -> bool:
        return self.x_lo <= x < self.x_hi and self.y_lo <= y < self.y_hi

    def corners(self) -> tuple[Point, Point, Point, Point]:
        return (
            Point(self.x_lo, self.y_lo),
            Point(self.x_hi, self.y_lo),
            Point(self.x_lo, self.y_hi),
            Point(self.x_hi, self.y_hi),
        )

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


def slot(edges: Sequence[float], v: float) -> int:
    """Index j of the slot ``edges[j] <= v < edges[j + 1]`` among the
    ``len(edges) - 1`` slots the sorted edges bound, clamped to the first
    and last slot; the last edge belongs to the last slot.  The grid and
    every tree node bucket points with this one rule."""
    n = len(edges) - 1
    lo = edges[0]
    j = int((v - lo) / (edges[-1] - lo) * n)
    if j < 0:
        j = 0
    elif j > n - 1:
        j = n - 1
    # float division can land one off; the edge array is the truth
    while j < n - 1 and edges[j + 1] <= v:
        j += 1
    while j > 0 and edges[j] > v:
        j -= 1
    return j


def contains(c: Circle, p: Point) -> bool:
    dx = p.x - c.center.x
    dy = p.y - c.center.y
    return dx * dx + dy * dy <= c.radius * c.radius


def classify(c: Circle, r: Rect) -> Coverage:
    """Three-way coverage of a rectangle by a circle.

    FULL iff every corner is within the radius (that pulls the whole box
    inside), DISJOINT iff the closest point of the closed box is strictly
    farther than the radius, PARTIAL otherwise.  The corner test reduces to
    the farthest corner: per axis that is whichever edge lies farther from
    the center.
    """
    cx, cy = c.center
    rr = c.radius * c.radius

    dx = max(r.x_lo - cx, 0.0, cx - r.x_hi)
    dy = max(r.y_lo - cy, 0.0, cy - r.y_hi)
    if dx * dx + dy * dy > rr:
        return Coverage.DISJOINT

    fx = max(cx - r.x_lo, r.x_hi - cx)
    fy = max(cy - r.y_lo, r.y_hi - cy)
    if fx * fx + fy * fy <= rr:
        return Coverage.FULL
    return Coverage.PARTIAL
