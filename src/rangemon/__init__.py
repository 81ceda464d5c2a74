"""Continuous range-query monitoring over moving objects."""

from .cells import Cell, CellDelta, Change
from .engine import Engine
from .geometry import Circle, Coverage, Point, Rect, UNIT_SQUARE, classify, contains
from .grid import CandidateCells, CellId, GridIndex
from .mtree import MTree, SearchStats, SplitConfig, SubtreeCache

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CellDelta",
    "CandidateCells",
    "CellId",
    "Change",
    "Circle",
    "Coverage",
    "Engine",
    "GridIndex",
    "MTree",
    "Point",
    "Rect",
    "SearchStats",
    "SplitConfig",
    "SubtreeCache",
    "UNIT_SQUARE",
    "classify",
    "contains",
    "__version__",
]
