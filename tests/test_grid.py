import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rangemon.errors import OutOfDomainError
from rangemon.geometry import Circle, Coverage, Point, Rect, classify, slot
from rangemon.grid import CellId, GridIndex


def test_locate_corners_and_max_edge():
    g = GridIndex(100)
    assert g.locate(Point(0.0, 0.0)) == CellId(0, 0)
    assert g.locate(Point(0.505, 0.505)) == CellId(50, 50)
    assert g.locate(Point(1.0, 1.0)) == CellId(99, 99)  # max edge closes
    assert g.locate(Point(1.0, 0.0)) == CellId(0, 99)


def test_locate_exact_interior_boundaries():
    g = GridIndex(100)
    # points on interior cell boundaries belong to the upper cell,
    # whatever float division would have said
    for k in range(1, 100):
        p = Point(k / 100.0, 0.5)
        cell = g.locate(p)
        b = g.cell_bounds(cell)
        assert b.x_lo <= p.x < b.x_hi or (p.x == b.x_hi == 1.0)


def test_locate_rejects_outside():
    g = GridIndex(10)
    with pytest.raises(OutOfDomainError):
        g.locate(Point(1.5, 0.5))
    with pytest.raises(OutOfDomainError):
        g.locate(Point(0.5, -0.01))


# grids for the locate equivalence tests: n in {1, 3, 7, 100} on the unit
# square, and one grid on a domain that is neither unit-sized nor at 0
LOCATE_GRIDS = [GridIndex(1), GridIndex(3), GridIndex(7), GridIndex(100),
                GridIndex(13, Rect(-3.7, 2.1, 5.3, 9.0))]


def edges(g, axis):
    """The grid's cell edges on one axis (0: x, 1: y), from its cell bounds."""
    rects = [g.cell_bounds(CellId(0, j) if axis == 0 else CellId(j, 0)) for j in range(g.n)]
    lo = [r.x_lo if axis == 0 else r.y_lo for r in rects]
    return lo + [rects[-1].x_hi if axis == 0 else rects[-1].y_hi]


def slot_rule_cell(g, p):
    """The cell the slot rule gives: each axis bucketed by geometry.slot."""
    return CellId(slot(edges(g, 1), p.y), slot(edges(g, 0), p.x))


def boundary_values(g, axis):
    """Every edge of an axis, the domain's minimum and maximum among them,
    and each interior edge's float neighbours on both sides."""
    es = edges(g, axis)
    out = list(es)
    for e in es[1:-1]:
        out += [math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
    out += [math.nextafter(es[0], math.inf), math.nextafter(es[-1], -math.inf)]
    return out


@st.composite
def grid_points(draw):
    g = draw(st.sampled_from(LOCATE_GRIDS))
    d = g.domain
    x = draw(st.one_of(st.floats(min_value=d.x_lo, max_value=d.x_hi), st.sampled_from(boundary_values(g, 0))))
    y = draw(st.one_of(st.floats(min_value=d.y_lo, max_value=d.y_hi), st.sampled_from(boundary_values(g, 1))))
    return g, Point(x, y)


@given(grid_points())
@settings(max_examples=500, deadline=None)
def test_locate_matches_slot_rule(case):
    g, p = case
    cell = g.locate(p)
    assert cell == slot_rule_cell(g, p)
    # the cell's lower corner lies in it: the same interned object
    b = g.cell_bounds(cell)
    assert g.locate(Point(b.x_lo, b.y_lo)) is cell


def test_locate_matches_slot_rule_on_every_boundary():
    for g in LOCATE_GRIDS:
        xs, ys = boundary_values(g, 0), boundary_values(g, 1)
        mid_x, mid_y = (g.domain.x_lo + g.domain.x_hi) / 2, (g.domain.y_lo + g.domain.y_hi) / 2
        points = ([Point(x, y) for x in (xs[0], xs[g.n]) for y in (ys[0], ys[g.n])]  # corners
                  + [Point(x, mid_y) for x in xs] + [Point(mid_x, y) for y in ys]
                  + [Point(x, y) for x, y in zip(xs, reversed(ys))])
        for p in points:
            cell = g.locate(p)
            assert cell == slot_rule_cell(g, p), (g.n, p)
            assert g.locate(Point(p.x, p.y)) is cell


def test_locate_rejects_outside_every_grid():
    for g in LOCATE_GRIDS:
        d = g.domain
        inside_x, inside_y = d.x_lo, d.y_hi
        for x, y in ((math.nextafter(d.x_lo, -math.inf), inside_y), (math.nextafter(d.x_hi, math.inf), inside_y),
                     (inside_x, math.nextafter(d.y_lo, -math.inf)), (inside_x, math.nextafter(d.y_hi, math.inf)),
                     (math.nan, inside_y), (inside_x, math.nan), (math.nan, math.nan),
                     (math.inf, inside_y), (inside_x, -math.inf)):
            with pytest.raises(OutOfDomainError):
                g.locate(Point(x, y))


def test_partition_property():
    g = GridIndex(37)
    rng = random.Random(3)
    pts = [Point(rng.random(), rng.random()) for _ in range(100_000)]
    for p in pts:
        cell = g.locate(p)
        b = g.cell_bounds(cell)
        assert b.contains(p.x, p.y) or p.x == b.x_hi == 1.0 or p.y == b.y_hi == 1.0


def test_candidate_cells_small_circle_single_cell():
    g = GridIndex(100)
    # circle smaller than half a cell, centered in a cell
    gr = g.candidate_cells(Circle(Point(0.505, 0.505), 0.004))
    assert gr.full == set()
    assert gr.partial == {CellId(50, 50)}


def test_candidate_cells_shared_corner():
    g = GridIndex(100)
    gr = g.candidate_cells(Circle(Point(0.5, 0.5), 0.005))
    assert gr.full == set()
    assert gr.partial == {CellId(49, 49), CellId(49, 50), CellId(50, 49), CellId(50, 50)}


def test_candidate_cells_ring():
    g = GridIndex(100)
    gr = g.candidate_cells(Circle(Point(0.505, 0.505), 0.025))
    assert CellId(50, 50) in gr.full
    # oracle: classify every cell in the 7x7 box around the center
    for row in range(47, 54):
        for col in range(47, 54):
            cov = classify(Circle(Point(0.505, 0.505), 0.025), g.cell_bounds(CellId(row, col)))
            cell = CellId(row, col)
            assert (cell in gr.full) == (cov is Coverage.FULL)
            assert (cell in gr.partial) == (cov is Coverage.PARTIAL)


def assert_matches_exhaustive_classify(g, c):
    gr = g.candidate_cells(c)
    for cell in g.cells():
        cov = classify(c, g.cell_bounds(cell))
        assert (cell in gr.full) == (cov is Coverage.FULL), (c, cell)
        assert (cell in gr.partial) == (cov is Coverage.PARTIAL), (c, cell)


def test_candidate_cells_matches_exhaustive_classify():
    g = GridIndex(20)
    rng = random.Random(11)
    for _ in range(100):
        assert_matches_exhaustive_classify(g, Circle(Point(rng.random(), rng.random()), rng.uniform(0.001, 0.4)))


@st.composite
def edge_case_circles(draw):
    """A grid and a circle on its float boundaries: centres on grid lines
    (the domain corners among them), radii that are whole multiples of the
    cell width, or that make the circle tangent to a grid line or pass
    through a grid vertex."""
    n = draw(st.integers(min_value=1, max_value=12))
    g = GridIndex(n)
    lines = [g.cell_bounds(CellId(0, j)).x_lo for j in range(n)] + [1.0]
    line = st.sampled_from(lines)
    coord = st.one_of(line, st.floats(min_value=0.0, max_value=1.0))
    cx, cy = draw(coord), draw(coord)
    kind = draw(st.sampled_from(["multiple", "tangent", "vertex", "any"]))
    if kind == "multiple":
        r = draw(st.integers(min_value=1, max_value=n)) * (lines[1] - lines[0])
    elif kind == "tangent":
        r = abs(draw(st.sampled_from([cx, cy])) - draw(line))
    elif kind == "vertex":
        r = math.hypot(cx - draw(line), cy - draw(line))
    else:
        r = draw(st.floats(min_value=1e-9, max_value=1.5))
    assume(r > 0)
    return g, Circle(Point(cx, cy), r)


@given(edge_case_circles())
@settings(max_examples=300, deadline=None)
def test_candidate_cells_matches_exhaustive_classify_on_edges(case):
    assert_matches_exhaustive_classify(*case)


def test_candidate_cells_tangent_boundary():
    g = GridIndex(10)
    # circle tangent to a cell row boundary from above: the touched-only
    # cells still count as partial
    c = Circle(Point(0.55, 0.3), 0.1)  # bottom tangent at y = 0.2
    gr = g.candidate_cells(c)
    for cell in gr.full | gr.partial:
        assert classify(c, g.cell_bounds(cell)) is not Coverage.DISJOINT
    assert CellId(1, 5) in gr.partial  # row [0.1, 0.2) touched at its top edge


def test_candidate_cells_rejects_a_negative_or_nan_radius():
    g = GridIndex(10)
    for r in (-0.2, -1e-300, math.nan, -math.inf):
        with pytest.raises(OutOfDomainError):
            g.candidate_cells(Circle(Point(0.5, 0.5), r))
    # a zero radius is a point query: only the cells holding the centre
    assert g.candidate_cells(Circle(Point(0.55, 0.55), 0.0)).all_cells() == {CellId(5, 5)}


def test_assign_cells_balance_and_stability():
    g = GridIndex(100)
    workers = list(range(20))
    a1 = g.assign_cells(workers)
    a2 = g.assign_cells(workers)
    assert a1 == a2
    counts = {}
    for w in a1.values():
        counts[w] = counts.get(w, 0) + 1
    assert all(c == 500 for c in counts.values())


def test_assign_cells_small():
    g = GridIndex(2)
    assert set(g.assign_cells([7]).values()) == {7}
    a = g.assign_cells([1, 2])
    assert sum(1 for w in a.values() if w == 1) == 2
    assert sum(1 for w in a.values() if w == 2) == 2


def test_assign_cells_empty():
    with pytest.raises(ValueError):
        GridIndex(2).assign_cells([])


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=9))
@settings(max_examples=50, deadline=None)
def test_assign_cells_sizes(n, workers):
    g = GridIndex(n)
    a = g.assign_cells(list(range(workers)))
    assert len(a) == n * n
    counts = [0] * workers
    for w in a.values():
        counts[w] += 1
    assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize("locate_first", [False, True])
def test_candidate_cells_hands_out_the_located_cells(locate_first):
    # candidate cells are the CellId objects locate interns, whichever of
    # the two touches a cell first, and a repeated call hands out the same
    # objects
    rng = random.Random(5)
    g = GridIndex(n=10)
    if locate_first:
        for _ in range(200):
            g.locate(Point(rng.random(), rng.random()))
    for _ in range(50):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.4))
        gr = g.candidate_cells(c)
        for cell in gr.all_cells():
            b = g.cell_bounds(cell)
            assert g.locate(Point((b.x_lo + b.x_hi) / 2, (b.y_lo + b.y_hi) / 2)) is cell
        again = g.candidate_cells(c)
        assert again == gr
        for mine, theirs in ((gr.full, again.full), (gr.partial, again.partial)):
            assert {id(cell) for cell in mine} == {id(cell) for cell in theirs}
