"""Synthetic moving-object and query workloads.

Object populations follow one of three per-cell density laws (uniform,
gaussian, zipf-by-distance-rank) over the same grid the index uses;
objects then move by reflective random waypoint: a fixed heading per
object, advanced one speed-length step per tick, mirrored back into the
domain (with a fresh heading) when it would leave.  Everything is driven
by one seeded RNG, so a spec plus seed reproduces the exact event stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .geometry import Circle, Point
from .grid import GridIndex

DISTRIBUTIONS = ("UD", "GD", "ZIPF")


@dataclass
class WorkloadSpec:
    distribution: str = "UD"
    n_objects: int = 10_000
    n_queries: int = 100
    radius: float = 0.02
    object_speed: float = 0.005
    query_speed: float = 0.0
    ticks: int = 10
    seed: int = 0
    zipf_s: float = 1.0
    gauss_mean: tuple[float, float] = (0.5, 0.5)
    gauss_sigma: tuple[float, float] = (0.2, 0.2)
    grid_n: int = 100

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n_objects < 0 or self.n_queries < 0 or self.ticks < 0:
            raise ValueError("counts must be >= 0")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.object_speed < 0 or self.query_speed < 0:
            raise ValueError("speeds must be >= 0")
        if self.grid_n < 1:
            raise ValueError("grid_n must be >= 1")


def _norm_cdf(x: float, mean: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mean) / (sigma * math.sqrt(2.0))))


def _cell_weights(spec: WorkloadSpec, grid: GridIndex) -> list[float]:
    """Unnormalized per-cell mass, row-major."""
    n = grid.n
    if spec.distribution == "GD":
        mx, my = spec.gauss_mean
        sx, sy = spec.gauss_sigma
        if sx <= 1e-12 or sy <= 1e-12:
            # degenerate: all mass in the cell holding the mean
            hot = grid.locate(Point(min(max(mx, 0.0), 1.0), min(max(my, 0.0), 1.0)))
            return [1.0 if (i // n, i % n) == tuple(hot) else 0.0 for i in range(n * n)]
        wx = [_norm_cdf(grid.xs[j + 1], mx, sx) - _norm_cdf(grid.xs[j], mx, sx) for j in range(n)]
        wy = [_norm_cdf(grid.ys[i + 1], my, sy) - _norm_cdf(grid.ys[i], my, sy) for i in range(n)]
        return [wy[i] * wx[j] for i in range(n) for j in range(n)]
    if spec.distribution == "ZIPF":
        hx, hy = 0.5, 0.5  # hotspot: domain center
        def d2(i: int, j: int) -> float:
            cx = (grid.xs[j] + grid.xs[j + 1]) / 2.0
            cy = (grid.ys[i] + grid.ys[i + 1]) / 2.0
            return (cx - hx) ** 2 + (cy - hy) ** 2
        order = sorted(range(n * n), key=lambda k: (d2(k // n, k % n), k))
        weights = [0.0] * (n * n)
        for rank, k in enumerate(order, start=1):
            weights[k] = 1.0 / rank ** spec.zipf_s
        return weights
    return [1.0] * (n * n)  # UD


def _apportion(weights: list[float], total: int) -> list[int]:
    """Deterministic largest-remainder allocation of `total` among cells."""
    wsum = sum(weights)
    if wsum <= 0.0 or total == 0:
        return [0] * len(weights)
    raw = [w / wsum * total for w in weights]
    counts = [int(r) for r in raw]
    short = total - sum(counts)
    leftovers = sorted(range(len(raw)), key=lambda k: (counts[k] - raw[k], k))
    for k in leftovers[:short]:
        counts[k] += 1
    return counts


def generate_objects(spec: WorkloadSpec, rng) -> list[tuple[int, Point]]:
    grid = GridIndex(spec.grid_n)
    out: list[tuple[int, Point]] = []
    if spec.distribution == "UD":
        for obj_id in range(spec.n_objects):
            out.append((obj_id, Point(rng.random(), rng.random())))
        return out
    counts = _apportion(_cell_weights(spec, grid), spec.n_objects)
    obj_id = 0
    n = grid.n
    for k, count in enumerate(counts):
        if count == 0:
            continue
        x_lo, x_hi = grid.xs[k % n], grid.xs[k % n + 1]
        y_lo, y_hi = grid.ys[k // n], grid.ys[k // n + 1]
        for _ in range(count):
            out.append((obj_id, Point(rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))))
            obj_id += 1
    return out


def generate_queries(spec: WorkloadSpec, rng) -> list[tuple[int, Circle, int, int]]:
    """(query id, circle, t_start, t_end); centers follow the same spatial
    law as the objects, lifetimes span the whole run."""
    grid = GridIndex(spec.grid_n)
    centers: list[Point] = []
    if spec.distribution == "UD":
        centers = [Point(rng.random(), rng.random()) for _ in range(spec.n_queries)]
    elif spec.distribution == "GD":
        mx, my = spec.gauss_mean
        sx, sy = spec.gauss_sigma
        while len(centers) < spec.n_queries:
            x, y = rng.gauss(mx, sx), rng.gauss(my, sy)
            if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
                centers.append(Point(x, y))
    else:
        weights = _cell_weights(spec, grid)
        n = grid.n
        cells = rng.choices(range(n * n), weights=weights, k=spec.n_queries)
        for k in cells:
            centers.append(Point(
                rng.uniform(grid.xs[k % n], grid.xs[k % n + 1]),
                rng.uniform(grid.ys[k // n], grid.ys[k // n + 1]),
            ))
    # lifetimes outlive the run by one tick so results are still inspectable
    # after the last movement batch
    return [(q_id, Circle(c, spec.radius), 0, spec.ticks + 1) for q_id, c in enumerate(centers)]


def _step(p: Point, heading: float, speed: float, rng) -> tuple[Point, float]:
    x = p.x + speed * math.cos(heading)
    y = p.y + speed * math.sin(heading)
    reflected = False
    while not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        if x < 0.0:
            x = -x
        elif x > 1.0:
            x = 2.0 - x
        if y < 0.0:
            y = -y
        elif y > 1.0:
            y = 2.0 - y
        reflected = True
    if reflected:
        heading = rng.uniform(0.0, 2.0 * math.pi)
    return Point(x, y), heading


class Workload:
    """Materialized workload: initial placements plus a deterministic
    per-tick stream of object moves and query moves."""

    def __init__(self, spec: WorkloadSpec):
        import random

        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.objects = dict(generate_objects(spec, self.rng))
        self.queries = generate_queries(spec, self.rng)
        self._obj_headings = {o: self.rng.uniform(0.0, 2.0 * math.pi) for o in sorted(self.objects)}
        self._query_pos = {q: circle.center for q, circle, _, _ in self.queries}
        self._query_headings = {q: self.rng.uniform(0.0, 2.0 * math.pi) for q in sorted(self._query_pos)}

    def step_objects(self) -> list[tuple[int, Point, Point]]:
        out = []
        for obj_id in sorted(self.objects):
            old = self.objects[obj_id]
            new, heading = _step(old, self._obj_headings[obj_id], self.spec.object_speed, self.rng)
            self.objects[obj_id] = new
            self._obj_headings[obj_id] = heading
            out.append((obj_id, old, new))
        return out

    def step_queries(self) -> list[tuple[int, Circle]]:
        if self.spec.query_speed == 0.0:
            return []
        out = []
        for q_id in sorted(self._query_pos):
            new, heading = _step(
                self._query_pos[q_id], self._query_headings[q_id], self.spec.query_speed, self.rng
            )
            self._query_pos[q_id] = new
            self._query_headings[q_id] = heading
            out.append((q_id, Circle(new, self.spec.radius)))
        return out


# -- JSONL event streams -----------------------------------------------------


def iter_event_records(spec: WorkloadSpec) -> Iterator[dict]:
    """Flatten a workload into one JSON-able record per event.

    kinds: "object" (position report; the first one for an id is its
    insertion), "query" (registration, carries r and t_end), "query_move".
    """
    wl = Workload(spec)
    for obj_id in sorted(wl.objects):
        p = wl.objects[obj_id]
        yield {"tick": 0, "kind": "object", "id": obj_id, "x": p.x, "y": p.y}
    for q_id, circle, _, t_end in wl.queries:
        yield {
            "tick": 0, "kind": "query", "id": q_id,
            "x": circle.center.x, "y": circle.center.y, "r": circle.radius, "t_end": t_end,
        }
    for tick in range(1, spec.ticks + 1):
        for obj_id, _, new in wl.step_objects():
            yield {"tick": tick, "kind": "object", "id": obj_id, "x": new.x, "y": new.y}
        for q_id, circle in wl.step_queries():
            yield {"tick": tick, "kind": "query_move", "id": q_id,
                   "x": circle.center.x, "y": circle.center.y}


def write_events(fp: IO[str], records: Iterable[dict]) -> int:
    count = 0
    for rec in records:
        fp.write(json.dumps(rec, sort_keys=True))
        fp.write("\n")
        count += 1
    return count


def read_events(fp: IO[str]) -> Iterator[dict]:
    for line in fp:
        line = line.strip()
        if line:
            yield json.loads(line)
