"""Simulated master/worker cluster.

One entrance worker owns the grid index and the query routing table;
index workers own disjoint sets of cells; query workers own query states
and assemble results.  Workers share nothing and communicate only through
messages.  A tick is: feed the batch, flood a barrier, and drain to
quiescence; barrier acknowledgements carry per-worker counters, so the
tick report is computed the same way on both transports.  The client
sends the entrance the tick's object reports as one frame, then its query
events one message each, in client order.  The entrance
only records the client's events, and sends when the client's barrier
arrives: each index worker one frame of its object reports, with the
cells the entrance located (the index workers locate nothing), then the
expiries, the searches and query moves, and the barriers.  An index
worker sends a query worker the tick's result changes as one frame just
before its barrier.  The entrance also keeps each live object's cell
and rejects a report whose old side disagrees with it, so every engine
sees only reports consistent with its state.  It keeps each live
object's last point too, which settles most cells without
:meth:`GridIndex.locate`: an old point equal to the recorded one is in
the recorded cell, and a new point inside that cell's half-open edges
stays in it.  A consistent client's move is located only when it
leaves its cell or lands on the domain's maximum edge.

Three engine modes share the scaffolding so that their message and work
counts are comparable: "drqa" (trees, standing registrations, incremental
deltas), "gi" (grid only: one :class:`GridStore` per index worker), and
"ns" (the same :class:`GridStore`, whose flat point map of the worker's
objects is scanned whole per query).
The baselines search each query at most once per tick: a query that was
registered or moved, or every query in a tick with object reports.
In every mode, an index worker answers a search with one partial result
keyed by its own id, so a query worker awaits at most one per index worker.
"""

from __future__ import annotations

import hashlib
import math
import queue as queue_mod
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import AbstractSet

from .baselines import GridStore, ns_search
from .cells import CellDelta, CellStore
from .errors import OutOfDomainError, RangemonError, TransportError
from .geometry import Circle, Coverage, Point
from .grid import CandidateCells, CellId, GridIndex
from .mtree import NO_IDS, SearchStats, SplitConfig
from .transport import LoopbackTransport, SocketTransport
from .wire import (
    Body,
    CellSearch,
    Message,
    ObjectBatch,
    ObjectReports,
    ObjectUpdate,
    PartialResult,
    QueryExpire,
    QueryMove,
    QueryRegister,
    ResultDelta,
    TickBarrier,
)

CLIENT = 0
ENTRANCE = 1

ENGINE_MODES = ("drqa", "gi", "ns")

# a coverage class from its wire value; any other value raises KeyError
_COVERAGE = {cov.value: cov for cov in Coverage}
# the wire values, read once: the entrance writes one per (query, cell)
_DISJOINT, _PARTIAL, _FULL = Coverage.DISJOINT.value, Coverage.PARTIAL.value, Coverage.FULL.value


class RoutingTable:
    """Similar queries (candidate-set jaccard >= threshold against the last
    ``window`` routed queries) land on the worker already holding the most
    similar one; others go to the least-loaded worker.  Ties: higher
    similarity, then lower id.

    An inverted index maps each cell to the window entries that hold it, so
    a route counts shared cells only over the entries that overlap the new
    query: its cost follows the overlap, not the window.  An entry sharing
    no cell has jaccard 0, which only a threshold <= 0 admits; then every
    such entry ties, and the lowest worker id in the window wins unless an
    overlapping entry does."""

    def __init__(self, query_workers: list[int], threshold: float, window: int = 1024):
        self.query_workers = list(query_workers)
        self.threshold = threshold
        self.window = window
        self.load: dict[int, int] = {w: 0 for w in self.query_workers}
        # entry number -> (cells, worker), oldest first; numbers are consecutive
        self._entries: dict[int, tuple[set[CellId], int]] = {}
        self._holders: dict[CellId, set[int]] = {}  # cell -> the entries holding it
        self._in_window: Counter[int] = Counter()  # worker -> its entries in the window
        self._next = 0  # number of the next entry

    def route(self, gr: CandidateCells) -> int:
        if not self.query_workers:
            raise ValueError("no query workers")
        cells = gr.all_cells()  # a fresh set, kept by the entry
        holders = self._holders
        shared: Counter[int] = Counter()  # entry -> cells it shares with this query
        for cell in cells:
            held = holders.get(cell)
            if held:
                shared.update(held)
        n = len(cells)
        entries = self._entries
        best: tuple[float, int] | None = None
        for entry, inter in shared.items():
            other, worker = entries[entry]
            sim = inter / (n + len(other) - inter)
            if sim < self.threshold:
                continue
            if best is None or sim > best[0] or (sim == best[0] and worker < best[1]):
                best = (sim, worker)
        if best is not None:
            worker = best[1]
        elif self.threshold <= 0 and self._in_window:
            worker = min(self._in_window)
        else:
            worker = min(self.query_workers, key=lambda w: (self.load[w], w))
        self.load[worker] += 1
        self._remember(cells, worker)
        return worker

    def _remember(self, cells: set[CellId], worker: int) -> None:
        """Append an entry; past the window, the oldest one leaves."""
        entry = self._next
        self._next += 1
        self._entries[entry] = (cells, worker)
        holders = self._holders
        for cell in cells:
            holders.setdefault(cell, set()).add(entry)
        self._in_window[worker] += 1
        if len(self._entries) > self.window:
            oldest = self._next - len(self._entries)
            old_cells, old_worker = self._entries.pop(oldest)
            for cell in old_cells:
                held = holders[cell]
                held.discard(oldest)
                if not held:
                    del holders[cell]
            self._in_window[old_worker] -= 1
            if not self._in_window[old_worker]:
                del self._in_window[old_worker]

    def release(self, worker: int) -> None:
        self.load[worker] -= 1


@dataclass
class TickReport:
    tick: int
    messages: int
    objects_processed: int
    queries_ready: int
    objects_examined: int
    results_digest: str
    errors: int  # events and reports rejected, and traffic no query state claimed

    def as_dict(self) -> dict:
        return asdict(self)


class Node:
    def __init__(self, node_id: int):
        self.id = node_id
        self.transport = None  # attached by the cluster
        self.sent_messages = 0  # per tick, barriers excluded

    def send(self, receiver: int, body: Body) -> None:
        if not isinstance(body, TickBarrier):
            self.sent_messages += 1
        self.transport.send(self.id, receiver, body)

    def handle(self, msg: Message) -> None:
        raise NotImplementedError


class EntranceWorker(Node):
    def __init__(
        self,
        grid: GridIndex,
        assignment: dict[CellId, int],
        iw_ids: list[int],
        qw_ids: list[int],
        routing: RoutingTable,
        mode: str,
    ):
        super().__init__(ENTRANCE)
        self.grid = grid
        self.assignment = assignment
        self.iw_ids = iw_ids
        self.qw_ids = qw_ids
        self.routing = routing
        self.mode = mode
        self.registry: dict[int, tuple[Circle, CandidateCells, int]] = {}
        # ids expired this tick: a query id names one registration per
        # tick, so they register again only from the next tick on
        self._expired: set[int] = set()
        # queries registered or moved this tick -> the cells the index
        # workers hold for them from earlier ticks (None: registered this
        # tick); searched or moved in the barrier wave
        self._touched: dict[int, CandidateCells | None] = {}
        # queries expired this tick, with their query worker and held cells
        self._expiries: list[tuple[int, int, CandidateCells]] = []
        self._tick = 0
        self._pending_acks: set[int] = set()
        self._totals = [0, 0, 0, 0, 0]  # messages, objects, ready, examined, errors
        self._digest = 0
        self.errors = 0  # client events rejected this tick
        # per index worker, the tick's object report parts, sent as one
        # ObjectBatch at the head of the barrier wave
        self._parts: dict[int, list] = {iw: [] for iw in iw_ids}
        self.object_cells: dict[int, CellId] = {}  # live object id -> its cell
        self.object_points: dict[int, Point] = {}  # live object id -> its last point

    def owner(self, cell: CellId) -> int:
        return self.assignment[cell]

    def handle(self, msg: Message) -> None:
        body = msg.body
        try:
            if isinstance(body, ObjectReports):
                self._on_reports(body.reports)
            elif isinstance(body, QueryRegister):
                self._dispatch_register(body)
            elif isinstance(body, QueryMove):
                self._dispatch_move(body)
            elif isinstance(body, QueryExpire):
                self._dispatch_expire(body)
            elif isinstance(body, TickBarrier):
                self._on_barrier(msg.sender, body)
            else:
                raise ValueError(f"entrance: unexpected message kind {body.kind!r}")
        except OutOfDomainError:
            # a registration or move computes its cells before it records
            # anything, so the event is rejected alone and the tick drains
            self.errors += 1

    # -- fan-out ---------------------------------------------------------

    def _on_reports(self, reports: tuple[ObjectUpdate, ...]) -> None:
        """Record each report of the client's frame for the owners of its
        cells, with the cells.  A report with neither point, or whose old
        side disagrees with the object's recorded cell (an insertion of a
        live id, a move or removal of an unknown id, an old point in another
        cell), or with a point outside the domain, is rejected alone.

        Both shortcuts give the cell :meth:`GridIndex.locate` would: an old
        point equal to the recorded one is in the recorded cell, and a new
        point inside the old cell's half-open edges is in the old cell.
        So only an insertion, a move that leaves its cell or an old point
        other than the recorded one calls ``locate``; so does a new point
        on the domain's maximum edge, which belongs to the last cell but
        lies outside its half-open edges."""
        locate = self.grid.locate
        xs, ys = self.grid.xs, self.grid.ys
        cells = self.object_cells
        points = self.object_points
        assignment = self.assignment
        parts = self._parts
        for report in reports:
            obj_id, old, new = report.obj_id, report.old, report.new
            cell = cells.get(obj_id)
            try:
                if old is None:
                    if cell is not None or new is None:
                        self.errors += 1
                        continue
                    new_cell = locate(new)
                elif cell is None or old != points[obj_id] and locate(old) != cell:
                    self.errors += 1
                    continue
                elif new is None:
                    new_cell = None
                else:
                    row, col = cell
                    x, y = new
                    if xs[col] <= x < xs[col + 1] and ys[row] <= y < ys[row + 1]:
                        new_cell = cell
                    else:
                        new_cell = locate(new)
            except OutOfDomainError:
                self.errors += 1
                continue
            # accepted: cell is the old point's cell, None for an insertion
            if new_cell is None:
                del cells[obj_id], points[obj_id]
            else:
                cells[obj_id] = new_cell
                points[obj_id] = new
            old_owner = assignment[cell] if cell is not None else None
            new_owner = assignment[new_cell] if new_cell is not None else None
            if old_owner is not None and old_owner == new_owner:
                parts[old_owner].append((obj_id, old, cell, new, new_cell))
                continue
            if old_owner is not None:
                parts[old_owner].append((obj_id, old, cell, None, None))
            if new_owner is not None:
                parts[new_owner].append((obj_id, None, None, new, new_cell))

    def _register_message(self, q_id: int, circle: Circle, gr: CandidateCells, qw: int) -> None:
        """CELL_SEARCH to every index worker owning a candidate cell (under
        ``ns``, to every index worker), then the registration to the query
        worker, listing those index workers as the partials to collect."""
        by_owner: dict[int, list[tuple[CellId, int]]] = {}
        if self.mode == "ns":
            by_owner = {iw: [] for iw in self.iw_ids}
        else:
            for cell in gr.full:
                by_owner.setdefault(self.owner(cell), []).append((cell, _FULL))
            for cell in gr.partial:
                by_owner.setdefault(self.owner(cell), []).append((cell, _PARTIAL))
        keys = sorted(by_owner)
        for iw in keys:
            self.send(iw, CellSearch(q_id, circle, tuple(sorted(by_owner[iw])), qw))
        self.send(qw, QueryRegister(q_id, circle, 0, 0, tuple(keys)))

    def _dispatch_register(self, body: QueryRegister) -> None:
        if body.q_id in self.registry:
            # a registration of a live query moves it to the new circle
            self._dispatch_move(QueryMove(body.q_id, body.circle))
            return
        gr = self.grid.candidate_cells(body.circle)
        if body.q_id in self._expired:
            self.errors += 1  # a query id names one registration per tick
            return
        self.registry[body.q_id] = (body.circle, gr, self.routing.route(gr))
        self._touched[body.q_id] = None

    def _dispatch_move(self, body: QueryMove) -> None:
        if body.q_id not in self.registry:
            self.errors += 1  # no registration to move: rejected alone
            return
        _, gr_old, qw = self.registry[body.q_id]
        self.registry[body.q_id] = (body.circle, self.grid.candidate_cells(body.circle), qw)
        self._touched.setdefault(body.q_id, gr_old)

    def _dispatch_expire(self, body: QueryExpire) -> None:
        entry = self.registry.pop(body.q_id, None)
        if entry is None:
            return
        _, gr, qw = entry
        self._expired.add(body.q_id)
        self.routing.release(qw)
        held = self._touched.pop(body.q_id, gr)
        if held is not None:  # a query registered this tick is held nowhere yet
            self._expiries.append((body.q_id, qw, held))

    # -- tick barrier ------------------------------------------------------

    def _send_wave(self) -> None:
        """Send the tick's recorded traffic, in the order the workers apply
        it: each index worker's object reports, the expiries, then each
        touched query's search or move.  The barriers follow."""
        had_updates = any(self._parts.values())
        for iw, parts in self._parts.items():
            if parts:
                self.send(iw, ObjectBatch(tuple(parts)))
        self._parts = {iw: [] for iw in self.iw_ids}
        for q_id, qw, held in self._expiries:
            self.send(qw, QueryExpire(q_id))
            if self.mode == "drqa":
                for iw in sorted({self.owner(c) for c in held.all_cells()}):
                    self.send(iw, QueryExpire(q_id))
        assignment = self.assignment
        touched = self._touched
        if self.mode != "drqa" and had_updates:
            touched = dict.fromkeys(self.registry)  # reports may change any result
        for q_id, held in touched.items():
            circle, gr, qw = self.registry[q_id]
            if held is None or self.mode != "drqa":
                self._register_message(q_id, circle, gr, qw)
                continue
            # one QUERY_MOVE per owner, from the held cells to the final
            # ones; a cell fully covered by both circles keeps its
            # membership: its owner is told nothing about it, and an owner
            # left with no other cell gets no QUERY_MOVE.  Each of the
            # seven other (old, new) class pairs is one set operation over
            # the interned cells; each owner's list is sorted by cell
            by_owner: dict[int, list[tuple[CellId, int, int]]] = {}
            hf, hp, gf, gp = held.full, held.partial, gr.full, gr.partial
            for cells, old_val, new_val in (
                (hf.difference(gf, gp), _FULL, _DISJOINT), (hf & gp, _FULL, _PARTIAL),
                (hp.difference(gf, gp), _PARTIAL, _DISJOINT), (hp & gp, _PARTIAL, _PARTIAL),
                (hp & gf, _PARTIAL, _FULL), (gf.difference(hf, hp), _DISJOINT, _FULL),
                (gp.difference(hf, hp), _DISJOINT, _PARTIAL),
            ):
                for cell in cells:
                    by_owner.setdefault(assignment[cell], []).append((cell, old_val, new_val))
            for iw in sorted(by_owner):
                self.send(iw, QueryMove(q_id, circle, tuple(sorted(by_owner[iw])), qw))
        self._touched = {}
        self._expiries = []
        self._expired = set()

    def _on_barrier(self, sender: int, body: TickBarrier) -> None:
        if sender == CLIENT:
            self._tick = body.tick
            self._send_wave()
            self._pending_acks = set(self.iw_ids) | set(self.qw_ids)
            self._totals = [0, 0, 0, 0, 0]
            self._digest = 0
            for iw in self.iw_ids:
                self.send(iw, TickBarrier(self._tick))
            for qw in self.qw_ids:
                self.send(qw, TickBarrier(self._tick))
            return
        self._pending_acks.discard(sender)
        counters = (body.messages, body.objects, body.ready, body.examined, body.errors)
        self._totals = [total + n for total, n in zip(self._totals, counters)]
        if body.digest:
            self._digest ^= int.from_bytes(body.digest, "big")
        if not self._pending_acks:
            messages = self._totals[0] + self.sent_messages
            self._totals[4] += self.errors
            self.sent_messages = 0
            self.errors = 0
            self.send(CLIENT, TickBarrier(
                self._tick, messages, *self._totals[1:], self._digest.to_bytes(32, "big"),
            ))


class IndexWorker(Node, CellStore):
    def __init__(self, node_id: int, grid: GridIndex, cfg: SplitConfig, mode: str, qw_ids: list[int]):
        Node.__init__(self, node_id)
        CellStore.__init__(self, grid, cfg)
        self.mode = mode
        self.qw_ids = qw_ids
        self.store = GridStore(grid)  # gi and ns modes only
        self.stats = SearchStats()
        self.objects_processed = 0
        self.errors = 0  # object reports rejected this tick
        self.route_of: dict[int, int] = {}  # drqa: query id -> its query worker
        self.cells_of: dict[int, set[CellId]] = {}
        # drqa: query id -> (its query worker, the tick's entered ids, left
        # ids); sent as one RESULT_DELTA per query worker just before the
        # tick barrier
        self._outbox: dict[int, tuple[int, list[int], list[int]]] = {}

    def handle(self, msg: Message) -> None:
        body = msg.body
        if isinstance(body, ObjectBatch):
            self._on_objects(body.parts)
        elif isinstance(body, CellSearch):
            self._on_cell_search(body)
        elif isinstance(body, QueryMove):
            self._on_query_move(body)
        elif isinstance(body, QueryExpire):
            self._on_expire(body)
        elif isinstance(body, TickBarrier):
            self._on_barrier(body)
        else:
            raise ValueError(f"index worker {self.id}: unexpected kind {body.kind!r}")

    def _on_objects(self, parts: tuple) -> None:
        """Apply an entrance frame's report parts in order, with the cells
        the entrance located.  A part that raises is rejected alone and
        counted in the barrier."""
        self.objects_processed += len(parts)
        if self.mode == "drqa":
            outbox = self._outbox
            route_of = self.route_of
            move = self.move_object
            deltas: list[CellDelta] = []
            for part in parts:
                try:
                    move(*part, deltas)
                except RangemonError:
                    # if its insertion raised, the removal's LEAVEs still go out
                    self.errors += 1
                # the cells' delta sets are fresh or the shared empty ones,
                # so a lone delta is taken as it is; only a move across
                # cells unions two
                entered: AbstractSet[int] = NO_IDS
                left: AbstractSet[int] = NO_IDS
                for delta in deltas:
                    entered = entered | delta.entered if entered else delta.entered
                    left = left | delta.left if left else delta.left
                deltas.clear()
                if entered or left:
                    # a query the object left in the old cell and entered
                    # in the new one keeps it in its result: it gets nothing
                    obj_id = part[0]
                    for side, q_ids in ((1, entered - left), (2, left - entered)):
                        for q_id in q_ids:
                            entry = outbox.get(q_id)
                            if entry is None:
                                entry = outbox[q_id] = (route_of[q_id], [], [])
                            entry[side].append(obj_id)
        else:
            store = self.store
            for obj_id, old, _, new, new_cell in parts:
                if old is None and new is None:
                    self.errors += 1  # a part with neither point
                    continue
                try:
                    if new is None:
                        store.remove(obj_id)
                    elif old is None:
                        store.insert(obj_id, new, new_cell)
                    else:
                        store.move(obj_id, new, new_cell)
                except RangemonError:
                    self.errors += 1

    def _on_cell_search(self, body: CellSearch) -> None:
        """Search every listed cell (under ``ns``, every object this worker
        holds) and answer with one partial keyed by this worker's id."""
        # cells hold disjoint objects, so the ids are concatenated: an id
        # listed twice reaches the query worker's count check
        ids: list[int] = []
        if self.mode == "ns":
            ids.extend(ns_search(self.store.positions, body.circle, self.stats))
        elif self.mode == "gi":
            for cell_id, cov_value in body.entries:
                if _COVERAGE[cov_value] is Coverage.FULL:
                    ids.extend(self.store.cells.get(cell_id, {}))
                else:
                    ids.extend(self.store.scan(cell_id, body.circle, self.stats))
        else:
            self.route_of[body.q_id] = body.query_worker
            cells = self.cells_of.setdefault(body.q_id, set())
            for cell_id, cov_value in body.entries:
                cells.add(cell_id)
                ids.extend(self.cell(cell_id).register(body.q_id, _COVERAGE[cov_value], body.circle, self.stats))
        self.send(body.query_worker, PartialResult(body.q_id, self.id, tuple(sorted(ids))))

    def _on_query_move(self, body: QueryMove) -> None:
        q_id = body.q_id
        circle = body.circle
        stats = self.stats
        cells = self.cells
        self.route_of[q_id] = body.query_worker
        owned = self.cells_of.setdefault(q_id, set())
        # cells hold disjoint objects, so the per-cell changes never cancel
        # and every cell adds into one pair of sets
        entered: set[int] = set()
        left: set[int] = set()
        for cell_id, old_val, new_val in body.transitions:
            cell = cells.get(cell_id) or self.cell(cell_id)
            cell.move_query(q_id, _COVERAGE[old_val], _COVERAGE[new_val], circle, stats, entered, left)
            if new_val == _DISJOINT:
                owned.discard(cell_id)
            else:
                owned.add(cell_id)
        if entered or left:
            entry = self._outbox.setdefault(q_id, (body.query_worker, [], []))
            entry[1].extend(entered)
            entry[2].extend(left)
        if not owned:
            self.cells_of.pop(q_id, None)
            self.route_of.pop(q_id, None)

    def _on_expire(self, body: QueryExpire) -> None:
        for cell_id in sorted(self.cells_of.pop(body.q_id, set())):
            self.cells[cell_id].unregister_query(body.q_id)
        self.route_of.pop(body.q_id, None)
        # its query worker no longer holds it: its changes would be a fault
        self._outbox.pop(body.q_id, None)

    def _on_barrier(self, body: TickBarrier) -> None:
        # per query worker, its queries' spans and ids in outbox order
        frames = {qw: ([], [], []) for qw in self.qw_ids}
        for q_id, (qw, entered, left) in self._outbox.items():
            spans, add, remove = frames[qw]
            spans.append((q_id, len(entered), len(left)))
            add += entered
            remove += left
        for qw, (spans, add, remove) in frames.items():
            if spans:
                self.send(qw, ResultDelta(tuple(spans), tuple(add), tuple(remove)))
            self.send(qw, TickBarrier(body.tick))
        self._outbox = {}
        self.send(ENTRANCE, TickBarrier(
            body.tick,
            messages=self.sent_messages,
            objects=self.objects_processed,
            examined=self.stats.objects_examined,
            errors=self.errors,
        ))
        self.sent_messages = 0
        self.objects_processed = 0
        self.errors = 0
        self.stats = SearchStats()


class QueryCounts:
    """One query's result on its query worker: for each object id, the
    number of cells currently reporting it.  An id is in the result while
    its count is positive; zero counts are deleted, so the result is the
    key set.  Also the collection bookkeeping of the query's latest
    search: the index workers whose partials are still awaited.

    Two counters check the invariant that, once a tick's traffic has
    drained, every count is exactly 1: LEAVEs that found no count, and
    the ids whose count is now 2 or more.  Either makes the query unready.
    """

    __slots__ = ("q_id", "counts", "pending", "stray_leaves", "duplicates")

    def __init__(self, q_id: int, keys: tuple[int, ...] = ()):
        self.q_id = q_id
        self.counts: Counter[int] = Counter()
        self.pending = set(keys)
        self.stray_leaves = 0
        self.duplicates = 0

    @property
    def result(self) -> set[int]:
        return set(self.counts)

    def ready(self) -> bool:
        return not (self.pending or self.stray_leaves or self.duplicates)

    def add_ids(self, ids: tuple[int, ...]) -> None:
        """Count a partial or a span's ENTERs in one C-level pass.  Ids new
        to the query and distinct, the common case, each add one key."""
        counts = self.counts
        before = len(counts)
        counts.update(ids)
        if len(counts) - before != len(ids):
            # some ids were counted already or are listed twice: count
            # those whose count reached 2 in this pass
            for obj_id, k in Counter(ids).items():
                n = counts[obj_id]
                if n >= 2 > n - k:
                    self.duplicates += 1

    def apply_delta(self, add: tuple[int, ...], remove: tuple[int, ...]) -> None:
        """ENTERs before LEAVEs: an index worker sends a LEAVE only for an
        id it has ENTERed, so no LEAVE is counted stray for arriving in the
        same span as its ENTER."""
        self.add_ids(add)
        counts = self.counts
        for obj_id in remove:
            n = counts.get(obj_id, 0)
            if n == 1:
                counts.pop(obj_id)  # not del: Counter.__delitem__ is a Python call
            elif n == 0:
                self.stray_leaves += 1
            else:
                counts[obj_id] = n - 1
                if n == 2:
                    self.duplicates -= 1


class QueryWorker(Node):
    """Holds query states and folds partials and deltas into them.

    A result is a count per object id (:class:`QueryCounts`): a partial or
    an ENTER adds 1, a LEAVE subtracts 1.  Addition commutes, so deltas
    from different index workers may arrive in any order: when an object
    crosses an owner boundary, its ENTER from the new cell's owner can
    overtake its LEAVE from the old one.  An index worker nets each object
    report per query before buffering it, so a move between two cells of
    one owner that both report to a query sends nothing.

    The entrance's registrations and expiries apply on arrival.  The index
    workers' partials and RESULT_DELTA frames are kept in arrival order and
    applied when the tick's last barrier is in: every edge has drained by
    then, so the tick's registrations have landed however the edges
    interleaved.  A partial no awaiting state claims (query not held,
    worker not promised, or a second answer from one worker) and a span
    for a query this worker does not hold are faults: each is counted in
    that barrier's ``errors`` and dropped, so a fault stays in its tick.

    Query moves never reach this worker: a cell the moved circle leaves
    loses its contribution by a RESULT_DELTA from the cell's owner.
    """

    def __init__(self, node_id: int, iw_ids: list[int]):
        super().__init__(node_id)
        self.queries: dict[int, QueryCounts] = {}
        self._stash: list[PartialResult | ResultDelta] = []  # the index workers' traffic this tick
        self._expected_barriers = {ENTRANCE} | set(iw_ids)
        self._got_barriers: set[int] = set()
        # query id -> its part of the results digest, as of the last
        # barrier; dropped whenever the query's counts may have changed
        self._encoded: dict[int, bytes] = {}

    def handle(self, msg: Message) -> None:
        body = msg.body
        if isinstance(body, QueryRegister):
            self.queries[body.q_id] = QueryCounts(body.q_id, body.keys)
            self._encoded.pop(body.q_id, None)
        elif isinstance(body, (PartialResult, ResultDelta)):
            self._stash.append(body)
        elif isinstance(body, QueryExpire):
            self.queries.pop(body.q_id, None)
            self._encoded.pop(body.q_id, None)
        elif isinstance(body, TickBarrier):
            self._on_barrier(msg.sender, body)
        else:
            raise ValueError(f"query worker {self.id}: unexpected kind {body.kind!r}")

    @staticmethod
    def collect_partial(state: QueryCounts, key: int, ids: tuple[int, ...]) -> bool:
        """Merge one index worker's partial; the state is ready once the
        last awaited worker has answered.  A partial from a worker not
        awaited (never promised, or one that answered already) is refused:
        returns False and changes nothing."""
        if key not in state.pending:
            return False
        state.pending.remove(key)
        state.add_ids(ids)
        return True

    def _on_barrier(self, sender: int, body: TickBarrier) -> None:
        self._got_barriers.add(sender)
        if self._got_barriers != self._expected_barriers:
            return
        self._got_barriers = set()
        queries = self.queries
        encoded = self._encoded
        errors = 0
        for item in self._stash:
            if isinstance(item, PartialResult):
                state = queries.get(item.q_id)
                if state is not None and self.collect_partial(state, item.key, item.ids):
                    encoded.pop(item.q_id, None)
                else:
                    errors += 1  # a partial no awaiting state claims is dropped
            else:
                for q_id, add, remove in item.per_query():
                    state = queries.get(q_id)
                    if state is None:
                        errors += 1  # a span for a query not held is dropped
                    else:
                        state.apply_delta(add, remove)
                        encoded.pop(q_id, None)
        self._stash.clear()
        ready = sum(1 for s in queries.values() if s.ready())
        # only the queries whose counts changed since the last barrier are
        # encoded again; the digest is the same hash of every result
        digest = hashlib.sha256()
        for q_id in sorted(queries):
            part = encoded.get(q_id)
            if part is None:
                part = encoded[q_id] = repr((q_id, sorted(queries[q_id].counts))).encode()
            digest.update(part)
        self.send(ENTRANCE, TickBarrier(
            body.tick, messages=self.sent_messages, ready=ready, errors=errors,
            digest=digest.digest(),
        ))
        self.sent_messages = 0


@dataclass
class ClusterSpec:
    grid_n: int = 100
    index_workers: int = 4
    query_workers: int = 2
    alpha: int = 20
    m: int = 6
    jaccard_threshold: float = 0.5
    engine: str = "drqa"
    transport: str = "loopback"
    loopback_policy: str = "fifo"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {self.engine!r}")
        if self.transport not in ("loopback", "socket"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.index_workers < 1 or self.query_workers < 1:
            raise ValueError("need at least one index worker and one query worker")
        if math.isnan(self.jaccard_threshold):
            raise ValueError("jaccard_threshold is NaN")
        SplitConfig(self.alpha, self.m)  # the tree's own check of alpha and m


class Cluster:
    """Builds the topology, owns the transport, and exposes the tick loop."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.grid = GridIndex(spec.grid_n)
        self.iw_ids = [2 + i for i in range(spec.index_workers)]
        self.qw_ids = [2 + spec.index_workers + j for j in range(spec.query_workers)]
        assignment = self.grid.assign_cells(self.iw_ids)
        routing = RoutingTable(self.qw_ids, spec.jaccard_threshold)
        cfg = SplitConfig(alpha=spec.alpha, m=spec.m)
        self.entrance = EntranceWorker(self.grid, assignment, self.iw_ids, self.qw_ids, routing, spec.engine)
        self.index_workers = [IndexWorker(i, self.grid, cfg, spec.engine, self.qw_ids) for i in self.iw_ids]
        self.query_workers = [QueryWorker(j, self.iw_ids) for j in self.qw_ids]
        self._nodes = {ENTRANCE: self.entrance}
        self._nodes.update({iw.id: iw for iw in self.index_workers})
        self._nodes.update({qw.id: qw for qw in self.query_workers})
        self._tick = 0
        self._client_inbox: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._transport: LoopbackTransport | SocketTransport
        if spec.transport == "loopback":
            self._transport = LoopbackTransport(policy=spec.loopback_policy, seed=spec.seed)
        else:
            self._transport = SocketTransport()
        for node_id, node in self._nodes.items():
            node.transport = self._transport
            self._transport.register(node_id, node.handle)
        self._transport.register(CLIENT, self._client_inbox.put)

    # -- driving ----------------------------------------------------------

    def run_tick(self, events: list[Body], timeout: float = 60.0) -> TickReport:
        """Send the tick's events to the entrance and wait for its barrier.
        The object reports go first, as one frame, and the query events
        follow one message each, in client order.  The entrance sends
        nothing before the barrier, and reports and query events touch
        disjoint entrance state, so the reordering changes no frame it
        sends."""
        self._tick += 1
        reports: list[ObjectUpdate] = []
        queries: list[Body] = []
        for event in events:
            (reports if isinstance(event, ObjectUpdate) else queries).append(event)
        if reports:
            self._transport.send(CLIENT, ENTRANCE, ObjectReports(tuple(reports)))
        for event in queries:
            self._transport.send(CLIENT, ENTRANCE, event)
        self._transport.send(CLIENT, ENTRANCE, TickBarrier(self._tick))
        if isinstance(self._transport, LoopbackTransport):
            self._transport.pump()
            if self._client_inbox.empty():
                raise TransportError("tick did not complete: no barrier returned")
            msg = self._client_inbox.get()
        else:
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError("tick did not complete before timeout")
                try:
                    msg = self._client_inbox.get(timeout=remaining)
                except queue_mod.Empty:
                    continue
                if msg.body.tick == self._tick:
                    break
        body = msg.body
        return TickReport(
            tick=body.tick,
            messages=body.messages,
            objects_processed=body.objects,
            queries_ready=body.ready,
            objects_examined=body.examined,
            results_digest=body.digest.hex(),
            errors=body.errors,
        )

    # -- inspection (quiescent between ticks; all nodes live in-process) ----

    def query_result(self, q_id: int) -> set[int] | None:
        for qw in self.query_workers:
            state = qw.queries.get(q_id)
            if state is not None:
                return state.result
        return None

    def results(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for qw in self.query_workers:
            for q_id, state in qw.queries.items():
                out[q_id] = state.result
        return out

    def close(self) -> None:
        self._transport.close()
