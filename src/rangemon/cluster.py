"""Simulated master/worker cluster.

One entrance worker owns the grid index and the query routing table;
index workers own disjoint sets of cells; query workers own query states
and assemble results.  Workers share nothing and communicate only through
messages.  A tick is: feed the batch, flood a barrier, and drain to
quiescence; barrier acknowledgements carry per-worker counters, so the
tick report is computed the same way on both transports.

Three engine modes share the scaffolding so that their message and work
counts are comparable: "drqa" (trees, standing registrations, incremental
deltas), "gi" (grid only: one :class:`GridStore` per index worker), and
"ns" (each index worker keeps the objects of its own cells in one map and
scans all of it per query).
The baselines search each query at most once per tick, in the barrier wave.
In every mode, an index worker answers a search with one partial result
keyed by its own id, so a query worker awaits at most one per index worker.
"""

from __future__ import annotations

import hashlib
import queue as queue_mod
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass

from .baselines import GridStore, ns_search
from .cells import NO_IDS, CellStore
from .errors import (
    DuplicatePartialError,
    OutOfDomainError,
    RangemonError,
    TransportError,
    UnexpectedPartialError,
)
from .geometry import Circle, Coverage, Point
from .grid import CandidateCells, CellId, GridIndex
from .mtree import SearchStats, SplitConfig
from .transport import LoopbackTransport, SocketEndpoint, SocketHub
from .wire import (
    Body,
    CellSearch,
    Message,
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


class RoutingTable:
    """Similar queries (candidate-set jaccard >= threshold against a recent
    window) land on the worker already holding the most similar one; others
    go to the least-loaded worker.  Ties: higher similarity, then lower id."""

    def __init__(self, query_workers: list[int], threshold: float, window: int = 1024):
        self.query_workers = list(query_workers)
        self.threshold = threshold
        self.load: dict[int, int] = {w: 0 for w in self.query_workers}
        self.recent: deque[tuple[frozenset, int]] = deque(maxlen=window)

    def route(self, gr: CandidateCells) -> int:
        if not self.query_workers:
            raise ValueError("no query workers")
        cells = frozenset(gr.all_cells())
        best: tuple[float, int] | None = None
        for other, worker in self.recent:
            union = len(cells | other)
            sim = len(cells & other) / union if union else 0.0
            if sim < self.threshold:
                continue
            if best is None or sim > best[0] or (sim == best[0] and worker < best[1]):
                best = (sim, worker)
        if best is not None:
            worker = best[1]
        else:
            worker = min(self.query_workers, key=lambda w: (self.load[w], w))
        self.load[worker] += 1
        self.recent.append((cells, worker))
        return worker

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
        # ids expired this tick: their traffic may still be in flight, so
        # they register again only from the next tick on
        self._expired: set[int] = set()
        self._tick_had_updates = False
        self._stale: set[int] = set()  # gi/ns queries registered or moved this tick
        self._tick = 0
        self._pending_acks: set[int] = set()
        self._totals = [0, 0, 0, 0, 0]  # messages, objects, ready, examined, errors
        self._digest = 0
        self.errors = 0  # client events rejected this tick

    def owner(self, cell: CellId) -> int:
        return self.assignment[cell]

    def handle(self, msg: Message) -> None:
        body = msg.body
        try:
            if isinstance(body, ObjectUpdate):
                self._dispatch_object(body)
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
            # each dispatch locates its points before it sends or records
            # anything, so the event is rejected alone and the tick drains
            self.errors += 1

    # -- fan-out ---------------------------------------------------------

    def _dispatch_object(self, body: ObjectUpdate) -> None:
        old_owner = self.owner(self.grid.locate(body.old)) if body.old is not None else None
        new_owner = self.owner(self.grid.locate(body.new)) if body.new is not None else None
        self._tick_had_updates = True
        if old_owner is not None and old_owner == new_owner:
            self.send(old_owner, body)
            return
        if old_owner is not None:
            self.send(old_owner, ObjectUpdate(body.obj_id, body.old, None))
        if new_owner is not None:
            self.send(new_owner, ObjectUpdate(body.obj_id, None, body.new))

    def _register_message(self, body: QueryRegister, gr: CandidateCells, qw: int) -> None:
        """CELL_SEARCH to every index worker owning a candidate cell (under
        ``ns``, to every index worker), then the registration to the query
        worker, listing those index workers as the partials to collect."""
        by_owner: dict[int, list[tuple[CellId, int]]] = {}
        if self.mode == "ns":
            by_owner = {iw: [] for iw in self.iw_ids}
        else:
            for cell in gr.full:
                by_owner.setdefault(self.owner(cell), []).append((cell, Coverage.FULL.value))
            for cell in gr.partial:
                by_owner.setdefault(self.owner(cell), []).append((cell, Coverage.PARTIAL.value))
        keys = sorted(by_owner)
        for iw in keys:
            self.send(iw, CellSearch(body.q_id, body.circle, tuple(sorted(by_owner[iw])), qw))
        self.send(qw, QueryRegister(body.q_id, body.circle, body.t_start, body.t_end, tuple(keys)))

    def _dispatch_register(self, body: QueryRegister) -> None:
        if body.q_id in self.registry:
            # a registration of a live query moves it to the new circle
            self._dispatch_move(QueryMove(body.q_id, body.circle))
            return
        gr = self.grid.candidate_cells(body.circle)
        if body.q_id in self._expired:
            self.errors += 1  # a query id names one registration per tick
            return
        qw = self.routing.route(gr)
        self.registry[body.q_id] = (body.circle, gr, qw)
        if self.mode == "drqa":
            self._register_message(body, gr, qw)
        else:
            self._stale.add(body.q_id)  # searched in the barrier wave

    def _dispatch_move(self, body: QueryMove) -> None:
        if body.q_id not in self.registry:
            self.errors += 1  # no registration to move: rejected alone
            return
        _, gr_old, qw = self.registry[body.q_id]
        gr_new = self.grid.candidate_cells(body.circle)
        self.registry[body.q_id] = (body.circle, gr_new, qw)
        if self.mode != "drqa":
            self._stale.add(body.q_id)  # re-searched in the barrier wave
            return
        # a cell fully covered by both circles keeps its membership: its
        # owner is told nothing about it, and an owner left with no other
        # cell gets no QUERY_MOVE
        by_owner: dict[int, list[tuple[CellId, int, int]]] = {}
        for cell in sorted((gr_old.all_cells() | gr_new.all_cells()) - (gr_old.full & gr_new.full)):
            old_cov = gr_old.coverage_of(cell)
            new_cov = gr_new.coverage_of(cell)
            by_owner.setdefault(self.owner(cell), []).append((cell, old_cov.value, new_cov.value))
        for iw in sorted(by_owner):
            self.send(iw, QueryMove(body.q_id, body.circle, tuple(by_owner[iw]), qw))

    def _dispatch_expire(self, body: QueryExpire) -> None:
        entry = self.registry.pop(body.q_id, None)
        if entry is None:
            return
        _, gr, qw = entry
        self._expired.add(body.q_id)
        self.routing.release(qw)
        self.send(qw, body)
        if self.mode == "drqa":
            for iw in sorted({self.owner(c) for c in gr.all_cells()}):
                self.send(iw, body)

    # -- tick barrier ------------------------------------------------------

    def _on_barrier(self, sender: int, body: TickBarrier) -> None:
        if sender == CLIENT:
            self._tick = body.tick
            if self.mode != "drqa":
                # object reports may change any query's result; otherwise
                # only the registered and moved queries need a search
                todo = self.registry.keys() if self._tick_had_updates else self._stale & self.registry.keys()
                for q_id in sorted(todo):
                    circle, gr, qw = self.registry[q_id]
                    self._register_message(QueryRegister(q_id, circle, 0, 2**62), gr, qw)
            self._tick_had_updates = False
            self._stale = set()
            self._expired = set()
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
        self.owned: dict[int, Point] = {}  # ns mode only: objects in this worker's cells
        self.store = GridStore(grid)  # gi mode only
        self.stats = SearchStats()
        self.objects_processed = 0
        self.errors = 0  # object reports rejected this tick
        self.route_of: dict[int, int] = {}  # drqa: query id -> its query worker
        self.cells_of: dict[int, set[CellId]] = {}
        # drqa: per query worker, query id -> (entered ids, left ids) not
        # yet sent; flushed as one RESULT_DELTA before any other message on
        # that edge, the tick barrier included
        self._outbox: dict[int, dict[int, tuple[list[int], list[int]]]] = {qw: {} for qw in qw_ids}

    def send(self, receiver: int, body: Body) -> None:
        box = self._outbox.get(receiver)
        if box:
            # the edge is FIFO and a query's partial flushes its deltas, so
            # a query's changes arrive in the order they were made
            self._outbox[receiver] = {}
            spans = []
            add: list[int] = []
            remove: list[int] = []
            for q_id, (entered, left) in box.items():
                spans.append((q_id, len(entered), len(left)))
                add += entered
                remove += left
            super().send(receiver, ResultDelta(tuple(spans), tuple(add), tuple(remove)))
        super().send(receiver, body)

    def _buffered(self, q_id: int) -> tuple[list[int], list[int]]:
        """The outbox entry of a registered query."""
        box = self._outbox[self.route_of[q_id]]
        entry = box.get(q_id)
        if entry is None:
            entry = box[q_id] = ([], [])
        return entry

    def handle(self, msg: Message) -> None:
        body = msg.body
        if isinstance(body, ObjectUpdate):
            self._on_object_update(body)
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

    def _on_object_update(self, body: ObjectUpdate) -> None:
        self.objects_processed += 1
        entered = left = NO_IDS  # the gi and ns branches allocate nothing
        try:
            if self.mode == "drqa":
                entered, left = set(), set()
                for delta in self.move_object(body.obj_id, body.old, body.new):
                    entered |= delta.entered
                    left |= delta.left
            elif self.mode == "gi":
                if body.new is None:
                    self.store.remove(body.obj_id)
                elif body.old is None:
                    self.store.insert(body.obj_id, body.new)
                else:
                    self.store.move(body.obj_id, body.new)
            elif body.new is None:
                self.owned.pop(body.obj_id, None)
            else:
                self.owned[body.obj_id] = body.new
        except RangemonError:
            # a bad report is rejected alone and counted in the barrier; if
            # its insertion raised, the removal's LEAVEs still go out
            self.errors += 1
        if entered or left:
            # a query the object left in the old cell and entered in the
            # new one keeps it in its result: it gets nothing
            for q_id in entered - left:
                self._buffered(q_id)[0].append(body.obj_id)
            for q_id in left - entered:
                self._buffered(q_id)[1].append(body.obj_id)

    def _on_cell_search(self, body: CellSearch) -> None:
        """Search every listed cell (under ``ns``, every object this worker
        holds) and answer with one partial keyed by this worker's id."""
        # cells hold disjoint objects, so the ids are concatenated: an id
        # listed twice reaches the query worker's count check
        ids: list[int] = []
        if self.mode == "ns":
            ids.extend(ns_search(self.owned, body.circle, self.stats))
        elif self.mode == "gi":
            for cell_id, cov_value in body.entries:
                if cov_value == Coverage.FULL.value:
                    ids.extend(self.store.cells.get(cell_id, {}))
                else:
                    ids.extend(self.store.scan(cell_id, body.circle, self.stats))
        else:
            self.route_of[body.q_id] = body.query_worker
            cells = self.cells_of.setdefault(body.q_id, set())
            for cell_id, cov_value in body.entries:
                cells.add(cell_id)
                ids.extend(self.cell(cell_id).register(body.q_id, Coverage(cov_value), body.circle, self.stats))
        self.send(body.query_worker, PartialResult(body.q_id, self.id, tuple(sorted(ids))))

    def _on_query_move(self, body: QueryMove) -> None:
        q_id = body.q_id
        self.route_of[q_id] = body.query_worker
        owned = self.cells_of.setdefault(q_id, set())
        # cells hold disjoint objects, so the per-cell changes never cancel
        entered: set[int] = set()
        left: set[int] = set()
        for cell_id, old_val, new_val in body.transitions:
            new_cov = Coverage(new_val)
            add, remove = self.cell(cell_id).move_query(
                q_id, Coverage(old_val), new_cov, body.circle, self.stats,
            )
            entered |= add
            left |= remove
            if new_cov is Coverage.DISJOINT:
                owned.discard(cell_id)
            else:
                owned.add(cell_id)
        if entered or left:
            buffered_entered, buffered_left = self._buffered(q_id)
            buffered_entered += entered
            buffered_left += left
        if not owned:
            self.cells_of.pop(q_id, None)
            self.route_of.pop(q_id, None)

    def _on_expire(self, body: QueryExpire) -> None:
        for cell_id in sorted(self.cells_of.pop(body.q_id, set())):
            self.cells[cell_id].unregister_query(body.q_id)
        qw = self.route_of.pop(body.q_id, None)
        if qw is not None:
            # its buffered changes would only be dropped as late traffic
            self._outbox[qw].pop(body.q_id, None)

    def _on_barrier(self, body: TickBarrier) -> None:
        for qw in self.qw_ids:
            self.send(qw, TickBarrier(body.tick))
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
    search: the index workers whose partials are still awaited, and the
    set of those promised.

    Two counters check the invariant that, once a tick's traffic has
    drained, every count is exactly 1: LEAVEs that found no count, and
    the ids whose count is now 2 or more.  Either makes the query unready.
    """

    __slots__ = ("q_id", "counts", "pending", "expected", "stray_leaves", "duplicates")

    def __init__(self, q_id: int, keys: tuple[int, ...] = ()):
        self.q_id = q_id
        self.counts: Counter[int] = Counter()
        self.pending = set(keys)
        self.expected = frozenset(keys)
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
                del counts[obj_id]
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

    Messages travel on FIFO edges, but different edges interleave freely:
    a partial routed entrance -> index worker -> here can overtake the
    registration on the direct edge.  A query id names at most one
    registration per tick (the entrance turns a registration of a live id
    into a move, and rejects one of an id expired earlier in the tick), so
    traffic needs no tag beyond its query id.  A partial folds into its
    query's state while that state awaits partials; otherwise it is held,
    because a complete query's partial belongs to its next search (a
    ``gi``/``ns`` re-search).  A partial its awaiting state rejects (from a
    worker it was not promised, or a second from one that answered) is
    counted in the barrier's ``errors`` and dropped, so the fault stays in
    its tick.  A span folds into any state this worker
    holds, and is held if there is none.  A registration replays what was
    held for its id.  Traffic of an id expired this tick is dropped, and
    traffic still held once the tick's barriers are in is a fault: it is
    counted in the barrier's ``errors`` and dropped.

    Query moves never reach this worker: a cell the moved circle leaves
    loses its contribution by a RESULT_DELTA from the cell's owner.

    An index worker sends its deltas for this worker as one RESULT_DELTA
    just before its next other message on the edge (a partial or the
    tick's barrier): one span per query, with the ENTERs and LEAVEs since
    the last flush.  So a tick without registrations brings at most one
    frame per index worker.  A span's adds are folded before its removes.
    """

    def __init__(self, node_id: int, iw_ids: list[int]):
        super().__init__(node_id)
        self.queries: dict[int, QueryCounts] = {}
        self._stash: dict[int, list[Body]] = {}  # query id -> traffic held for its next state
        self._expired: set[int] = set()  # query ids expired this tick
        self._expected_barriers = {ENTRANCE} | set(iw_ids)
        self._got_barriers: set[int] = set()
        self.errors = 0  # partials rejected this tick

    def handle(self, msg: Message) -> None:
        body = msg.body
        if isinstance(body, QueryRegister):
            self.queries[body.q_id] = QueryCounts(body.q_id, body.keys)
            for held in self._stash.pop(body.q_id, []):
                self._consume(held)
        elif isinstance(body, (PartialResult, ResultDelta)):
            self._consume(body)
        elif isinstance(body, QueryExpire):
            self.queries.pop(body.q_id, None)
            self._expired.add(body.q_id)
        elif isinstance(body, TickBarrier):
            self._on_barrier(msg.sender, body)
        else:
            raise ValueError(f"query worker {self.id}: unexpected kind {body.kind!r}")

    def _consume(self, body: PartialResult | ResultDelta) -> None:
        if isinstance(body, PartialResult):
            state = self.queries.get(body.q_id)
            if state is not None and state.pending:
                try:
                    self.collect_partial(state, body.key, body.ids)
                except (DuplicatePartialError, UnexpectedPartialError):
                    self.errors += 1  # a faulty partial is dropped
            else:
                self._hold(body.q_id, body)
            return
        for q_id, add, remove in body.per_query():
            state = self.queries.get(q_id)
            if state is not None:
                state.apply_delta(add, remove)
            else:
                self._hold(q_id, ResultDelta.single(q_id, add, remove))

    def _hold(self, q_id: int, body: PartialResult | ResultDelta) -> None:
        """Keep traffic until the registration it belongs to lands; that
        of an id expired this tick is dropped."""
        if q_id not in self._expired:
            self._stash.setdefault(q_id, []).append(body)

    @staticmethod
    def collect_partial(state: QueryCounts, key: int, ids: tuple[int, ...]) -> None:
        """Merge one index worker's partial; the state is ready once the
        last awaited worker has answered."""
        if key not in state.expected:
            raise UnexpectedPartialError(f"query {state.q_id}: partial from unexpected index worker {key}")
        if key not in state.pending:
            raise DuplicatePartialError(f"query {state.q_id}: duplicate partial from index worker {key}")
        state.pending.remove(key)
        state.add_ids(ids)

    def _on_barrier(self, sender: int, body: TickBarrier) -> None:
        self._got_barriers.add(sender)
        if self._got_barriers != self._expected_barriers:
            return
        self._got_barriers = set()
        # every edge has drained: no late traffic is left, and what is
        # still held belongs to no registration
        self._expired.clear()
        errors = self.errors + sum(len(held) for held in self._stash.values())
        self.errors = 0
        self._stash.clear()
        ready = sum(1 for s in self.queries.values() if s.ready())
        digest = hashlib.sha256()
        for q_id in sorted(self.queries):
            digest.update(repr((q_id, sorted(self.queries[q_id].counts))).encode())
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
        self._hub: SocketHub | None = None
        self._endpoints: list[SocketEndpoint] = []
        if spec.transport == "loopback":
            transport = LoopbackTransport(policy=spec.loopback_policy, seed=spec.seed)
            for node_id, node in self._nodes.items():
                node.transport = transport
                transport.register(node_id, node.handle)
            transport.register(CLIENT, lambda msg: self._client_inbox.put(msg))
            self._transport = transport
            self._client_send = lambda body: transport.send(CLIENT, ENTRANCE, body)
        else:
            self._hub = SocketHub()
            self._hub.expect(len(self._nodes) + 1)
            for node_id, node in self._nodes.items():
                endpoint = SocketEndpoint(node_id, self._hub.address, node.handle)
                node.transport = endpoint
                self._endpoints.append(endpoint)
            client_ep = SocketEndpoint(CLIENT, self._hub.address, lambda msg: self._client_inbox.put(msg))
            self._endpoints.append(client_ep)
            self._hub.wait_ready()
            self._transport = None
            self._client_send = lambda body: client_ep.send(CLIENT, ENTRANCE, body)

    # -- driving ----------------------------------------------------------

    def run_tick(self, events: list[Body], timeout: float = 60.0) -> TickReport:
        self._tick += 1
        for event in events:
            self._client_send(event)
        self._client_send(TickBarrier(self._tick))
        if self._transport is not None:
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
        for endpoint in self._endpoints:
            endpoint.close()
        if self._hub is not None:
            self._hub.close()
