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
"""

from __future__ import annotations

import hashlib
import queue as queue_mod
import time
from collections import Counter, deque
from dataclasses import dataclass

from .baselines import GridStore, ns_search
from .cells import CellStore, Change, ObjectDelta
from .errors import (
    DuplicatePartialError,
    TransportError,
    UnexpectedCellError,
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
        self.assigned: dict[int, int] = {}
        self.load: dict[int, int] = {w: 0 for w in self.query_workers}
        self.recent: deque[tuple[frozenset, int]] = deque(maxlen=window)

    def route(self, q_id: int, gr: CandidateCells) -> int:
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
        self.assigned[q_id] = worker
        self.load[worker] += 1
        self.recent.append((cells, worker))
        return worker

    def release(self, q_id: int) -> None:
        worker = self.assigned.pop(q_id, None)
        if worker is not None:
            self.load[worker] -= 1


@dataclass
class TickReport:
    tick: int
    messages: int
    objects_processed: int
    queries_ready: int
    objects_examined: int
    results_digest: str

    def as_dict(self) -> dict:
        return {
            "tick": self.tick,
            "messages": self.messages,
            "objects_processed": self.objects_processed,
            "queries_ready": self.queries_ready,
            "objects_examined": self.objects_examined,
            "results_digest": self.results_digest,
        }


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
        # registration generation per query id; kept across expiry until
        # the tick drains, so a re-registration's traffic is never mistaken
        # for its predecessor's
        self._epochs: dict[int, int] = {}
        self._tick_had_updates = False
        self._moved: set[int] = set()  # gi/ns queries moved this tick
        self._tick = 0
        self._pending_acks: set[int] = set()
        self._totals = [0, 0, 0, 0]  # messages, objects, ready, examined
        self._digest = 0

    def owner(self, cell: CellId) -> int:
        return self.assignment[cell]

    def handle(self, msg: Message) -> None:
        body = msg.body
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

    # -- fan-out ---------------------------------------------------------

    def _dispatch_object(self, body: ObjectUpdate) -> None:
        self._tick_had_updates = True
        old_owner = self.owner(self.grid.locate(body.old)) if body.old is not None else None
        new_owner = self.owner(self.grid.locate(body.new)) if body.new is not None else None
        if old_owner is not None and old_owner == new_owner:
            self.send(old_owner, body)
            return
        if old_owner is not None:
            self.send(old_owner, ObjectUpdate(body.obj_id, body.old, None))
        if new_owner is not None:
            self.send(new_owner, ObjectUpdate(body.obj_id, None, body.new))

    def _search_fanout(
        self, q_id: int, circle: Circle, gr: CandidateCells, qw: int, epoch: int
    ) -> list[CellId]:
        """CELL_SEARCH to every index worker owning a candidate cell; returns
        the pending keys the query worker must collect."""
        if self.mode == "ns":
            for iw in self.iw_ids:
                self.send(iw, CellSearch(q_id, circle, (), qw, scan_all=True, epoch=epoch))
            return [CellId(-1, iw) for iw in self.iw_ids]
        by_owner: dict[int, list[tuple[CellId, int]]] = {}
        for cell in sorted(gr.full):
            by_owner.setdefault(self.owner(cell), []).append((cell, Coverage.FULL.value))
        for cell in sorted(gr.partial):
            by_owner.setdefault(self.owner(cell), []).append((cell, Coverage.PARTIAL.value))
        for iw in sorted(by_owner):
            self.send(iw, CellSearch(q_id, circle, tuple(sorted(by_owner[iw])), qw, epoch=epoch))
        return sorted(gr.all_cells())

    def _register_message(self, body: QueryRegister, gr: CandidateCells, qw: int) -> None:
        epoch = self._epochs.get(body.q_id, 0) + 1
        self._epochs[body.q_id] = epoch
        keys = self._search_fanout(body.q_id, body.circle, gr, qw, epoch)
        self.send(qw, QueryRegister(body.q_id, body.circle, body.t_start, body.t_end, tuple(keys), epoch))

    def _dispatch_register(self, body: QueryRegister) -> None:
        if body.q_id in self.registry:
            # a registration of a live query replaces it: expire it first,
            # so the old circle's cells drop their registrations before the
            # new fan-out and the routing table counts the query once
            self._dispatch_expire(QueryExpire(body.q_id))
        gr = self.grid.candidate_cells(body.circle)
        qw = self.routing.route(body.q_id, gr)
        self.registry[body.q_id] = (body.circle, gr, qw)
        self._register_message(body, gr, qw)

    def _dispatch_move(self, body: QueryMove) -> None:
        circle_old, gr_old, qw = self.registry[body.q_id]
        gr_new = self.grid.candidate_cells(body.circle)
        self.registry[body.q_id] = (body.circle, gr_new, qw)
        if self.mode != "drqa":
            self._moved.add(body.q_id)  # re-searched in the barrier wave
            return
        by_owner: dict[int, list[tuple[CellId, int, int]]] = {}
        for cell in sorted(gr_old.all_cells() | gr_new.all_cells()):
            old_cov = gr_old.coverage_of(cell)
            new_cov = gr_new.coverage_of(cell)
            by_owner.setdefault(self.owner(cell), []).append((cell, old_cov.value, new_cov.value))
        for iw in sorted(by_owner):
            self.send(iw, QueryMove(body.q_id, body.circle, tuple(by_owner[iw]), qw, self._epochs[body.q_id]))

    def _dispatch_expire(self, body: QueryExpire) -> None:
        entry = self.registry.pop(body.q_id, None)
        if entry is None:
            return
        _, gr, qw = entry
        self.routing.release(body.q_id)
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
                # only the moved queries need a fresh search
                todo = self.registry.keys() if self._tick_had_updates else self._moved & self.registry.keys()
                for q_id in sorted(todo):
                    circle, gr, qw = self.registry[q_id]
                    self._register_message(QueryRegister(q_id, circle, 0, 2**62), gr, qw)
            self._tick_had_updates = False
            self._moved = set()
            self._pending_acks = set(self.iw_ids) | set(self.qw_ids)
            self._totals = [0, 0, 0, 0]
            self._digest = 0
            for iw in self.iw_ids:
                self.send(iw, TickBarrier(self._tick))
            for qw in self.qw_ids:
                self.send(qw, TickBarrier(self._tick))
            return
        self._pending_acks.discard(sender)
        self._totals[0] += body.messages
        self._totals[1] += body.objects
        self._totals[2] += body.ready
        self._totals[3] += body.examined
        if body.digest:
            self._digest ^= int.from_bytes(body.digest, "big")
        if not self._pending_acks:
            # every edge has drained: no expired registration's traffic is
            # left in flight, so its epoch need not be remembered
            if len(self._epochs) > len(self.registry):
                self._epochs = {q_id: self._epochs[q_id] for q_id in self.registry}
            messages = self._totals[0] + self.sent_messages
            self.sent_messages = 0
            self.send(CLIENT, TickBarrier(
                self._tick, messages, self._totals[1], self._totals[2], self._totals[3],
                self._digest.to_bytes(32, "big"),
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
        # drqa: query id -> (its query worker, its registration epoch)
        self.route_of: dict[int, tuple[int, int]] = {}
        self.cells_of: dict[int, set[CellId]] = {}

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
        if self.mode == "drqa":
            net: ObjectDelta = []
            try:
                for _, delta in self.move_object(body.obj_id, body.old, body.new):
                    if not delta:
                        continue
                    if net:
                        # the old cell's LEAVEs, then the new cell's ENTERs:
                        # a query in both keeps the object in its result
                        both = {entry.q_id for entry in net} & {entry.q_id for entry in delta}
                        net = [entry for entry in net + delta if entry.q_id not in both]
                    else:
                        net = delta
            finally:
                # if the insertion raised, the removal's LEAVEs still go out
                if net:
                    self._emit_deltas(net)
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

    def _emit_deltas(self, delta: ObjectDelta) -> None:
        # a netted delta of one object report holds each query at most
        # once, so the entries sort by query id
        for q_id, obj_id, change in sorted(delta):
            add, remove = ((obj_id,), ()) if change is Change.ENTER else ((), (obj_id,))
            qw, epoch = self.route_of[q_id]
            self.send(qw, ResultDelta(q_id, add, remove, epoch))

    def _on_cell_search(self, body: CellSearch) -> None:
        if body.scan_all:
            ids = ns_search(self.owned, body.circle, self.stats)
            self.send(body.query_worker, PartialResult(
                body.q_id, CellId(-1, self.id), tuple(sorted(ids)), body.epoch,
            ))
            return
        for cell_id, cov_value in body.entries:
            cov = Coverage(cov_value)
            if self.mode == "gi":
                if cov is Coverage.FULL:
                    ids = self.store.cells.get(cell_id, {}).keys()
                else:
                    ids = self.store.scan(cell_id, body.circle, self.stats)
            else:
                cell = self.cell(cell_id)
                cell.unregister_query(body.q_id)  # re-registration replaces
                self.route_of[body.q_id] = (body.query_worker, body.epoch)
                self.cells_of.setdefault(body.q_id, set()).add(cell_id)
                ids = cell.register(body.q_id, cov, body.circle, self.stats)
            self.send(body.query_worker, PartialResult(
                body.q_id, cell_id, tuple(sorted(ids)), body.epoch,
            ))

    def _on_query_move(self, body: QueryMove) -> None:
        q_id = body.q_id
        self.route_of[q_id] = (body.query_worker, body.epoch)
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
            self.send(body.query_worker, ResultDelta(
                q_id, tuple(sorted(entered)), tuple(sorted(left)), body.epoch,
            ))
        if not owned:
            self.cells_of.pop(q_id, None)
            self.route_of.pop(q_id, None)

    def _on_expire(self, body: QueryExpire) -> None:
        for cell_id in sorted(self.cells_of.pop(body.q_id, set())):
            self.cells[cell_id].unregister_query(body.q_id)
        self.route_of.pop(body.q_id, None)

    def _on_barrier(self, body: TickBarrier) -> None:
        for qw in self.qw_ids:
            self.send(qw, TickBarrier(body.tick))
        self.send(ENTRANCE, TickBarrier(
            body.tick,
            messages=self.sent_messages,
            objects=self.objects_processed,
            examined=self.stats.objects_examined,
        ))
        self.sent_messages = 0
        self.objects_processed = 0
        self.stats = SearchStats()


class QueryCounts:
    """One query's result on its query worker: for each object id, the
    number of cells currently reporting it.  An id is in the result while
    its count is positive; zero counts are deleted, so the result is the
    key set.  Also the collection bookkeeping of the registration: keys
    still awaited, the key set promised, and the epoch partials must match.

    Two counters check the invariant that, once a tick's traffic has
    drained, every count is exactly 1: LEAVEs that found no count, and
    the ids whose count is now 2 or more.  Either makes the query unready.
    """

    __slots__ = ("q_id", "counts", "pending", "expected", "epoch", "stray_leaves", "duplicates")

    def __init__(self, q_id: int, keys: tuple = (), epoch: int = 0):
        self.q_id = q_id
        self.counts: Counter[int] = Counter()
        self.pending = set(keys)
        self.expected = frozenset(keys)
        self.epoch = epoch
        self.stray_leaves = 0
        self.duplicates = 0

    @property
    def result(self) -> set[int]:
        return set(self.counts)

    def ready(self) -> bool:
        return not (self.pending or self.stray_leaves or self.duplicates)

    def add_ids(self, ids: tuple[int, ...]) -> None:
        """Count one cell's sub-result (distinct ids) in one C-level pass.
        Ids new to the query, the common case, each add one key."""
        counts = self.counts
        before = len(counts)
        counts.update(ids)
        if len(counts) - before != len(ids):
            # some ids were counted already: those now at 2 were at 1
            self.duplicates += sum(1 for obj_id in ids if counts[obj_id] == 2)

    def apply_delta(self, add: tuple[int, ...], remove: tuple[int, ...]) -> None:
        counts = self.counts
        for obj_id in add:
            n = counts.get(obj_id, 0) + 1
            counts[obj_id] = n
            if n == 2:
                self.duplicates += 1
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
    report per query before sending, so a move between two cells of one
    owner that both report to a query sends nothing.

    Messages travel on FIFO edges, but different edges interleave freely:
    a partial routed entrance -> index worker -> here can overtake the
    registration on the direct edge.  Partials and deltas carry the epoch
    of the registration they belong to: early arrivals are stashed until
    that registration lands, and traffic of an expired or replaced
    registration is dropped.

    Query moves never reach this worker: a cell the moved circle leaves
    loses its contribution by a RESULT_DELTA from the cell's owner.
    """

    def __init__(self, node_id: int, iw_ids: list[int]):
        super().__init__(node_id)
        self.queries: dict[int, QueryCounts] = {}
        self._stash: dict[int, list[Body]] = {}
        self._expired: dict[int, int] = {}  # query id -> epoch it expired at this tick
        self._expected_barriers = {ENTRANCE} | set(iw_ids)
        self._got_barriers: set[int] = set()

    def handle(self, msg: Message) -> None:
        body = msg.body
        if isinstance(body, QueryRegister):
            self.queries[body.q_id] = QueryCounts(body.q_id, body.keys, body.epoch)
            self._expired.pop(body.q_id, None)
            for stashed in self._stash.pop(body.q_id, []):
                self._consume(stashed)
        elif isinstance(body, (PartialResult, ResultDelta)):
            self._consume(body)
        elif isinstance(body, QueryExpire):
            # the stash keeps only a later registration's traffic, which
            # can overtake this expiry; that registration will replay it
            state = self.queries.pop(body.q_id, None)
            if state is not None:
                self._expired[body.q_id] = state.epoch
        elif isinstance(body, TickBarrier):
            self._on_barrier(msg.sender, body)
        else:
            raise ValueError(f"query worker {self.id}: unexpected kind {body.kind!r}")

    def _consume(self, body: PartialResult | ResultDelta) -> None:
        state = self.queries.get(body.q_id)
        if state is None:
            if body.epoch > self._expired.get(body.q_id, 0):
                self._stash.setdefault(body.q_id, []).append(body)
            return  # otherwise late traffic of an expired registration
        if body.epoch > state.epoch:
            self._stash.setdefault(body.q_id, []).append(body)
        elif body.epoch < state.epoch:
            return  # late traffic of a replaced registration
        elif isinstance(body, PartialResult):
            self.collect_partial(state, body.key, body.ids)
        else:
            state.apply_delta(body.add, body.remove)

    @staticmethod
    def collect_partial(state: QueryCounts, key: CellId, ids: tuple[int, ...]) -> None:
        """Merge one cell's sub-result; the state is ready once the last
        awaited cell has arrived."""
        if key not in state.expected:
            raise UnexpectedCellError(f"query {state.q_id}: partial for unexpected key {key}")
        if key not in state.pending:
            raise DuplicatePartialError(f"query {state.q_id}: duplicate partial for {key}")
        state.pending.remove(key)
        state.add_ids(ids)

    def _on_barrier(self, sender: int, body: TickBarrier) -> None:
        self._got_barriers.add(sender)
        if self._got_barriers != self._expected_barriers:
            return
        self._got_barriers = set()
        self._expired.clear()  # every edge has drained: no late traffic is left
        ready = sum(1 for s in self.queries.values() if s.ready())
        digest = hashlib.sha256()
        for q_id in sorted(self.queries):
            digest.update(repr((q_id, sorted(self.queries[q_id].counts))).encode())
        self.send(ENTRANCE, TickBarrier(
            body.tick, messages=self.sent_messages, ready=ready,
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
