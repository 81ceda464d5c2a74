import hashlib
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from rangemon.baselines import ns_search
from rangemon.cells import CellDelta
from rangemon.cluster import (
    CLIENT,
    ENGINE_MODES,
    ENTRANCE,
    Cluster,
    ClusterSpec,
    EntranceWorker,
    IndexWorker,
    QueryCounts,
    RoutingTable,
)
from rangemon.geometry import Circle, Coverage, Point
from rangemon.grid import CandidateCells, CellId, GridIndex
from rangemon.cluster import QueryWorker
from rangemon.config import Config
from rangemon.errors import OutOfDomainError
from rangemon.transport import LoopbackTransport
from rangemon.workload import Workload, WorkloadSpec
from rangemon.wire import (
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


def single_span(q_id, add=(), remove=()):
    """A RESULT_DELTA frame with one span, for injecting a query's changes."""
    return ResultDelta(((q_id, len(add), len(remove)),), add, remove)


def gr_of(*cells):
    return CandidateCells(set(), {CellId(*c) for c in cells})


def test_routing_threshold_at_jaccard_one_third():
    # |{01} | / |{00, 01, 02}| = 1/3: similar enough at 0.3, not at 0.4
    a = gr_of((0, 0), (0, 1))
    b = gr_of((0, 1), (0, 2))
    for threshold, expected in ((0.3, 10), (0.4, 11)):
        rt = RoutingTable([10, 11], threshold=threshold)
        assert rt.route(a) == 10
        assert rt.route(b) == expected


def test_routing_similarity_and_load():
    rt = RoutingTable([10, 11], threshold=0.5)
    w1 = rt.route(gr_of((0, 0), (0, 1)))
    assert w1 == 10  # least loaded, lowest id
    w2 = rt.route(gr_of((0, 0), (0, 1)))
    assert w2 == w1  # identical candidate set -> same worker
    w3 = rt.route(gr_of((9, 9)))
    assert w3 == 11  # disjoint -> load balance
    rt.release(w1)
    rt.release(w2)
    assert rt.route(gr_of((5, 5))) == 10


def test_routing_no_workers():
    rt = RoutingTable([], threshold=0.5)
    with pytest.raises(ValueError):
        rt.route(gr_of((0, 0)))


class WindowScanRouting:
    """The reference for RoutingTable: the same routing as one jaccard
    computation against every entry of the window."""

    def __init__(self, query_workers, threshold, window):
        self.query_workers = list(query_workers)
        self.threshold = threshold
        self.load = {w: 0 for w in self.query_workers}
        self.recent = deque(maxlen=window)

    def route(self, gr):
        cells = frozenset(gr.all_cells())
        best = None
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

    def release(self, worker):
        self.load[worker] -= 1


cell_sets = st.frozensets(st.builds(CellId, st.integers(0, 3), st.integers(0, 3)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    window=st.integers(1, 16),
    threshold=st.sampled_from([0.0, 1 / 3, 0.5, 0.9, 1.0]),
    n_workers=st.integers(1, 3),
    data=st.data(),
)
def test_routing_index_matches_a_window_scan(window, threshold, n_workers, data):
    workers = [10 + w for w in range(n_workers)]
    table = RoutingTable(workers, threshold, window=window)
    reference = WindowScanRouting(workers, threshold, window)
    seen = [frozenset()]  # candidate sets routed so far, and the empty one
    routed = []  # workers routed and not yet released
    for _ in range(data.draw(st.integers(1, 60), label="calls")):
        op = data.draw(st.sampled_from(["new", "repeat", "release"]), label="op")
        if op == "release" and routed:
            worker = routed.pop(data.draw(st.integers(0, len(routed) - 1), label="released"))
            table.release(worker)
            reference.release(worker)
        else:
            if op == "repeat":
                cells = data.draw(st.sampled_from(seen), label="repeated")
            else:
                cells = data.draw(cell_sets, label="cells")
                seen.append(cells)
            full = data.draw(st.sets(st.sampled_from(sorted(cells))), label="full") if cells else set()
            gr = CandidateCells(set(full), set(cells) - full)
            worker = table.route(gr)
            assert worker == reference.route(gr)
            routed.append(worker)
        assert table.load == reference.load


def test_nan_jaccard_threshold_is_rejected(tmp_path):
    # sim < NaN is always False, so a NaN threshold would admit every entry
    with pytest.raises(ValueError):
        ClusterSpec(jaccard_threshold=float("nan"))
    p = tmp_path / "c.conf"
    p.write_text("routing.jaccard_threshold = nan\n")
    with pytest.raises(ValueError):
        Config.load(p).cluster_spec()


def test_collect_partial_protocol():
    # a partial from an awaited worker is merged; a second one from a
    # worker that answered, or one from a worker never promised, is refused
    # and changes nothing
    keys = (2, 3, 4)  # the index workers a registration was fanned out to
    state = QueryCounts(1, keys)
    assert QueryWorker.collect_partial(state, keys[0], (1, 2))
    assert QueryWorker.collect_partial(state, keys[1], (3,))
    assert not state.ready()
    assert not QueryWorker.collect_partial(state, keys[0], (1, 2))
    assert not QueryWorker.collect_partial(state, 9, (5,))
    assert state.pending == {keys[2]} and state.result == {1, 2, 3}
    assert QueryWorker.collect_partial(state, keys[2], (4,))
    assert state.ready() and state.result == {1, 2, 3, 4}


def make_cluster(**kw):
    defaults = dict(grid_n=10, index_workers=3, query_workers=2, alpha=6, m=4)
    defaults.update(kw)
    return Cluster(ClusterSpec(**defaults))


def seed_events(rng, count):
    positions = {i: Point(rng.random(), rng.random()) for i in range(count)}
    return positions, [ObjectUpdate(o, None, p) for o, p in positions.items()]


def test_empty_tick_sends_no_messages():
    cluster = make_cluster()
    report = cluster.run_tick([])
    assert report.messages == 0
    assert report.objects_processed == 0


def test_dispatch_counts_for_object_updates():
    # each report becomes one part (two across owners) of its owners'
    # frames, carrying the cells the entrance located
    cluster = make_cluster()  # 10x10 grid; row-major cells 0-33, 34-66, 67-99 per owner
    first, last = cluster.iw_ids[0], cluster.iw_ids[-1]
    trace = []
    cluster._transport.trace = trace

    def fanned():
        out = {m.receiver: m.body.parts for m in trace
               if m.sender == ENTRANCE and isinstance(m.body, ObjectBatch)}
        del trace[:]
        return out

    a, b, c, d = Point(0.05, 0.05), Point(0.051, 0.051), Point(0.15, 0.25), Point(0.95, 0.95)
    cluster.run_tick([ObjectUpdate(1, None, a)])
    assert fanned() == {first: ((1, None, None, a, CellId(0, 0)),)}
    # within one cell: one part with both sides in that cell
    cluster.run_tick([ObjectUpdate(1, a, b)])
    assert fanned() == {first: ((1, a, CellId(0, 0), b, CellId(0, 0)),)}
    # across cells of one owner: still one part, with both cells
    cluster.run_tick([ObjectUpdate(1, b, c)])
    assert fanned() == {first: ((1, b, CellId(0, 0), c, CellId(2, 1)),)}
    # across owners: the removal to the old owner, the insertion to the new
    cluster.run_tick([ObjectUpdate(1, c, d)])
    assert fanned() == {first: ((1, c, CellId(2, 1), None, None),),
                        last: ((1, None, None, d, CellId(9, 9)),)}
    assert cluster.run_tick([]).errors == 0
    assert cluster.index_workers[-1].cell(CellId(9, 9)).objects == {1: d}


def test_query_fanout_spans_workers():
    cluster = make_cluster(grid_n=10, index_workers=5)
    trace = []
    cluster._transport.trace = trace
    # a vertical stripe of cells crosses several row-major blocks
    circle = Circle(Point(0.55, 0.5), 0.35)
    gr = cluster.grid.candidate_cells(circle)
    owners = {cluster.entrance.owner(c) for c in gr.all_cells()}
    cluster.run_tick([QueryRegister(1, circle, 0, 100)])
    searches = [m for m in trace if isinstance(m.body, CellSearch)]
    registers = [m for m in trace if isinstance(m.body, QueryRegister) and m.sender == 1]
    assert len(searches) == len(owners)
    assert len(registers) == 1
    listed = [cell for m in searches for cell, _ in m.body.entries]
    assert sorted(listed) == sorted(gr.all_cells())


def test_cluster_matches_oracle_loopback():
    rng = random.Random(1)
    cluster = make_cluster()
    positions, events = seed_events(rng, 2000)
    cluster.run_tick(events)
    queries = {}
    regs = []
    for q in range(20):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.03, 0.2))
        queries[q] = c
        regs.append(QueryRegister(q, c, 0, 100))
    report = cluster.run_tick(regs)
    assert report.queries_ready == 20
    for q, c in queries.items():
        assert cluster.query_result(q) == ns_search(positions, c)
    # now move objects for a few ticks and check every query stays exact
    for _ in range(5):
        updates = []
        for obj in rng.sample(sorted(positions), 300):
            old = positions[obj]
            new = Point(rng.random(), rng.random())
            positions[obj] = new
            updates.append(ObjectUpdate(obj, old, new))
        cluster.run_tick(updates)
        for q, c in queries.items():
            assert cluster.query_result(q) == ns_search(positions, c)


def test_cluster_query_moves_match_oracle():
    rng = random.Random(2)
    cluster = make_cluster()
    positions, events = seed_events(rng, 3000)
    cluster.run_tick(events)
    circles = {}
    regs = []
    for q in range(10):
        c = Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.15))
        circles[q] = c
        regs.append(QueryRegister(q, c, 0, 100))
    cluster.run_tick(regs)
    for _ in range(8):
        moves = []
        for q in circles:
            c = circles[q]
            nc = Circle(
                Point(min(max(c.center.x + rng.uniform(-0.1, 0.1), 0.0), 1.0),
                      min(max(c.center.y + rng.uniform(-0.1, 0.1), 0.0), 1.0)),
                c.radius,
            )
            circles[q] = nc
            moves.append(QueryMove(q, nc))
        updates = []
        for obj in rng.sample(sorted(positions), 200):
            old = positions[obj]
            new = Point(rng.random(), rng.random())
            positions[obj] = new
            updates.append(ObjectUpdate(obj, old, new))
        cluster.run_tick(list(updates) + moves)
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), f"query {q}"


def test_expiry_stops_deltas_and_partials():
    rng = random.Random(3)
    cluster = make_cluster()
    positions, events = seed_events(rng, 500)
    cluster.run_tick(events)
    cluster.run_tick([QueryRegister(1, Circle(Point(0.5, 0.5), 0.2), 0, 2)])
    assert cluster.query_result(1) is not None
    assert any(1 in node.queries for iw in cluster.index_workers for cell in iw.cells.values()
               if cell.tree is not None for node in cell.tree.nodes())
    cluster.run_tick([QueryExpire(1)])
    assert cluster.query_result(1) is None
    trace = []
    cluster._transport.trace = trace
    updates = []
    for obj in list(positions)[:200]:
        old = positions[obj]
        new = Point(rng.random(), rng.random())
        positions[obj] = new
        updates.append(ObjectUpdate(obj, old, new))
    cluster.run_tick(updates)
    from rangemon.wire import PartialResult, ResultDelta
    assert not any(isinstance(m.body, (PartialResult, ResultDelta)) for m in trace)
    # index workers hold no leftover registrations, down to the tree nodes
    for iw in cluster.index_workers:
        assert iw.cells_of == {}
        for cell in iw.cells.values():
            assert not cell.full_queries and not cell.partial_queries
            if cell.tree is not None:
                assert not any(1 in node.queries for node in cell.tree.nodes())


def test_per_query_id_state_is_bounded_by_live_queries():
    # 200 distinct ids registered and expired over several ticks; once
    # each tick has drained, the entrance, index workers and query workers
    # keep per-id state only for the live queries
    for mode in ("drqa", "gi"):
        rng = random.Random(19)
        cluster = make_cluster(engine=mode)
        positions, events = seed_events(rng, 800)
        cluster.run_tick(events)
        circles = {}
        for tick in range(5):
            events = random_moves(rng, positions, 100)
            for q in sorted(circles)[:20]:
                del circles[q]
                events.append(QueryExpire(q))
            for q in range(40 * tick, 40 * tick + 40):
                circles[q] = Circle(Point(rng.random(), rng.random()), 0.1)
                events.append(QueryRegister(q, circles[q], 0, 100))
                if q % 4 == 0:  # registered and expired within the tick
                    del circles[q]
                    events.append(QueryExpire(q))
            report = cluster.run_tick(events)
            assert report.queries_ready == len(circles), (mode, tick)
            assert cluster.entrance.registry.keys() == circles.keys(), (mode, tick)
            assert not cluster.entrance._expired, (mode, tick)
            for iw in cluster.index_workers:
                assert iw.route_of.keys() <= circles.keys() and iw.cells_of.keys() <= circles.keys(), (mode, tick)
                assert not any(iw._outbox.values()), (mode, tick)
            assert all(not qw._stash for qw in cluster.query_workers), (mode, tick)
        # an id expired in an earlier tick registers afresh
        circles[0] = Circle(Point(0.5, 0.5), 0.2)
        cluster.run_tick([QueryRegister(0, circles[0], 0, 100)] + random_moves(rng, positions, 100))
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def test_partial_results_once_per_worker_per_registration():
    for mode in ("drqa", "gi", "ns"):
        rng = random.Random(4)
        cluster = make_cluster(engine=mode)
        positions, events = seed_events(rng, 1000)
        cluster.run_tick(events)
        trace = []
        cluster._transport.trace = trace
        c = Circle(Point(0.4, 0.6), 0.22)
        cluster.run_tick([QueryRegister(7, c, 0, 100)])
        searches = {m.receiver: m.body for m in trace if isinstance(m.body, CellSearch)}
        partials = [m for m in trace if isinstance(m.body, PartialResult)]
        (register,) = [m.body for m in trace if isinstance(m.body, QueryRegister) and m.sender == ENTRANCE]
        # each CELL_SEARCH receiver answers once, keyed by its own id
        assert sorted(m.sender for m in partials) == sorted(searches), mode
        assert all(m.body.key == m.sender for m in partials), mode
        assert register.keys == tuple(sorted(searches)), mode
        if mode == "ns":
            assert sorted(searches) == cluster.iw_ids
        for m in partials:
            if mode == "ns":
                mine = {o: p for o, p in positions.items()
                        if cluster.entrance.owner(cluster.grid.locate(p)) == m.sender}
            else:
                listed = {cell for cell, _ in searches[m.sender].entries}
                mine = {o: p for o, p in positions.items() if cluster.grid.locate(p) in listed}
            assert m.body.ids == tuple(sorted(ns_search(mine, c))), (mode, m.sender)
        assert cluster.query_result(7) == ns_search(positions, c), mode


def test_routing_invariance_of_results():
    rng = random.Random(5)
    results = {}
    for threshold in (0.0, 1.0):
        cluster = make_cluster(jaccard_threshold=threshold, query_workers=3)
        positions, events = seed_events(random.Random(50), 1500)
        cluster.run_tick(events)
        regs = [
            QueryRegister(q, Circle(Point(0.3 + 0.04 * q, 0.5), 0.1), 0, 100)
            for q in range(8)
        ]
        cluster.run_tick(regs)
        results[threshold] = cluster.results()
    assert results[0.0] == results[1.0]


def test_loopback_determinism_full_trace():
    def run():
        rng = random.Random(6)
        cluster = make_cluster()
        positions, events = seed_events(rng, 800)
        reports = [cluster.run_tick(events)]
        regs = [QueryRegister(q, Circle(Point(rng.random(), rng.random()), 0.1), 0, 100)
                for q in range(10)]
        reports.append(cluster.run_tick(regs))
        for _ in range(3):
            updates = []
            for obj in rng.sample(sorted(positions), 100):
                old = positions[obj]
                new = Point(rng.random(), rng.random())
                positions[obj] = new
                updates.append(ObjectUpdate(obj, old, new))
            reports.append(cluster.run_tick(updates))
        return [r.as_dict() for r in reports]

    assert run() == run()


def test_random_scheduling_same_results():
    outcomes = []
    for seed in (1, 2, 3):
        cluster = make_cluster(loopback_policy="random", seed=seed)
        rng = random.Random(7)
        positions, events = seed_events(rng, 600)
        cluster.run_tick(events)
        regs = [QueryRegister(q, Circle(Point(rng.random(), rng.random()), 0.12), 0, 100)
                for q in range(6)]
        report = cluster.run_tick(regs)
        outcomes.append((report.results_digest, report.messages, cluster.results()))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_seq_numbers_strictly_increase():
    cluster = make_cluster()
    trace = []
    cluster._transport.trace = trace
    rng = random.Random(8)
    _, events = seed_events(rng, 300)
    cluster.run_tick(events)
    cluster.run_tick([QueryRegister(1, Circle(Point(0.5, 0.5), 0.2), 0, 100)])
    last: dict[tuple[int, int], int] = {}
    for msg in trace:
        edge = (msg.sender, msg.receiver)
        assert msg.seq > last.get(edge, 0)
        last[edge] = msg.seq


def relay_run(policy, seed=0):
    """Nodes 1-3 on one loopback record every delivery; node 2 answers each
    message below tick 100 from inside its handler with tick+100 to node 3
    and tick+200 to node 1.  Returns (messages in send order, deliveries)."""
    transport = LoopbackTransport(policy=policy, seed=seed)
    transport.trace = []
    delivered = []

    def handler(node):
        def handle(msg):
            delivered.append(msg)
            if node == 2 and msg.body.tick < 100:
                transport.send(2, 3, TickBarrier(msg.body.tick + 100))
                transport.send(2, 1, TickBarrier(msg.body.tick + 200))
        return handle

    for node in (1, 2, 3):
        transport.register(node, handler(node))
    for tick, (sender, receiver) in enumerate([(1, 2), (3, 2), (1, 3), (1, 2), (3, 1), (3, 2)], 1):
        transport.send(sender, receiver, TickBarrier(tick))
    assert transport.pump() == len(delivered)
    return transport.trace, delivered


def test_fifo_delivers_in_global_send_order():
    sent, delivered = relay_run("fifo")
    assert delivered == sent
    # draining one edge at a time would deliver tick 4 (edge 1->2) before
    # tick 2 (edge 3->2); replies sent inside handlers queue behind both
    assert [m.body.tick for m in delivered] == [1, 2, 3, 4, 5, 6, 101, 201, 102, 202, 104, 204, 106, 206]


def test_random_policy_keeps_per_edge_fifo_at_delivery():
    orders = set()
    for seed in range(20):
        sent, delivered = relay_run("random", seed)
        assert len(delivered) == len(sent) == 14
        for edge in {(m.sender, m.receiver) for m in sent}:
            on_edge = [m for m in sent if (m.sender, m.receiver) == edge]
            assert [m for m in delivered if (m.sender, m.receiver) == edge] == on_edge
        orders.add(tuple(m.body.tick for m in delivered))
    assert len(orders) > 1  # the interleaving of edges does vary


def test_gi_and_ns_modes_match_oracle():
    for mode in ("gi", "ns"):
        rng = random.Random(9)
        cluster = make_cluster(engine=mode)
        positions, events = seed_events(rng, 1200)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(6)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)
        # object updates refresh results through per-tick re-search
        updates = []
        for obj in rng.sample(sorted(positions), 300):
            old = positions[obj]
            new = Point(rng.random(), rng.random())
            positions[obj] = new
            updates.append(ObjectUpdate(obj, old, new))
        cluster.run_tick(updates)
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)
        # moved query: treated as a fresh search
        moved = Circle(Point(0.2, 0.8), 0.15)
        circles[0] = moved
        cluster.run_tick([QueryMove(0, moved)])
        assert cluster.query_result(0) == ns_search(positions, moved)


def test_drqa_query_move_reaches_only_cell_owners():
    rng = random.Random(11)
    cluster = make_cluster(index_workers=5)
    positions, events = seed_events(rng, 800)
    cluster.run_tick(events)
    old = Circle(Point(0.3, 0.3), 0.15)
    cluster.run_tick([QueryRegister(1, old, 0, 100)])
    trace = []
    cluster._transport.trace = trace
    new = Circle(Point(0.6, 0.6), 0.15)
    cluster.run_tick([QueryMove(1, new)])
    touched = cluster.grid.candidate_cells(old).all_cells() | cluster.grid.candidate_cells(new).all_cells()
    receivers = [m.receiver for m in trace if isinstance(m.body, QueryMove) and m.sender == ENTRANCE]
    assert sorted(receivers) == sorted({cluster.entrance.owner(c) for c in touched})
    assert cluster.query_result(1) == ns_search(positions, new)
    qw = cluster.query_workers[0]
    with pytest.raises(ValueError):
        qw.handle(Message(ENTRANCE, qw.id, 0, QueryMove(1, new)))


def test_query_move_omits_cells_full_under_both_circles():
    # five index workers own two grid rows each.  Two queries move by a
    # little: one covers rows 4-5 (index worker 4's cells) fully before and
    # after, one covers the whole domain before and after.  No QUERY_MOVE
    # lists a (FULL, FULL) cell, worker 4 gets none for the first query,
    # and the second query sends no QUERY_MOVE at all
    rng = random.Random(31)
    cluster = make_cluster(index_workers=5)
    positions, events = seed_events(rng, 800)
    cluster.run_tick(events)
    circles = {1: Circle(Point(0.5, 0.5), 0.6), 2: Circle(Point(0.5, 0.5), 0.8)}
    cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
    trace = []
    cluster._transport.trace = trace
    moved = {1: Circle(Point(0.52, 0.5), 0.6), 2: Circle(Point(0.51, 0.49), 0.8)}
    covered_rows = {CellId(row, col) for row in (4, 5) for col in range(10)}
    both_full = {q: cluster.grid.candidate_cells(circles[q]).full & cluster.grid.candidate_cells(c).full
                 for q, c in moved.items()}
    assert covered_rows <= both_full[1] != set(cluster.grid.cells())
    assert both_full[2] == set(cluster.grid.cells())
    cluster.run_tick([QueryMove(q, c) for q, c in moved.items()])
    sent = [m for m in trace if isinstance(m.body, QueryMove) and m.sender == ENTRANCE]
    assert sent and all(m.body.q_id == 1 for m in sent)
    assert sorted(m.receiver for m in sent) == [2, 3, 5, 6]
    full = Coverage.FULL.value
    assert not any((old, new) == (full, full) for m in sent for _, old, new in m.body.transitions)
    for q, c in moved.items():
        assert cluster.query_result(q) == ns_search(positions, c)
    cluster.run_tick([QueryExpire(q) for q in moved])
    for iw in cluster.index_workers:
        assert iw.cells_of == {} and iw.route_of == {}
        for cell in iw.cells.values():
            assert not cell.full_queries and not cell.partial_queries


def test_query_moves_carry_the_per_cell_reference_transitions():
    # seeded random moves of six queries on a grid whose five index workers
    # own two rows each, with circles clipped at the domain edge and live
    # ids registered again at a new radius.  Each query's QUERY_MOVEs are
    # the per-cell transitions from its held to its final CandidateCells,
    # grouped by owner: each owner's list sorted, non-empty, and without a
    # cell that both circles cover fully
    rng = random.Random(41)
    cluster = make_cluster(index_workers=5)
    grid = cluster.grid
    positions, events = seed_events(rng, 600)
    cluster.run_tick(events)
    circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.02, 0.3)) for q in range(6)}
    cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])

    def cov_value(gr, cell):
        cov = Coverage.FULL if cell in gr.full else Coverage.PARTIAL if cell in gr.partial else Coverage.DISJOINT
        return cov.value

    seen = set()
    for _ in range(15):
        moved = {}
        events = []
        for q in rng.sample(sorted(circles), 3):
            old = circles[q]
            roll = rng.random()
            if roll < 0.3:  # to the domain edge, clipped there
                new = Circle(Point(rng.choice([0.0, 1.0]), rng.random()), rng.uniform(0.05, 0.3))
                events.append(QueryMove(q, new))
                seen.add("clipped")
            elif roll < 0.5:  # the live id again, at a new radius
                new = Circle(old.center, rng.uniform(0.02, 0.3))
                events.append(QueryRegister(q, new, 0, 100))
                seen.add("reregistered")
            else:
                new = Circle(Point(min(max(old.center.x + rng.uniform(-0.3, 0.3), 0.0), 1.0),
                                   min(max(old.center.y + rng.uniform(-0.3, 0.3), 0.0), 1.0)), old.radius)
                events.append(QueryMove(q, new))
            moved[q] = new
        trace = []
        cluster._transport.trace = trace
        report = cluster.run_tick(events)
        assert report.errors == 0
        for q, new in moved.items():
            held, final = grid.candidate_cells(circles[q]), grid.candidate_cells(new)
            want: dict[int, list] = {}
            for cell in sorted((held.all_cells() | final.all_cells()) - (held.full & final.full)):
                want.setdefault(cluster.entrance.owner(cell), []).append(
                    (cell, cov_value(held, cell), cov_value(final, cell)))
            got = {m.receiver: list(m.body.transitions) for m in trace
                   if isinstance(m.body, QueryMove) and m.sender == ENTRANCE and m.body.q_id == q}
            assert got == want
            full = Coverage.FULL.value
            for entries in got.values():
                assert entries and entries == sorted(entries)
                assert all((old_val, new_val) != (full, full) for _, old_val, new_val in entries)
            if {cluster.entrance.owner(c) for c in held.all_cells()} != {
                    cluster.entrance.owner(c) for c in final.all_cells()}:
                seen.add("crossed")
            circles[q] = new
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c)
    assert seen == {"clipped", "reregistered", "crossed"}


def entrance_searches(trace):
    """Query ids of the registrations the entrance sent, in send order."""
    return [m.body.q_id for m in trace if isinstance(m.body, QueryRegister) and m.sender == ENTRANCE]


def test_baselines_search_each_query_at_most_once_per_tick():
    for mode in ("gi", "ns"):
        rng = random.Random(12)
        cluster = make_cluster(engine=mode)
        positions, events = seed_events(rng, 600)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.1) for q in range(4)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        trace = []
        cluster._transport.trace = trace
        cluster.run_tick([])
        assert entrance_searches(trace) == [], mode
        # query moves alone: only the moved queries are searched
        circles[2] = Circle(Point(0.5, 0.5), 0.1)
        cluster.run_tick([QueryMove(2, circles[2])])
        assert entrance_searches(trace) == [2], mode
        # object reports and moves together: every query exactly once
        del trace[:]
        circles[0] = Circle(Point(0.2, 0.7), 0.1)
        new = Point(rng.random(), rng.random())
        events = [ObjectUpdate(5, positions[5], new), QueryMove(0, circles[0]), QueryMove(0, circles[0])]
        positions[5] = new
        cluster.run_tick(events)
        assert entrance_searches(trace) == [0, 1, 2, 3], mode
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)
        # a registration among object reports: searched once, with the rest
        del trace[:]
        circles[4] = Circle(Point(0.6, 0.3), 0.1)
        new = Point(rng.random(), rng.random())
        events = [ObjectUpdate(6, positions[6], new), QueryRegister(4, circles[4], 0, 100)]
        positions[6] = new
        cluster.run_tick(events)
        assert entrance_searches(trace) == [0, 1, 2, 3, 4], mode
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def test_gi_index_workers_hold_no_cells():
    rng = random.Random(13)
    cluster = make_cluster(engine="gi", alpha=4)
    positions, events = seed_events(rng, 2000)
    cluster.run_tick(events)
    circle = Circle(Point(0.5, 0.5), 0.2)
    cluster.run_tick([QueryRegister(1, circle, 0, 100)])
    updates = []
    for obj in rng.sample(sorted(positions), 500):
        new = Point(rng.random(), rng.random())
        updates.append(ObjectUpdate(obj, positions[obj], new))
        positions[obj] = new
    cluster.run_tick(updates)
    assert cluster.query_result(1) == ns_search(positions, circle)
    for iw in cluster.index_workers:
        assert iw.cells == {}
    assert sum(len(iw.store.locations) for iw in cluster.index_workers) == len(positions)


def test_ns_index_workers_hold_only_their_objects():
    # each report goes to the owner of the object's cell, as in the other
    # modes, so a whole-worker scan examines every object exactly once
    rng = random.Random(14)
    cluster = make_cluster(engine="ns", index_workers=4)
    positions, events = seed_events(rng, 2000)
    circle = Circle(Point(0.5, 0.5), 0.2)

    def check_ownership():
        held = [obj for iw in cluster.index_workers for obj in iw.store.positions]
        assert sorted(held) == sorted(positions)
        for iw in cluster.index_workers:
            for obj, p in iw.store.positions.items():
                assert p == positions[obj]
                assert cluster.entrance.owner(cluster.grid.locate(p)) == iw.id

    cluster.run_tick(events)
    check_ownership()
    report = cluster.run_tick([QueryRegister(1, circle, 0, 100)])
    assert report.objects_examined == len(positions)
    assert cluster.query_result(1) == ns_search(positions, circle)
    updates = []
    for obj in rng.sample(sorted(positions), 500):
        new = Point(rng.random(), rng.random())
        updates.append(ObjectUpdate(obj, positions[obj], new))
        positions[obj] = new
    report = cluster.run_tick(updates)
    check_ownership()
    assert report.objects_examined == len(positions)  # the barrier wave's one re-search
    assert cluster.query_result(1) == ns_search(positions, circle)


def random_moves(rng, positions, count):
    updates = []
    for obj in rng.sample(sorted(positions), count):
        new = Point(rng.random(), rng.random())
        updates.append(ObjectUpdate(obj, positions[obj], new))
        positions[obj] = new
    return updates


def test_result_deltas_carry_the_net_change():
    # one index worker owns every cell, so each report's LEAVE from the old
    # cell and ENTER into the new cell meet on one worker and cancel there
    rng = random.Random(15)
    cluster = make_cluster(index_workers=1)
    positions, events = seed_events(rng, 1500)
    cluster.run_tick(events)
    circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.1, 0.3)) for q in range(8)}
    cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
    trace = []
    cluster._transport.trace = trace
    for tick in range(5):
        before = cluster.results()
        del trace[:]
        # an identity move sends nothing
        events = [QueryMove(tick, circles[tick])]
        if tick < 4:
            # short moves: most stay inside the circles that held them
            for obj in rng.sample(sorted(positions), 400):
                old = positions[obj]
                new = Point(min(max(old.x + rng.uniform(-0.08, 0.08), 0.0), 1.0),
                            min(max(old.y + rng.uniform(-0.08, 0.08), 0.0), 1.0))
                positions[obj] = new
                events.append(ObjectUpdate(obj, old, new))
        else:
            # a relocation to a disjoint circle: one delta drops the whole
            # old result and adds the whole new one
            x, y = circles[7].center
            circles[7] = Circle(Point(0.1 if x > 0.5 else 0.9, 0.1 if y > 0.5 else 0.9), 0.08)
            events.append(QueryMove(7, circles[7]))
        report = cluster.run_tick(events)
        assert report.queries_ready == len(circles)
        after = cluster.results()
        carried = {q: [] for q in circles}
        for m in trace:
            if isinstance(m.body, ResultDelta):
                for q_id, add, remove in m.body.per_query():
                    assert add or remove
                    carried[q_id] += add + remove
        for q, c in circles.items():
            assert after[q] == ns_search(positions, c)
            assert sorted(carried[q]) == sorted(before[q] ^ after[q]), q
    assert before[7] and after[7] and not before[7] & after[7]


def test_enter_may_overtake_leave_across_owners():
    # a circle straddling the boundary between two owners' row blocks; its
    # objects hop across that boundary, so the new owner's ENTER and the
    # old owner's LEAVE race on different edges
    for seed in range(20):
        rng = random.Random(100 + seed)
        cluster = make_cluster(index_workers=2, loopback_policy="random", seed=seed)
        boundary = 0.5  # rows 0-4 and 5-9 of the 10x10 grid
        circle = Circle(Point(0.5, boundary), 0.3)
        positions, events = seed_events(rng, 600)
        cluster.run_tick(events)
        cluster.run_tick([QueryRegister(1, circle, 0, 100)])
        assert cluster.query_result(1) == ns_search(positions, circle)
        for _ in range(3):
            updates = []
            for obj in rng.sample(sorted(positions), 150):
                old = positions[obj]
                y = 2 * boundary - old.y  # mirror across the boundary
                new = Point(old.x, min(max(y, 0.0), 0.999))
                positions[obj] = new
                updates.append(ObjectUpdate(obj, old, new))
            report = cluster.run_tick(updates)
            assert report.queries_ready == 1, seed
            assert cluster.query_result(1) == ns_search(positions, circle), seed


def test_failing_insert_still_sends_the_removal():
    rng = random.Random(16)
    cluster = make_cluster(index_workers=1)
    positions, events = seed_events(rng, 300)
    cluster.run_tick(events)
    circle = Circle(Point(0.5, 0.5), 0.3)
    cluster.run_tick([QueryRegister(1, circle, 0, 100)])
    old = Point(0.45, 0.45)
    new = Point(0.55, 0.55)  # another cell, same owner, same circle
    cluster.run_tick([ObjectUpdate(999, None, old)])
    assert 999 in cluster.query_result(1)
    iw = cluster.index_workers[0]
    # the new cell already claims the object, so the insertion raises;
    # the worker rejects the report and counts it
    old_cell, new_cell = cluster.grid.locate(old), cluster.grid.locate(new)
    iw.cell(new_cell).objects[999] = new
    iw.handle(Message(ENTRANCE, iw.id, 0, ObjectBatch(((999, old, old_cell, new, new_cell),))))
    assert iw.errors == 1
    cluster.run_tick([])  # its barrier flushes the buffered LEAVE
    assert 999 not in cluster.query_result(1)


def test_ns_index_workers_reject_inconsistent_parts():
    # a frame the entrance would never send: a removal of an unknown id,
    # an insertion of a live id into another cell, a move of an unknown
    # id, and a part with neither point for a live and an unknown id; each
    # part is counted and skipped, and object 1 stays put in every engine
    # (under drqa each cell checks only its own objects, so the index
    # worker's own set of held ids rejects the insertion)
    for mode in ("gi", "ns", "drqa"):
        cluster = make_cluster(engine=mode, index_workers=1, query_workers=1)
        here = Point(0.15, 0.15)
        cluster.run_tick([ObjectUpdate(1, None, here)])
        grid = cluster.grid
        a, b, c = Point(0.35, 0.35), Point(0.55, 0.55), Point(0.75, 0.75)
        parts = ((2, a, grid.locate(a), None, None),
                 (1, None, None, b, grid.locate(b)),
                 (3, a, grid.locate(a), c, grid.locate(c)),
                 (1, None, None, None, None),
                 (2, None, None, None, None))
        iw = cluster.index_workers[0]
        iw.handle(Message(ENTRANCE, iw.id, 0, ObjectBatch(parts)))
        report = cluster.run_tick([QueryRegister(1, Circle(here, 0.05), 0, 100),
                                    QueryRegister(2, Circle(b, 0.05), 0, 100)])
        assert (report.errors, report.queries_ready) == (5, 2), mode
        assert cluster.query_result(1) == {1}, mode
        assert cluster.query_result(2) == set(), mode


def test_reregistration_replaces_the_old_circle():
    rng = random.Random(17)
    cluster = make_cluster(index_workers=4)
    positions, events = seed_events(rng, 2000)
    cluster.run_tick(events)
    far = Circle(Point(0.8, 0.8), 0.15)
    cluster.run_tick([QueryRegister(1, Circle(Point(0.2, 0.2), 0.15), 0, 100)])
    report = cluster.run_tick([QueryRegister(1, far, 0, 100)])
    assert report.queries_ready == 1
    assert sum(cluster.entrance.routing.load.values()) == 1
    new_cells = cluster.grid.candidate_cells(far).all_cells()
    for iw in cluster.index_workers:
        assert iw.cells_of.get(1, set()) <= new_cells
    for _ in range(4):
        report = cluster.run_tick(random_moves(rng, positions, 400))
        assert report.queries_ready == 1
        assert cluster.query_result(1) == ns_search(positions, far)


def test_count_invariant_makes_query_unready():
    # two partials that share an id: the fold notices the count of 2
    state = QueryCounts(1, (2, 3))
    QueryWorker.collect_partial(state, 2, (1, 2))
    QueryWorker.collect_partial(state, 3, (2, 3))
    assert not state.ready() and state.duplicates == 1
    state.apply_delta((), (2,))
    assert state.ready() and state.result == {1, 2, 3}

    rng = random.Random(18)
    cluster = make_cluster()
    positions, events = seed_events(rng, 500)
    cluster.run_tick(events)
    circles = {q: Circle(Point(0.3 + 0.2 * q, 0.5), 0.15) for q in range(3)}
    report = cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
    assert report.queries_ready == 3
    member = min(cluster.query_result(0))
    outsider = max(positions) + 1

    def inject(q_id, add=(), remove=()):
        qw = next(w for w in cluster.query_workers if q_id in w.queries)
        qw.handle(Message(cluster.iw_ids[0], qw.id, 0, single_span(q_id, add, remove)))

    inject(0, add=(member,))  # a second ENTER: count 2
    assert cluster.run_tick([]).queries_ready == 2
    inject(0, remove=(member,))  # back to count 1
    assert cluster.run_tick([]).queries_ready == 3
    inject(1, remove=(outsider,))  # a LEAVE that finds no count
    assert cluster.run_tick([]).queries_ready == 2
    assert cluster.run_tick(random_moves(rng, positions, 100)).queries_ready == 2


def test_reregistration_within_a_tick_of_object_reports():
    # a registration of a live id moves the query: reports dispatched
    # before it reach the old circle's cells and after it the new circle's,
    # and their deltas race the move's on other edges
    for policy, seed in [("fifo", 0)] + [("random", s) for s in range(10)]:
        rng = random.Random(200 + seed)
        cluster = make_cluster(index_workers=4, query_workers=3, jaccard_threshold=0.9,
                               loopback_policy=policy, seed=seed)
        positions, events = seed_events(rng, 1500)
        cluster.run_tick(events)
        cluster.run_tick([QueryRegister(1, Circle(Point(0.3, 0.3), 0.25), 0, 100),
                          QueryRegister(2, Circle(Point(0.7, 0.2), 0.2), 0, 100)])
        far = Circle(Point(0.6, 0.6), 0.25)
        moves = random_moves(rng, positions, 600)
        report = cluster.run_tick(moves[:300] + [QueryRegister(1, far, 0, 100)] + moves[300:])
        assert report.queries_ready == 2, (policy, seed)
        assert sum(cluster.entrance.routing.load.values()) == 2
        assert sum(1 for qw in cluster.query_workers if 1 in qw.queries) == 1
        assert cluster.query_result(1) == ns_search(positions, far), (policy, seed)
        report = cluster.run_tick(random_moves(rng, positions, 300))
        assert report.queries_ready == 2
        assert cluster.query_result(1) == ns_search(positions, far), (policy, seed)


def test_bad_object_report_stays_in_its_tick():
    # a report for an object that was never inserted is rejected alone:
    # the tick drains, its report counts the error, and the next ticks are
    # clean
    for mode in ENGINE_MODES:
        rng = random.Random(20)
        cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1,
                                      alpha=6, m=4, engine=mode))
        positions, events = seed_events(rng, 400)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.2) for q in range(4)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        ghost = ObjectUpdate(10_000, Point(0.51, 0.51), Point(0.52, 0.52))  # one cell
        for tick, errors in ((3, 1), (4, 0), (5, 0)):
            events = random_moves(rng, positions, 50)
            if errors:
                events.insert(25, ghost)
            report = cluster.run_tick(events)
            assert (report.tick, report.errors) == (tick, errors), mode
            assert report.queries_ready == len(circles), mode
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def test_inconsistent_object_reports_are_rejected_at_the_entrance():
    # the entrance keeps each live object's cell, so an insertion of a live
    # id (here into a cell another index worker owns), a move or removal of
    # an unknown id, a move whose old point lies in another cell and a
    # report with neither point are each rejected alone, in every engine
    # on both pumps: nothing is sent for them (under gi and ns, no query
    # is searched again), the object is never held twice, and it leaves a
    # result when it moves away
    near, far = Point(0.15, 0.15), Point(0.85, 0.85)
    for mode in ENGINE_MODES:
        for policy in ("fifo", "random"):
            cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1,
                                          engine=mode, loopback_policy=policy))
            owners = {cluster.entrance.owner(cluster.grid.locate(p)) for p in (near, far)}
            assert len(owners) == 2
            cluster.run_tick([ObjectUpdate(1, None, near)])
            cluster.run_tick([QueryRegister(7, Circle(far, 0.05), 0, 100),
                              QueryRegister(8, Circle(Point(0.5, 0.5), 0.75), 0, 100)])  # everything
            for bad in (ObjectUpdate(1, None, far), ObjectUpdate(2, near, far),
                        ObjectUpdate(3, far, None), ObjectUpdate(1, far, near),
                        ObjectUpdate(2, None, None)):
                report = cluster.run_tick([bad])
                assert (report.errors, report.queries_ready, report.messages) == (1, 2, 0), (mode, policy, bad)
                assert cluster.results() == {7: set(), 8: {1}}, (mode, policy, bad)
            report = cluster.run_tick([ObjectUpdate(1, near, Point(0.2, 0.2))])
            assert (report.errors, report.queries_ready) == (0, 2), (mode, policy)
            assert cluster.results() == {7: set(), 8: {1}}, (mode, policy)
            report = cluster.run_tick([ObjectUpdate(1, Point(0.2, 0.2), far)])
            assert (report.errors, report.queries_ready) == (0, 2), (mode, policy)
            assert cluster.results() == {7: {1}, 8: {1}}, (mode, policy)


def test_out_of_domain_events_stay_in_their_tick():
    # a report, a registration and a move whose point or center lies
    # outside the unit square are each rejected alone by the entrance;
    # the good events around them land in the same tick
    for mode in ("drqa", "gi"):
        rng = random.Random(22)
        cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1,
                                      alpha=6, m=4, engine=mode))
        positions, events = seed_events(rng, 400)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.2) for q in range(4)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        for tick, errors in ((3, 3), (4, 0), (5, 0)):
            events = random_moves(rng, positions, 50)
            if errors:
                circles[4] = Circle(Point(0.5, 0.5), 0.2)
                positions[400] = Point(0.25, 0.75)
                events[10:10] = [ObjectUpdate(401, None, Point(1.5, 0.5))]
                events[20:20] = [QueryRegister(5, Circle(Point(1.5, 0.5), 0.1), 0, 100),
                                 QueryRegister(4, circles[4], 0, 100)]
                events[30:30] = [QueryMove(0, Circle(Point(-0.2, 0.5), 0.2)),
                                 ObjectUpdate(400, None, positions[400])]
            report = cluster.run_tick(events)
            assert (report.tick, report.errors) == (tick, errors), mode
            assert report.queries_ready == len(circles), mode
            assert 5 not in cluster.entrance.registry, mode
            assert sum(cluster.entrance.routing.load.values()) == len(circles), mode
            assert cluster.query_result(5) is None, mode
            for q, c in circles.items():  # query 0 keeps its old circle
                assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def test_negative_or_nan_radius_is_rejected_alone():
    # a circle of negative or NaN radius names no region: the entrance
    # rejects its registration or move alone under every engine, and the
    # good query beside it keeps its result
    positions = {o: Point(0.455 + 0.01 * o, 0.5) for o in range(10)}
    good = Circle(Point(0.5, 0.5), 0.02)
    for mode in ENGINE_MODES:
        cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1, engine=mode))
        cluster.run_tick([ObjectUpdate(o, None, p) for o, p in positions.items()])
        report = cluster.run_tick([QueryRegister(1, Circle(Point(0.5, 0.5), -0.2), 0, 100),
                                   QueryRegister(2, Circle(Point(0.5, 0.5), math.nan), 0, 100),
                                   QueryRegister(3, good, 0, 100)])
        assert (report.errors, report.queries_ready) == (2, 1), mode
        assert cluster.results() == {3: ns_search(positions, good)}, mode
        report = cluster.run_tick([QueryMove(3, Circle(Point(0.5, 0.5), math.nan))])
        assert (report.errors, report.queries_ready) == (1, 1), mode
        assert cluster.results() == {3: ns_search(positions, good)}, mode
        assert cluster.entrance.registry[3][0] == good, mode
        cluster.close()


def test_unknown_query_move_stays_in_its_tick():
    # a move of a query id that was never registered is rejected alone by
    # the entrance; the good events around it land in the same tick
    for mode in ("drqa", "gi"):
        rng = random.Random(25)
        cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1,
                                      alpha=6, m=4, engine=mode))
        positions, events = seed_events(rng, 400)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.2) for q in range(4)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        for tick, errors in ((3, 1), (4, 0), (5, 0)):
            events = random_moves(rng, positions, 50)
            if errors:
                positions[400] = Point(0.25, 0.75)
                events[10:10] = [QueryMove(7, Circle(Point(0.5, 0.5), 0.2)),
                                 ObjectUpdate(400, None, positions[400])]
            report = cluster.run_tick(events)
            assert (report.tick, report.errors) == (tick, errors), mode
            assert report.queries_ready == len(circles), mode
            assert 7 not in cluster.entrance.registry, mode
            assert sum(cluster.entrance.routing.load.values()) == len(circles), mode
            assert cluster.query_result(7) is None, mode
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def test_expired_query_ships_no_buffered_changes():
    # the reports of a tick buffer changes for query 1; its expiry at the
    # end of the tick discards them at the index workers
    rng = random.Random(26)
    cluster = make_cluster(index_workers=2, query_workers=1)
    positions, events = seed_events(rng, 1000)
    cluster.run_tick(events)
    circles = {1: Circle(Point(0.5, 0.5), 0.3), 2: Circle(Point(0.3, 0.6), 0.2),
               3: Circle(Point(0.7, 0.3), 0.1)}
    cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
    trace = []
    cluster._transport.trace = trace
    report = cluster.run_tick(random_moves(rng, positions, 400) + [QueryExpire(1)])
    del circles[1]
    assert report.queries_ready == len(circles)
    named = {q_id for m in trace if isinstance(m.body, ResultDelta) for q_id, *_ in m.body.spans}
    assert 1 not in named and named  # the other queries' changes still ship
    assert cluster.query_result(1) is None
    for q, c in circles.items():
        assert cluster.query_result(q) == ns_search(positions, c), q


def test_query_leaving_every_cell_of_a_worker_gets_its_leaves_that_tick():
    # query 1 moves from cells of the first index worker only (rows 0-4)
    # to cells of the second only (rows 5-9); the first worker forgets the
    # query in that tick's wave, and still sends its LEAVEs before its
    # barrier
    rng = random.Random(28)
    cluster = make_cluster(index_workers=2, query_workers=2)
    positions, events = seed_events(rng, 1000)
    cluster.run_tick(events)
    before, after = Circle(Point(0.5, 0.2), 0.1), Circle(Point(0.5, 0.8), 0.1)
    low, high = cluster.index_workers
    for circle, iw in ((before, low), (after, high)):
        owners = {cluster.entrance.owner(c) for c in cluster.grid.candidate_cells(circle).all_cells()}
        assert owners == {iw.id}
    cluster.run_tick([QueryRegister(1, before, 0, 100)])
    old_result = cluster.query_result(1)
    assert 1 in low.route_of and 1 in low.cells_of
    updates = random_moves(rng, positions, 200)
    unmoved = old_result - {u.obj_id for u in updates}
    assert unmoved
    trace = []
    cluster._transport.trace = trace
    report = cluster.run_tick(updates + [QueryMove(1, after)])
    assert report.queries_ready == 1 and report.errors == 0
    (frame,) = [m for m in trace if m.sender == low.id and isinstance(m.body, ResultDelta)]
    (left,) = [remove for q, _, remove in frame.body.per_query() if q == 1]
    assert unmoved <= set(left)  # every object still in its old cells left the result
    qw = frame.receiver
    to_qw = [type(m.body) for m in trace if m.sender == low.id and m.receiver == qw]
    assert to_qw == [ResultDelta, TickBarrier]
    assert cluster.query_result(1) == ns_search(positions, after)
    assert 1 not in low.route_of and 1 not in low.cells_of
    assert high.route_of[1] == qw and high.cells_of[1]


def test_move_between_fully_covered_cells_sends_nothing():
    # both cells of the move are fully covered by query 1: the old cell
    # reports that the object left it and the new cell that it entered, and
    # the index worker's netting sends query 1 nothing
    rng = random.Random(27)
    cluster = make_cluster(index_workers=1)
    positions, events = seed_events(rng, 300)
    cluster.run_tick(events)
    circles = {1: Circle(Point(0.5, 0.5), 0.3), 2: Circle(Point(0.56, 0.56), 0.02)}
    cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
    old, new = Point(0.45, 0.45), Point(0.56, 0.56)  # query 2 covers only the new cell, in part
    positions[999] = old
    cluster.run_tick([ObjectUpdate(999, None, old)])
    iw = cluster.index_workers[0]
    seen = []
    store_move = iw.move_object

    def recording(*args):
        deltas = args[-1]
        start = len(deltas)
        try:
            store_move(*args)
        finally:
            seen.extend(deltas[start:])

    iw.move_object = recording
    trace = []
    cluster._transport.trace = trace
    positions[999] = new
    cluster.run_tick([ObjectUpdate(999, old, new)])
    assert seen == [CellDelta(set(), {1}), CellDelta({1, 2}, set())]
    spans = [span for m in trace if isinstance(m.body, ResultDelta) for span in m.body.per_query()]
    assert spans == [(2, (999,), ())]
    for q, c in circles.items():
        assert cluster.query_result(q) == ns_search(positions, c), q


def test_one_result_frame_per_edge_per_tick():
    # in ticks of object and query moves, each index worker sends each
    # query worker at most one RESULT_DELTA, right before its barrier
    for policy in ("fifo", "random"):
        rng = random.Random(23)
        cluster = make_cluster(index_workers=3, query_workers=2, loopback_policy=policy, seed=5)
        positions, events = seed_events(rng, 1500)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.05, 0.2)) for q in range(16)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        trace = []
        cluster._transport.trace = trace
        multi_span = 0
        for _ in range(4):
            del trace[:]
            events = random_moves(rng, positions, 300)
            for q in rng.sample(sorted(circles), 6):
                c = circles[q]
                circles[q] = Circle(Point(min(max(c.center.x + rng.uniform(-0.1, 0.1), 0.0), 1.0),
                                          min(max(c.center.y + rng.uniform(-0.1, 0.1), 0.0), 1.0)), c.radius)
                events.append(QueryMove(q, circles[q]))
            rng.shuffle(events)
            report = cluster.run_tick(events)
            assert report.queries_ready == len(circles), policy
            for iw in cluster.iw_ids:
                for qw in cluster.qw_ids:
                    edge = [m.body for m in trace if (m.sender, m.receiver) == (iw, qw)]
                    assert [type(b) for b in edge] in ([TickBarrier], [ResultDelta, TickBarrier]), policy
            for m in trace:
                if isinstance(m.body, ResultDelta):
                    spans = m.body.spans
                    assert len({q_id for q_id, _, _ in spans}) == len(spans), policy
                    assert sum(span[1] for span in spans) == len(m.body.add), policy
                    assert sum(span[2] for span in spans) == len(m.body.remove), policy
                    multi_span += len(spans) > 1
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (policy, q)
        assert multi_span, policy


def test_move_after_reregistration_within_a_tick():
    # a re-registration moves the query to the second worker's rows and a
    # move brings it back within the tick: the first worker's changes from
    # before and after must all reach the result
    for policy, seed in [("fifo", 0)] + [("random", s) for s in range(5)]:
        rng = random.Random(24)
        cluster = make_cluster(index_workers=2, query_workers=1, loopback_policy=policy, seed=seed)
        positions, events = seed_events(rng, 1500)
        cluster.run_tick(events)
        near = Circle(Point(0.5, 0.25), 0.2)  # rows of the first worker only
        cluster.run_tick([QueryRegister(1, near, 0, 100)])
        moves = random_moves(rng, positions, 600)
        far = Circle(Point(0.5, 0.8), 0.1)  # rows of the second worker only
        report = cluster.run_tick(moves + [QueryRegister(1, far, 0, 100), QueryMove(1, near)])
        assert report.queries_ready == 1, (policy, seed)
        assert cluster.query_result(1) == ns_search(positions, near), (policy, seed)


def test_reregistration_after_expiry_within_a_tick_is_rejected():
    # the expired registration's traffic may still be in flight, so the id
    # registers again only from the next tick on
    for mode in ("drqa", "gi"):
        for policy in ("fifo", "random"):
            rng = random.Random(28)
            cluster = make_cluster(engine=mode, index_workers=2, loopback_policy=policy, seed=3)
            positions, events = seed_events(rng, 1000)
            cluster.run_tick(events)
            circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(4)}
            cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
            far = Circle(Point(0.8, 0.2), 0.2)
            moves = random_moves(rng, positions, 300)
            report = cluster.run_tick(moves[:150] + [QueryExpire(1), QueryRegister(1, far, 0, 100)] + moves[150:])
            del circles[1]
            assert (report.errors, report.queries_ready) == (1, len(circles)), (mode, policy)
            assert 1 not in cluster.entrance.registry and cluster.query_result(1) is None, (mode, policy)
            assert sum(cluster.entrance.routing.load.values()) == len(circles), (mode, policy)
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, policy, q)
            circles[1] = far
            report = cluster.run_tick([QueryRegister(1, far, 0, 100)] + random_moves(rng, positions, 300))
            assert (report.errors, report.queries_ready) == (0, len(circles)), (mode, policy)
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, policy, q)


def test_unclaimed_traffic_is_counted_and_dropped():
    # a span for an id that was never registered and a second partial for a
    # complete query are each counted as a fault at the next barrier; each
    # is dropped, and the next tick is clean
    rng = random.Random(29)
    cluster = make_cluster()
    positions, events = seed_events(rng, 500)
    cluster.run_tick(events)
    circles = {q: Circle(Point(0.3 + 0.2 * q, 0.5), 0.15) for q in range(3)}
    cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
    member = min(cluster.query_result(0))
    owner = next(w for w in cluster.query_workers if 0 in w.queries)
    key = cluster.iw_ids[0]  # query 0 is complete: it awaits no partial
    injected = [(cluster.query_workers[0], single_span(99, add=(member,))),
                (owner, PartialResult(0, key, (member,)))]
    for qw, body in injected:
        qw.handle(Message(key, qw.id, 0, body))
        report = cluster.run_tick([])
        assert (report.errors, report.queries_ready) == (1, len(circles)), body
        assert all(not w._stash for w in cluster.query_workers), body
        report = cluster.run_tick(random_moves(rng, positions, 100))
        assert (report.errors, report.queries_ready) == (0, len(circles)), body
        assert cluster.query_result(99) is None
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), q


def test_faulty_partial_stays_in_its_tick():
    # a query awaiting partials from index workers 2 and 3 gets worker 2's
    # twice and one from worker 7, which it was never promised: each is
    # counted in that tick's errors and dropped, and the tick still reports
    cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1))
    cluster.run_tick([])
    qw = cluster.query_workers[0]
    send = cluster._transport.send
    send(ENTRANCE, qw.id, QueryRegister(9, Circle(Point(0.5, 0.5), 0.1), 0, 100, (2, 3)))
    send(2, qw.id, PartialResult(9, 2, (1,)))
    send(2, qw.id, PartialResult(9, 2, (1,)))
    send(2, qw.id, PartialResult(9, 7, (5,)))
    send(3, qw.id, PartialResult(9, 3, (2,)))
    report = cluster.run_tick([])
    assert (report.tick, report.errors, report.queries_ready) == (2, 2, 1)
    assert cluster.query_result(9) == {1, 2}
    report = cluster.run_tick([])
    assert (report.tick, report.errors, report.queries_ready) == (3, 0, 1)


def test_lost_partial_stays_in_its_tick():
    # index worker 0 loses one partial of a gi/ns re-search: that tick's
    # query is unready, and the next tick's search, whose partials may
    # overtake its registration on a reordering pump, starts clean
    for mode in ("gi", "ns"):
        for policy, seed in [("fifo", 0)] + [("random", s) for s in range(30)]:
            key = (mode, policy, seed)
            rng = random.Random(seed)
            cluster = Cluster(ClusterSpec(grid_n=10, index_workers=3, query_workers=2, engine=mode,
                                          loopback_policy=policy, seed=seed))
            positions, events = seed_events(rng, 400)
            cluster.run_tick(events)
            circles = {0: Circle(Point(0.5, 0.15), 0.3)}  # in index worker 0's rows
            circles.update((q, Circle(Point(rng.random(), rng.random()), 0.3)) for q in range(1, 8))
            report = cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
            assert report.queries_ready == 8, key
            iw = cluster.index_workers[0]
            dropped = []

            def lossy_send(receiver, body, send=iw.send):
                if not dropped and isinstance(body, PartialResult) and body.q_id == 0:
                    dropped.append(body)
                else:
                    send(receiver, body)

            iw.send = lossy_send
            report = cluster.run_tick(random_moves(rng, positions, 50))
            assert dropped and report.queries_ready == 7, key
            for tick in range(3):
                report = cluster.run_tick(random_moves(rng, positions, 50))
                assert (report.queries_ready, report.errors) == (8, 0), key + (tick,)
                for q, c in circles.items():
                    assert cluster.query_result(q) == ns_search(positions, c), key + (tick, q)


def test_drqa_ships_no_more_result_ids_than_gi():
    # on a small ZIPF shape, drqa's deltas carry no more object ids to the
    # query workers per incremental tick than gi's per-tick re-search
    spec = WorkloadSpec(distribution="ZIPF", n_objects=1000, n_queries=40, radius=0.05,
                        object_speed=0.005, query_speed=0.005, zipf_s=1.2, grid_n=20)
    shipped = {}
    results = {}
    for mode in ("drqa", "gi"):
        wl = Workload(spec)
        cluster = make_cluster(grid_n=spec.grid_n, alpha=8, engine=mode)
        cluster.run_tick([ObjectUpdate(o, None, p) for o, p in sorted(wl.objects.items())])
        cluster.run_tick([QueryRegister(q, c, t0, t1) for q, c, t0, t1 in wl.queries])
        trace = []
        cluster._transport.trace = trace
        shipped[mode] = []
        for _ in range(3):
            del trace[:]
            events = [ObjectUpdate(o, old, new) for o, old, new in wl.step_objects()]
            events += [QueryMove(q, c) for q, c in wl.step_queries()]
            cluster.run_tick(events)
            results.setdefault(mode, []).append(cluster.results())
            shipped[mode].append(sum(
                len(m.body.ids) if isinstance(m.body, PartialResult) else len(m.body.add) + len(m.body.remove)
                for m in trace
                if m.sender in cluster.iw_ids and m.receiver in cluster.qw_ids
                and isinstance(m.body, (PartialResult, ResultDelta))
            ))
    assert results["drqa"] == results["gi"]
    assert all(d <= g for d, g in zip(shipped["drqa"], shipped["gi"])), shipped


def parts_by_owner(cluster, updates):
    """The parts the entrance owes each index worker for these reports, in
    the client's order: one per report, two for a report across owners."""
    out = {iw: [] for iw in cluster.iw_ids}
    for u in updates:
        old_cell = cluster.grid.locate(u.old) if u.old is not None else None
        new_cell = cluster.grid.locate(u.new) if u.new is not None else None
        old_owner = cluster.entrance.owner(old_cell) if old_cell is not None else None
        new_owner = cluster.entrance.owner(new_cell) if new_cell is not None else None
        if old_owner is not None and old_owner == new_owner:
            out[old_owner].append((u.obj_id, u.old, old_cell, u.new, new_cell))
            continue
        if old_owner is not None:
            out[old_owner].append((u.obj_id, u.old, old_cell, None, None))
        if new_owner is not None:
            out[new_owner].append((u.obj_id, None, None, u.new, new_cell))
    return out


def entrance_edge(trace, iw):
    return [m.body for m in trace if (m.sender, m.receiver) == (ENTRANCE, iw)]


def test_one_object_frame_per_edge_per_tick():
    # reports that precede the tick's other events reach each index worker
    # as one kind-1 frame, ahead of everything else the entrance sends it
    for mode in ENGINE_MODES:
        rng = random.Random(31)
        cluster = make_cluster(engine=mode)
        trace = []
        cluster._transport.trace = trace
        positions, updates = seed_events(rng, 900)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(6)}
        others = [QueryRegister(q, c, 0, 100) for q, c in circles.items()]
        for tick in range(3):
            if tick:
                updates = random_moves(rng, positions, 300)
                circles[0] = Circle(Point(rng.random(), rng.random()), 0.15)
                others = [QueryMove(0, circles[0]), QueryExpire(5)] if tick == 1 else [QueryMove(0, circles[0])]
                circles.pop(5, None)
            del trace[:]
            report = cluster.run_tick(updates + others)
            expected = parts_by_owner(cluster, updates)
            for iw in cluster.iw_ids:
                edge = entrance_edge(trace, iw)
                assert isinstance(edge[0], ObjectBatch), (mode, tick)
                assert [b for b in edge if b.kind is ObjectBatch.kind] == [edge[0]], (mode, tick)
                assert list(edge[0].parts) == expected[iw], (mode, tick)
                assert isinstance(edge[-1], TickBarrier), (mode, tick)
            assert report.objects_processed == sum(map(len, expected.values())), (mode, tick)
            assert report.errors == 0, (mode, tick)
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, tick, q)


def test_mixed_tick_keeps_the_client_order_per_edge():
    # reports, a registration, more reports, a move, an expiry and more
    # reports in one tick: the entrance sends each index worker its reports
    # as one frame at the head of the barrier wave, so the frame's parts,
    # read in order, are the client's reports
    for mode in ("drqa", "gi"):
        for policy in ("fifo", "random"):
            rng = random.Random(37)
            cluster = make_cluster(engine=mode, loopback_policy=policy, seed=3)
            positions, events = seed_events(rng, 1200)
            cluster.run_tick(events)
            circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.1, 0.3)) for q in range(6)}
            cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
            trace = []
            cluster._transport.trace = trace
            flushed = 0
            for tick in range(3):
                del trace[:]
                first, second, third = (random_moves(rng, positions, 150) for _ in range(3))
                new_q = 10 + tick
                moved_q, expired_q = rng.sample(sorted(circles), 2)
                circles[new_q] = Circle(Point(rng.random(), rng.random()), 0.2)
                circles[moved_q] = Circle(Point(rng.random(), rng.random()), 0.25)
                del circles[expired_q]
                report = cluster.run_tick(
                    first + [QueryRegister(new_q, circles[new_q], 0, 100)] + second
                    + [QueryMove(moved_q, circles[moved_q]), QueryExpire(expired_q)] + third
                )
                assert report.errors == 0, (mode, policy, tick)
                assert report.queries_ready == len(circles), (mode, policy, tick)
                for q, c in circles.items():
                    assert cluster.query_result(q) == ns_search(positions, c), (mode, policy, tick, q)
                expected = parts_by_owner(cluster, first + second + third)
                for iw in cluster.iw_ids:
                    edge = entrance_edge(trace, iw)
                    frames = [b for b in edge if isinstance(b, ObjectBatch)]
                    assert [p for b in frames for p in b.parts] == expected[iw], (mode, policy, tick)
                    kinds = [type(b) for b in edge]
                    # a frame goes out only ahead of another message
                    assert all(a is not ObjectBatch or b is not ObjectBatch
                               for a, b in zip(kinds, kinds[1:])), (mode, policy, tick)
                    flushed += len(frames) > 1
            # every engine sends the registration, move and expiry in the
            # barrier wave, after the one frame of reports
            assert not flushed, (mode, policy)


def test_each_edge_gets_its_batched_traffic_once_per_tick():
    # one tick mixes reports with a registration and a second one of the
    # same id at a new circle, two moves of live query 1, the expiry of
    # query 2 moved earlier in the tick and that of query 11 registered in
    # it: the entrance sends each index worker one frame of reports ahead
    # of everything else, each index worker sends each query worker at
    # most one RESULT_DELTA, right before its barrier, and under drqa the
    # twice-moved query reaches each owner in at most one QUERY_MOVE
    for mode in ENGINE_MODES:
        for policy, seed in [("fifo", 0)] + [("random", s) for s in range(5)]:
            rng = random.Random(43)
            cluster = make_cluster(engine=mode, loopback_policy=policy, seed=seed)
            positions, events = seed_events(rng, 1200)
            cluster.run_tick(events)
            circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.1, 0.25)) for q in range(6)}
            cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
            trace = []
            cluster._transport.trace = trace
            first, second, third = (random_moves(rng, positions, 150) for _ in range(3))
            halfway = Circle(Point(0.2, 0.8), 0.2)
            circles[1] = Circle(Point(0.7, 0.3), 0.2)
            circles[10] = Circle(Point(0.4, 0.6), 0.2)
            del circles[2]
            report = cluster.run_tick(
                first + [QueryRegister(10, Circle(Point(0.8, 0.8), 0.1), 0, 100), QueryMove(1, halfway),
                         QueryMove(2, Circle(Point(0.5, 0.5), 0.3))]
                + second + [QueryRegister(11, Circle(Point(0.3, 0.3), 0.15), 0, 100),
                            QueryRegister(10, circles[10], 0, 100), QueryMove(1, circles[1])]
                + third + [QueryExpire(2), QueryExpire(11)]
            )
            where = (mode, policy, seed)
            assert report.errors == 0, where
            assert report.queries_ready == len(circles), where
            assert cluster.results() == {q: ns_search(positions, c) for q, c in circles.items()}, where
            for iw in cluster.iw_ids:
                edge = entrance_edge(trace, iw)
                assert isinstance(edge[0], ObjectBatch), where
                assert sum(isinstance(b, ObjectBatch) for b in edge) == 1, where
                for qw in cluster.qw_ids:
                    kinds = [type(m.body) for m in trace if (m.sender, m.receiver) == (iw, qw)]
                    assert kinds[-1] is TickBarrier, where
                    assert kinds.count(ResultDelta) <= 1, where
                    assert ResultDelta not in kinds or kinds[-2] is ResultDelta, where
            moves = [m.receiver for m in trace
                     if m.sender == ENTRANCE and isinstance(m.body, QueryMove) and m.body.q_id == 1]
            assert sorted(set(moves)) == sorted(moves), where
            assert bool(moves) == (mode == "drqa"), where


def interleaved_ticks(rng, n_objects=900, n_queries=6, ticks=3):
    """Client event lists whose reports are interleaved with query events,
    each with the positions and circles after it.  The first tick inserts
    the objects among the registrations; each later one moves objects
    among a registration, a move, a registration of a live id and an
    expiry."""
    positions, inserts = seed_events(rng, n_objects)
    circles = {q: Circle(Point(rng.random(), rng.random()), rng.uniform(0.1, 0.25)) for q in range(n_queries)}

    def interleave(reports, queries):
        events = list(reports)
        for event in queries:
            events.insert(rng.randrange(len(events) + 1), event)
        return events

    out = [(interleave(inserts, [QueryRegister(q, c, 0, 100) for q, c in circles.items()]),
            dict(positions), dict(circles))]
    for tick in range(1, ticks):
        moves = random_moves(rng, positions, n_objects // 6)
        new_q = 100 + tick
        moved_q, rereg_q, expired_q = rng.sample(sorted(circles), 3)
        for q in (new_q, moved_q, rereg_q):
            circles[q] = Circle(Point(rng.random(), rng.random()), rng.uniform(0.1, 0.25))
        del circles[expired_q]
        queries = [QueryRegister(new_q, circles[new_q], 0, 100), QueryMove(moved_q, circles[moved_q]),
                   QueryRegister(rereg_q, circles[rereg_q], 0, 100), QueryExpire(expired_q)]
        out.append((interleave(moves, queries), dict(positions), dict(circles)))
    return out


def test_client_sends_one_report_frame_per_tick():
    # the client -> entrance edge carries a tick's reports as one kind-1
    # frame, ahead of its query events, which keep the client's order; a
    # tick without reports carries no frame
    for policy in ("fifo", "random"):
        rng = random.Random(47)
        cluster = make_cluster(loopback_policy=policy, seed=5)
        trace = []
        cluster._transport.trace = trace
        ticks = interleaved_ticks(rng)
        _, positions, circles = ticks[-1]
        moved = Circle(Point(0.5, 0.5), 0.2)
        ticks.append(([QueryMove(min(circles), moved)], positions, {**circles, min(circles): moved}))
        for tick, (events, positions, circles) in enumerate(ticks, start=1):
            del trace[:]
            report = cluster.run_tick(events)
            edge = [m.body for m in trace if (m.sender, m.receiver) == (CLIENT, ENTRANCE)]
            reports = tuple(e for e in events if isinstance(e, ObjectUpdate))
            queries = [e for e in events if not isinstance(e, ObjectUpdate)]
            assert edge == ([ObjectReports(reports)] if reports else []) + queries + [TickBarrier(tick)], \
                (policy, tick)
            assert sum(b.kind is ObjectReports.kind for b in edge) == (1 if reports else 0), (policy, tick)
            assert (report.errors, report.queries_ready) == (0, len(circles)), (policy, tick)
            assert cluster.results() == {q: ns_search(positions, c) for q, c in circles.items()}, (policy, tick)


def test_reports_listed_anywhere_in_a_tick_give_the_same_report():
    # the reports go ahead of the query events whatever the client's order:
    # interleaved with them or listed last, a tick gives the same report and
    # results, and they are the oracle's, in every engine on both pumps
    for mode in ENGINE_MODES:
        for policy in ("fifo", "random"):
            ticks = interleaved_ticks(random.Random(53))
            interleaved = make_cluster(engine=mode, loopback_policy=policy, seed=7)
            reports_last = make_cluster(engine=mode, loopback_policy=policy, seed=7)
            for events, positions, circles in ticks:
                last = ([e for e in events if not isinstance(e, ObjectUpdate)]
                        + [e for e in events if isinstance(e, ObjectUpdate)])
                assert last != events
                report = interleaved.run_tick(events)
                assert report == reports_last.run_tick(last), (mode, policy, report.tick)
                assert report.errors == 0, (mode, policy, report.tick)
                expected = {q: ns_search(positions, c) for q, c in circles.items()}
                assert interleaved.results() == reports_last.results() == expected, (mode, policy, report.tick)


def test_bad_reports_in_the_client_frame_are_rejected_alone():
    # inside the one frame, a report with a point outside the domain (NaN
    # among them), a move of an unknown id, an insertion of a live id and a
    # report with neither point are each counted and dropped; the good
    # reports around them apply
    for mode in ENGINE_MODES:
        for policy in ("fifo", "random"):
            rng = random.Random(59)
            cluster = make_cluster(engine=mode, loopback_policy=policy, seed=9)
            positions, events = seed_events(rng, 400)
            cluster.run_tick(events)
            circles = {q: Circle(Point(rng.random(), rng.random()), 0.2) for q in range(4)}
            cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
            trace = []
            cluster._transport.trace = trace
            bad = [ObjectUpdate(500, None, Point(1.5, 0.5)), ObjectUpdate(501, None, Point(math.nan, 0.5)),
                   ObjectUpdate(3, positions[3], Point(0.5, -0.25)), ObjectUpdate(502, Point(0.5, 0.5), Point(0.6, 0.6)),
                   ObjectUpdate(4, None, Point(0.5, 0.5)), ObjectUpdate(503, None, None)]
            events = random_moves(rng, positions, 60)
            for i, b in enumerate(bad):
                events.insert(10 * i + 5, b)
            report = cluster.run_tick(events)
            frames = [m.body for m in trace if m.sender == CLIENT and isinstance(m.body, ObjectReports)]
            assert frames == [ObjectReports(tuple(events))], (mode, policy)
            assert (report.errors, report.queries_ready) == (len(bad), len(circles)), (mode, policy)
            assert cluster.entrance.object_cells.keys() == positions.keys(), (mode, policy)
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, policy, q)
            report = cluster.run_tick(random_moves(rng, positions, 60))
            assert (report.errors, report.queries_ready) == (0, len(circles)), (mode, policy)
            for q, c in circles.items():
                assert cluster.query_result(q) == ns_search(positions, c), (mode, policy, q)


def test_index_workers_never_locate(monkeypatch):
    # the entrance locates each inserted point, and the new point of each
    # move that leaves its cell; the old point of a report equal to the
    # recorded one, and a new point in the old cell, take the recorded
    # cell.  The index workers use the cells it sends
    handling = []
    calls = {"index": 0, "other": 0}
    handle = IndexWorker.handle
    locate = GridIndex.locate

    def index_handle(self, msg):
        handling.append(self.id)
        try:
            return handle(self, msg)
        finally:
            handling.pop()

    def counting_locate(self, p):
        calls["index" if handling else "other"] += 1
        return locate(self, p)

    monkeypatch.setattr(IndexWorker, "handle", index_handle)
    monkeypatch.setattr(GridIndex, "locate", counting_locate)
    for mode in ENGINE_MODES:
        calls.update(index=0, other=0)
        rng = random.Random(43)
        cluster = make_cluster(engine=mode)
        positions, events = seed_events(rng, 600)
        cluster.run_tick(events)
        circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(4)}
        cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
        crossing = 0
        for _ in range(2):
            circles[1] = Circle(Point(rng.random(), rng.random()), 0.15)
            moves = random_moves(rng, positions, 200)
            crossing += sum(locate(cluster.grid, m.old) != locate(cluster.grid, m.new) for m in moves)
            cluster.run_tick(moves + [QueryMove(1, circles[1])])
        cluster.run_tick([ObjectUpdate(o, positions.pop(o), None) for o in range(50)])
        assert 0 < crossing < 2 * 200
        assert calls == {"index": 0, "other": 600 + crossing}, mode
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def locate_both_points(grid, assignment, cells, report, parts):
    """The entrance's verdict on one report, by locating both of its points
    as :meth:`GridIndex.locate` places them: True and the report's parts
    appended to ``parts`` (owner -> list), or False for a rejection.
    ``cells`` is the live object id -> cell map, updated in place."""
    obj_id, old, new = report.obj_id, report.old, report.new
    try:
        old_cell = grid.locate(old) if old is not None else None
        new_cell = grid.locate(new) if new is not None else None
    except OutOfDomainError:
        return False
    if (old is None and new is None) or cells.get(obj_id) != old_cell:
        return False
    if new_cell is None:
        del cells[obj_id]
    else:
        cells[obj_id] = new_cell
    old_owner = assignment[old_cell] if old_cell is not None else None
    new_owner = assignment[new_cell] if new_cell is not None else None
    if old_owner is not None and old_owner == new_owner:
        parts.setdefault(old_owner, []).append((obj_id, old, old_cell, new, new_cell))
        return True
    if old_owner is not None:
        parts.setdefault(old_owner, []).append((obj_id, old, old_cell, None, None))
    if new_owner is not None:
        parts.setdefault(new_owner, []).append((obj_id, None, None, new, new_cell))
    return True


REPORT_KINDS = ("insert", "insert live", "stay", "move", "old elsewhere in cell", "old anywhere",
                "remove", "unknown id", "neither")


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(ENGINE_MODES), data=st.data())
def test_entrance_verdicts_match_locating_both_points(mode, data):
    # the entrance locates only what its recorded point and cell do not
    # settle; every verdict, cell and part must be the ones that locating
    # both points of every report gives, on both pumps
    grid = GridIndex(4)
    edges = sorted(set(grid.xs))
    coord = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(edges + [-0.0, math.nan, 1.5, -0.25]),
    )
    anywhere = st.builds(Point, coord, coord)

    def in_cell(cell):
        # a point of the cell: its low edges (-0.0 for 0.0) or inside
        def axis(lo, hi):
            low = [lo, -0.0] if lo == 0.0 else [lo]
            return st.one_of(st.sampled_from(low), st.floats(lo, hi, exclude_max=True))
        b = grid.cell_bounds(cell)
        return st.builds(Point, axis(b.x_lo, b.x_hi), axis(b.y_lo, b.y_hi))

    def same_value(p):
        # an equal point that is another object, with 0.0 and -0.0 swapped
        return Point(*(-v if v == 0.0 else v for v in p))

    clusters = {policy: make_cluster(grid_n=4, index_workers=3, engine=mode, loopback_policy=policy, seed=3)
                for policy in ("fifo", "random")}
    assignment = clusters["fifo"].entrance.assignment
    cells: dict[int, CellId] = {}
    points: dict[int, Point] = {}
    next_id = 0
    for _ in range(data.draw(st.integers(1, 4), label="ticks")):
        reports, parts, errors = [], {}, 0
        for _ in range(data.draw(st.integers(0, 12), label="reports")):
            kind = data.draw(st.sampled_from(REPORT_KINDS), label="kind")
            live = sorted(cells)
            if not live and kind not in ("insert", "unknown id", "neither"):
                kind = "insert"
            if kind == "insert":
                report = ObjectUpdate(next_id, None, data.draw(anywhere))
                next_id += 1
            elif kind == "unknown id":
                old = data.draw(st.one_of(st.none(), anywhere))
                report = ObjectUpdate(1000 + next_id, old, data.draw(st.one_of(st.none(), anywhere)))
                next_id += 1
            elif kind == "neither":
                report = ObjectUpdate(data.draw(st.sampled_from(live + [next_id])), None, None)
            else:
                obj = data.draw(st.sampled_from(live), label="live id")
                cell = cells[obj]
                if kind == "insert live":
                    report = ObjectUpdate(obj, None, data.draw(anywhere))
                elif kind == "stay":
                    report = ObjectUpdate(obj, same_value(points[obj]), data.draw(in_cell(cell)))
                elif kind == "move":
                    report = ObjectUpdate(obj, points[obj], data.draw(anywhere))
                elif kind == "old elsewhere in cell":
                    report = ObjectUpdate(obj, data.draw(in_cell(cell)), data.draw(anywhere))
                elif kind == "old anywhere":
                    report = ObjectUpdate(obj, data.draw(anywhere), data.draw(anywhere))
                else:
                    report = ObjectUpdate(obj, points[obj], None)
            if locate_both_points(grid, assignment, cells, report, parts):
                if report.new is None:
                    del points[report.obj_id]
                else:
                    points[report.obj_id] = report.new
            else:
                errors += 1
            reports.append(report)
        expected = {iw: ObjectBatch(tuple(batch)) for iw, batch in parts.items()}
        for policy, cluster in clusters.items():
            trace = []
            cluster._transport.trace = trace
            report = cluster.run_tick(reports)
            assert report.errors == errors, policy
            assert cluster.entrance.object_cells == cells, policy
            assert cluster.entrance.object_points == points, policy
            sent = {m.receiver: m.body for m in trace if isinstance(m.body, ObjectBatch)}
            assert len(sent) == sum(isinstance(m.body, ObjectBatch) for m in trace), policy
            assert sent == expected, policy
    for cluster in clusters.values():
        cluster.close()


def test_coverage_values_outside_the_classes_raise():
    cluster = make_cluster()
    iw = cluster.index_workers[0]
    c = Circle(Point(0.05, 0.05), 0.01)
    qw = cluster.qw_ids[0]
    for bad in (3, -1):
        with pytest.raises(KeyError):
            iw.handle(Message(ENTRANCE, iw.id, 0, CellSearch(1, c, ((CellId(0, 0), bad),), qw)))
        for transition in ((CellId(0, 0), 0, bad), (CellId(0, 0), bad, 0)):
            with pytest.raises(KeyError):
                iw.handle(Message(ENTRANCE, iw.id, 0, QueryMove(2, c, (transition,), qw)))


def digest_from_scratch(cluster):
    """The results digest by its definition: per query worker, the hash of
    every query's sorted result in query-id order; XORed over workers."""
    total = 0
    for qw in cluster.query_workers:
        h = hashlib.sha256()
        for q_id in sorted(qw.queries):
            h.update(repr((q_id, sorted(qw.queries[q_id].counts))).encode())
        total ^= int.from_bytes(h.digest(), "big")
    return total.to_bytes(32, "big").hex()


def test_results_digest_equals_a_from_scratch_hash():
    # the query worker re-encodes only the queries that changed since its
    # last barrier; over reports, moves, expiry and re-registration the
    # digest must still be the hash of every result
    for mode in ("drqa", "gi"):
        for policy in ("fifo", "random"):
            rng = random.Random(41)
            cluster = make_cluster(engine=mode, loopback_policy=policy, seed=7)
            positions, events = seed_events(rng, 800)
            cluster.run_tick(events)
            circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(8)}
            report = cluster.run_tick([QueryRegister(q, c, 0, 100) for q, c in circles.items()])
            assert report.results_digest == digest_from_scratch(cluster)
            next_q = len(circles)
            for tick in range(6):
                events = random_moves(rng, positions, 80)
                moved, expired, again = rng.sample(sorted(circles), 3)
                circles[moved] = Circle(Point(rng.random(), rng.random()), 0.15)
                circles[again] = Circle(Point(rng.random(), rng.random()), 0.2)
                circles[next_q] = Circle(Point(rng.random(), rng.random()), 0.1)
                del circles[expired]
                events += [QueryMove(moved, circles[moved]), QueryExpire(expired),
                           QueryRegister(again, circles[again], 0, 100),
                           QueryRegister(next_q, circles[next_q], 0, 100)]
                next_q += 1
                rng.shuffle(events)
                before = report.results_digest
                report = cluster.run_tick(events)
                key = (mode, policy, tick)
                assert report.results_digest == digest_from_scratch(cluster) != before, key
                for q, c in circles.items():
                    assert cluster.query_result(q) == ns_search(positions, c), key + (q,)
                for qw in cluster.query_workers:
                    assert qw._encoded.keys() == qw.queries.keys(), key
                # a tick with no event changes no result
                report = cluster.run_tick([])
                assert report.results_digest == digest_from_scratch(cluster), key


def test_digest_reencodes_a_completed_or_replaced_state():
    # states that change outside the usual traffic: a partial completing a
    # registration that was still awaiting it at the last barrier, and a
    # registration replacing a live state
    cluster = Cluster(ClusterSpec(grid_n=10, index_workers=2, query_workers=1))
    cluster.run_tick([ObjectUpdate(1, None, Point(0.5, 0.5))])
    qw = cluster.query_workers[0]
    send = cluster._transport.send
    circle = Circle(Point(0.5, 0.5), 0.1)
    for sender, body, result in (
        (ENTRANCE, QueryRegister(9, circle, 0, 100, (2,)), set()),  # awaits index worker 2
        (2, PartialResult(9, 2, (1,)), {1}),
        (ENTRANCE, QueryRegister(9, circle, 0, 100, ()), set()),
    ):
        send(sender, qw.id, body)
        report = cluster.run_tick([])
        assert cluster.query_result(9) == result
        assert report.results_digest == digest_from_scratch(cluster), body
