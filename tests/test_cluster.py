import random

import pytest

from rangemon.baselines import ns_search
from rangemon.cluster import (
    ENTRANCE,
    Cluster,
    ClusterSpec,
    EntranceWorker,
    QueryCounts,
    RoutingTable,
)
from rangemon.errors import DuplicatePartialError, InconsistentUpdateError, UnexpectedCellError
from rangemon.geometry import Circle, Point
from rangemon.grid import CandidateCells, CellId
from rangemon.cluster import QueryWorker
from rangemon.transport import LoopbackTransport
from rangemon.wire import (
    Message,
    ObjectUpdate,
    QueryExpire,
    QueryMove,
    QueryRegister,
    ResultDelta,
    TickBarrier,
)


def gr_of(*cells):
    return CandidateCells(set(), {CellId(*c) for c in cells})


def test_routing_threshold_at_jaccard_one_third():
    # |{01} | / |{00, 01, 02}| = 1/3: similar enough at 0.3, not at 0.4
    a = gr_of((0, 0), (0, 1))
    b = gr_of((0, 1), (0, 2))
    for threshold, expected in ((0.3, 10), (0.4, 11)):
        rt = RoutingTable([10, 11], threshold=threshold)
        assert rt.route(1, a) == 10
        assert rt.route(2, b) == expected


def test_routing_similarity_and_load():
    rt = RoutingTable([10, 11], threshold=0.5)
    w1 = rt.route(1, gr_of((0, 0), (0, 1)))
    assert w1 == 10  # least loaded, lowest id
    w2 = rt.route(2, gr_of((0, 0), (0, 1)))
    assert w2 == w1  # identical candidate set -> same worker
    w3 = rt.route(3, gr_of((9, 9)))
    assert w3 == 11  # disjoint -> load balance
    rt.release(1)
    rt.release(2)
    assert rt.route(4, gr_of((5, 5))) == 10


def test_routing_no_workers():
    rt = RoutingTable([], threshold=0.5)
    with pytest.raises(ValueError):
        rt.route(1, gr_of((0, 0)))


def test_collect_partial_protocol():
    gr = CandidateCells(set(), {CellId(0, 0), CellId(0, 1), CellId(0, 2)})
    keys = tuple(sorted(gr.partial))
    state = QueryCounts(1, keys)
    QueryWorker.collect_partial(state, keys[0], (1, 2))
    QueryWorker.collect_partial(state, keys[1], (3,))
    assert not state.ready()
    with pytest.raises(DuplicatePartialError):
        QueryWorker.collect_partial(state, keys[0], (1, 2))
    with pytest.raises(UnexpectedCellError):
        QueryWorker.collect_partial(state, CellId(9, 9), ())
    QueryWorker.collect_partial(state, keys[2], (4,))
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
    cluster = make_cluster()
    trace = []
    cluster._transport.trace = trace
    # within one cell: exactly one entrance -> index worker message
    cluster.run_tick([ObjectUpdate(1, None, Point(0.05, 0.05))])
    del trace[:]
    cluster.run_tick([ObjectUpdate(1, Point(0.05, 0.05), Point(0.051, 0.051))])
    fanned = [m for m in trace if m.sender == 1 and isinstance(m.body, ObjectUpdate)]
    assert len(fanned) == 1
    # crossing a worker boundary: two messages with old/new split
    del trace[:]
    cluster.run_tick([ObjectUpdate(1, Point(0.051, 0.051), Point(0.95, 0.95))])
    fanned = [m for m in trace if m.sender == 1 and isinstance(m.body, ObjectUpdate)]
    assert len(fanned) == 2
    halves = sorted((m.body.old is None, m.body.new is None) for m in fanned)
    assert halves == [(False, True), (True, False)]


def test_query_fanout_spans_workers():
    cluster = make_cluster(grid_n=10, index_workers=5)
    trace = []
    cluster._transport.trace = trace
    # a vertical stripe of cells crosses several row-major blocks
    circle = Circle(Point(0.55, 0.5), 0.35)
    gr = cluster.grid.candidate_cells(circle)
    owners = {cluster.entrance.owner(c) for c in gr.all_cells()}
    cluster.run_tick([QueryRegister(1, circle, 0, 100)])
    from rangemon.wire import CellSearch
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
    # 200 distinct ids registered and expired over several ticks; the
    # entrance's epochs and the query workers' expiry records keep only
    # what the live queries need once each tick has drained
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
            assert len(cluster.entrance._epochs) == len(circles), (mode, tick)
            assert all(not qw._expired and not qw._stash for qw in cluster.query_workers), (mode, tick)
        # an id whose epoch was forgotten registers afresh
        circles[0] = Circle(Point(0.5, 0.5), 0.2)
        cluster.run_tick([QueryRegister(0, circles[0], 0, 100)] + random_moves(rng, positions, 100))
        for q, c in circles.items():
            assert cluster.query_result(q) == ns_search(positions, c), (mode, q)


def test_partial_results_once_per_cell_per_registration():
    rng = random.Random(4)
    cluster = make_cluster()
    _, events = seed_events(rng, 1000)
    cluster.run_tick(events)
    trace = []
    cluster._transport.trace = trace
    c = Circle(Point(0.4, 0.6), 0.22)
    cluster.run_tick([QueryRegister(7, c, 0, 100)])
    from rangemon.wire import CellSearch, PartialResult
    searches = [m.body for m in trace if isinstance(m.body, CellSearch)]
    partials = [m.body for m in trace if isinstance(m.body, PartialResult)]
    listed = [cell for s in searches for cell, _ in s.entries]
    seen = [p.key for p in partials]
    assert sorted(listed) == sorted(seen)  # exactly one partial per listed cell
    assert len(set(seen)) == len(seen)


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
        held = [obj for iw in cluster.index_workers for obj in iw.owned]
        assert sorted(held) == sorted(positions)
        for iw in cluster.index_workers:
            for obj, p in iw.owned.items():
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
                assert m.body.add or m.body.remove
                carried[m.body.q_id] += m.body.add + m.body.remove
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
    # the new cell already claims the object, so the insertion raises
    iw.cell(cluster.grid.locate(new)).objects[999] = new
    with pytest.raises(InconsistentUpdateError):
        iw.handle(Message(ENTRANCE, iw.id, 0, ObjectUpdate(999, old, new)))
    cluster._transport.pump()
    assert 999 not in cluster.query_result(1)


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
    state = QueryCounts(1, (CellId(0, 0), CellId(0, 1)))
    QueryWorker.collect_partial(state, CellId(0, 0), (1, 2))
    QueryWorker.collect_partial(state, CellId(0, 1), (2, 3))
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
        epoch = qw.queries[q_id].epoch
        qw.handle(Message(cluster.iw_ids[0], qw.id, 0, ResultDelta(q_id, add, remove, epoch)))

    inject(0, add=(member,))  # a second ENTER: count 2
    assert cluster.run_tick([]).queries_ready == 2
    inject(0, remove=(member,))  # back to count 1
    assert cluster.run_tick([]).queries_ready == 3
    inject(1, remove=(outsider,))  # a LEAVE that finds no count
    assert cluster.run_tick([]).queries_ready == 2
    assert cluster.run_tick(random_moves(rng, positions, 100)).queries_ready == 2


def test_reregistration_within_a_tick_of_object_reports():
    # reports dispatched before the re-registration reach the old circle's
    # cells, whose deltas then race the new registration's partials; the
    # registration epoch on every delta keeps them out of the new result
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
