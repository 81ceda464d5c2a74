"""Span tracer for the benchmark's traced run.

Every layer is observed from outside: :func:`install` replaces the public
functions of each ``rangemon`` module with wrappers that open a span on
entry and close it on exit, and restores the originals afterwards.  The
untraced runs never import this module, so they pay nothing.

A span has a name, start, end, parent span and the id of the tick it ran
in.  Spans are kept in memory in flat arrays and written out by
:meth:`Tracer.write` when the run ends.  A span's self time (its duration
minus the time covered by its direct children) is summed per phase and
name as the spans close, so the totals do not depend on how many spans
are kept.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

from rangemon import baselines, cells, cluster, engine, grid, mtree, transport, wire

# Past this many spans the store stops growing; the per-name totals are
# still exact and `dropped` says how many spans were not kept.
MAX_SPANS = 3_000_000

KINDS = [kind.name for kind in wire.Kind]
SEARCH_STATS = ("nodes_visited", "leaf_descents", "cache_hits", "objects_examined")


def carried_ids(body) -> int:
    """Object ids a message carries; kinds that carry none count 0."""
    if isinstance(body, wire.ObjectUpdate):
        return 1
    if isinstance(body, wire.PartialResult):
        return len(body.ids)
    if isinstance(body, wire.ResultDelta):
        return len(body.add) + len(body.remove)
    return 0


class Tracer:
    def __init__(self):
        self.tick = 0
        # phase -> span name -> [calls, self ns]
        self.spans: dict[str, dict[str, list[int]]] = {}
        # phase -> counter name -> value
        self.counts: dict[str, Counter] = {}
        self.sent: list[tuple[int, int, object]] = []  # messages of the open tick
        self.dropped = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [start ns, child ns, span index, name id]
        self._span_name = array("H")
        self._span_tick = array("l")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("l")
        self._patches: list[tuple[object, str, object]] = []
        self.set_phase("setup")

    # -- phases --------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._agg = self.spans.setdefault(phase, {})
        self._counts = self.counts.setdefault(phase, Counter())

    def count(self, name: str, n: int = 1) -> None:
        self._counts[name] += n

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` inside a span called `name`.  `before(args)` and
        `after(result)` run inside the span, so what they cost lands in the
        wrapped function's own self time."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(self._span_start) < MAX_SPANS:
                idx = len(self._span_start)
                self._span_name.append(nid)
                self._span_tick.append(self.tick)
                self._span_parent.append(stack[-1][2] if stack else -1)
                self._span_end.append(0)
                start = clock()
                self._span_start.append(start)
            else:
                idx = -1
                self.dropped += 1
                start = clock()
            frame = [start, 0, idx, nid]
            stack.append(frame)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if idx >= 0:
                    self._span_end[idx] = end
                if stack:
                    stack[-1][1] += duration
                entry = self._agg.get(name)
                if entry is None:
                    entry = self._agg[name] = [0, 0]
                entry[0] += 1
                entry[1] += duration - frame[1]

        return wrapper

    def inside(self, name: str) -> bool:
        """True when the innermost open span is `name`."""
        return bool(self._stack) and self._names[self._stack[-1][3]] == name

    # -- installing ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, replacement) -> None:
        """Replace a module function in every rangemon module that imported it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("rangemon") and getattr(mod, attr, None) is original:
                self.patch(mod, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def encode_sent(self) -> None:
        """Encode each message the tick sent once, as a socket would, and
        count its bytes by kind.  Runs after the tick, outside every span."""
        t0 = time.perf_counter_ns()
        by_kind = Counter()
        for sender, receiver, body in self.sent:
            by_kind[body.kind.name] += len(wire.encode_message(wire.Message(sender, receiver, 0, body)))
        self._counts["wire.encode_ns"] += time.perf_counter_ns() - t0
        for kind, nbytes in by_kind.items():
            self._counts["wire.bytes." + kind] += nbytes
        self.sent = []

    def write(self, path) -> int:
        """Write every kept span as columns of one JSON object; returns the
        number of spans written."""
        out = {
            "names": self._names,
            "dropped": self.dropped,
            "columns": ["name", "tick", "start_ns", "end_ns", "parent"],
            "name": self._span_name.tolist(),
            "tick": self._span_tick.tolist(),
            "start_ns": self._span_start.tolist(),
            "end_ns": self._span_end.tolist(),
            "parent": self._span_parent.tolist(),
        }
        with open(path, "w") as fp:
            json.dump(out, fp, separators=(",", ":"))
        return len(self._span_start)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer.  Call before the cluster
    is built: the transport binds each node's `handle` at registration."""

    def method(cls, attr, name, before=None, after=None):
        tracer.patch(cls, attr, tracer.wrap(name, cls.__dict__[attr], before, after))

    method(cluster.Cluster, "run_tick", "cluster.run_tick")
    method(grid.GridIndex, "locate", "grid.locate")
    method(grid.GridIndex, "candidate_cells", "grid.candidate_cells")

    def snapshot_stats(args):
        worker, msg = args
        if isinstance(msg.body, wire.TickBarrier):
            # the worker resets its SearchStats right after this barrier
            for field in SEARCH_STATS:
                tracer.count("mtree." + field, getattr(worker.stats, field))

    method(cluster.EntranceWorker, "handle", "cluster.entrance")
    method(cluster.RoutingTable, "route", "cluster.routing.route")
    method(cluster.IndexWorker, "handle", "cluster.index", before=snapshot_stats)
    method(cluster.QueryWorker, "handle", "cluster.query")

    method(cells.Cell, "apply_object_update", "cells.apply_object_update",
           after=lambda delta: tracer.count("cells.delta_entries", len(delta)))
    method(cells.Cell, "search", "cells.search")
    method(cells.Cell, "register_partial_and_search", "cells.search")
    method(cells.Cell, "search_oneshot", "cells.search_oneshot")
    method(cells.Cell, "apply_query_transition", "cells.apply_query_transition")

    for attr in ("insert", "remove", "move", "queries_on_path", "search_shared", "search"):
        method(mtree.MTree, attr, "mtree." + attr)
    collect = mtree.MTree.__dict__["_collect"]

    def counted_collect(tree, *args, **kwargs):
        # a materialisation inside search_shared is a cache miss on a
        # fully covered node
        if tracer.inside("mtree.search_shared"):
            tracer.count("mtree.covered_misses")
        return collect(tree, *args, **kwargs)

    tracer.patch(mtree.MTree, "_collect", counted_collect)

    method(engine.QueryState, "apply", "engine.apply")
    method(engine.QueryState, "set_cell", "engine.set_cell")

    def count_send(args):
        _, sender, receiver, body = args
        kind = body.kind.name
        tracer.count("transport.msgs." + kind)
        tracer.count("transport.ids." + kind, carried_ids(body))
        tracer.sent.append((sender, receiver, body))

    method(transport.LoopbackTransport, "pump", "transport.pump")
    method(transport.LoopbackTransport, "send", "transport.send", before=count_send)

    tracer.patch_function(baselines, "gi_search", tracer.wrap("baselines.gi_search", baselines.gi_search))
    for attr in ("insert", "remove", "move"):
        method(baselines.GridStore, attr, "baselines.GridStore")


# Spans and counters reported per phase.  Incremental-phase names carry no
# prefix; the register and setup phases report the listed subset with a
# "register." or "setup." prefix.
INCREMENTAL_SPANS = (
    "grid.locate", "grid.candidate_cells",
    "cluster.entrance", "cluster.routing.route", "cluster.index", "cluster.query",
    "cells.apply_object_update", "cells.search", "cells.search_oneshot", "cells.apply_query_transition",
    "mtree.insert", "mtree.remove", "mtree.move", "mtree.queries_on_path", "mtree.search_shared", "mtree.search",
    "engine.apply", "transport.send", "baselines.gi_search", "baselines.GridStore",
)
INCREMENTAL_COUNTS = ("cells.delta_entries",) + tuple("mtree." + f for f in SEARCH_STATS)
REGISTER_SPANS = ("grid.candidate_cells", "cluster.routing.route", "cluster.query", "cells.search",
                  "mtree.search_shared")
REGISTER_COUNTS = ("mtree.nodes_visited", "mtree.cache_hits", "mtree.objects_examined")
SETUP_SPANS = ("cells.apply_object_update", "mtree.insert")


def layer_metrics(tracer: Tracer, updates: int, state: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metric values with their units.  `updates` is the number of
    object reports plus query moves the incremental phase carried."""
    values: dict[str, tuple[float, str]] = {}

    def phase(name, prefix, spans, counts):
        agg = tracer.spans.get(name, {})
        got = tracer.counts.get(name, Counter())
        for span in spans:
            calls, self_ns = agg.get(span, (0, 0))
            values[prefix + span + ".calls"] = (calls, "count")
            values[prefix + span + ".self_s"] = (self_ns / 1e9, "s")
        for counter in counts:
            values[prefix + counter] = (got[counter], "count")
        return agg, got

    agg, inc = phase("incremental", "", INCREMENTAL_SPANS, INCREMENTAL_COUNTS)
    _, reg = phase("register", "register.", REGISTER_SPANS, REGISTER_COUNTS)
    phase("setup", "setup.", SETUP_SPANS, ())
    for prefix, got in (("", inc), ("register.", reg)):
        # base: fully covered node visits in search_shared, i.e. hits plus
        # materialisations
        covered = got["mtree.cache_hits"] + got["mtree.covered_misses"]
        values[prefix + "mtree.cache_hit_ratio"] = (got["mtree.cache_hits"] / covered if covered else 0.0,
                                                    "ratio")
    values["engine.set_cell.calls"] = (agg.get("engine.set_cell", (0, 0))[0], "count")
    values["transport.pump.self_s"] = (agg.get("transport.pump", (0, 0))[1] / 1e9, "s")
    for kind in KINDS:
        values["transport.msgs." + kind] = (inc["transport.msgs." + kind], "count")
        values["transport.ids." + kind] = (inc["transport.ids." + kind], "count")
    msgs = sum(inc["transport.msgs." + kind] for kind in KINDS)
    values["transport.msgs"] = (msgs, "count")
    values["transport.ids"] = (sum(inc["transport.ids." + kind] for kind in KINDS), "count")
    # base: messages of every kind but barriers, over the updates sent
    data_msgs = msgs - inc["transport.msgs.TICK_BARRIER"]
    values["transport.msgs_per_update"] = (data_msgs / updates if updates else 0.0, "msg/update")
    for kind in KINDS:
        values["wire.bytes." + kind] = (inc["wire.bytes." + kind], "B")
    values["wire.bytes"] = (sum(inc["wire.bytes." + kind] for kind in KINDS), "B")
    values["wire.encode_s"] = (inc["wire.encode_ns"] / 1e9, "s")
    for name, value in state.items():
        values["state." + name] = (value, "count")
    return values


def tree_state(clu) -> dict[str, int]:
    """Sizes of the index workers' trees and caches; read at quiescence."""
    trees = nodes = entries = stale = 0
    for worker in clu.index_workers:
        for cell in worker.cells.values():
            if cell.tree is None:
                continue
            live = {node.id for node in cell.tree.nodes()}
            trees += 1
            nodes += len(live)
            entries += len(cell.cache.sets)
            stale += sum(1 for node_id in cell.cache.sets if node_id not in live)
    return {"trees": trees, "tree_nodes": nodes, "cache_entries": entries, "cache_stale_entries": stale}
