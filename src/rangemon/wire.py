"""Message types and their binary encoding.

Frame layout (documented in docs/wire-format.md): a 4-byte big-endian
length prefix followed by the payload.  Payload header: u8 version,
u8 kind, u64 seq, u64 sender, u64 receiver (integers little-endian).
Kind-specific fields follow; ids are u64, cell coordinates i64 pairs,
spatial coordinates f64 little-endian.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from .geometry import Circle, Point
from .grid import CellId

WIRE_VERSION = 6

_HEADER = struct.Struct("<BBQQQ")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_CELL = struct.Struct("<qq")
_SPAN = struct.Struct("<QII")  # RESULT_DELTA span: q_id, n_add, n_remove


class Kind(enum.IntEnum):
    OBJECT_UPDATE = 1
    QUERY_REGISTER = 2
    QUERY_MOVE = 3
    CELL_SEARCH = 4
    PARTIAL_RESULT = 5
    RESULT_DELTA = 6
    QUERY_EXPIRE = 7
    TICK_BARRIER = 8


@dataclass(frozen=True)
class ObjectUpdate:
    kind = Kind.OBJECT_UPDATE
    obj_id: int
    old: Point | None
    new: Point | None


@dataclass(frozen=True)
class QueryRegister:
    kind = Kind.QUERY_REGISTER
    q_id: int
    circle: Circle
    t_start: int
    t_end: int
    keys: tuple[int, ...] = ()  # index workers whose partials the query worker must collect


@dataclass(frozen=True)
class QueryMove:
    kind = Kind.QUERY_MOVE
    q_id: int
    circle: Circle
    # per-cell (cell, old coverage, new coverage) for the owning index worker
    transitions: tuple[tuple[CellId, int, int], ...] = ()
    query_worker: int = 0


@dataclass(frozen=True)
class CellSearch:
    kind = Kind.CELL_SEARCH
    q_id: int
    circle: Circle
    entries: tuple[tuple[CellId, int], ...]  # (cell, coverage class)
    query_worker: int


@dataclass(frozen=True)
class PartialResult:
    kind = Kind.PARTIAL_RESULT
    q_id: int
    key: int  # the sending index worker: one partial per worker per search
    ids: tuple[int, ...]


@dataclass(frozen=True)
class ResultDelta:
    """One index worker's result changes for the queries of one query
    worker, batched over a tick.  Span i is ``(q_id, n_add, n_remove)``:
    the query, and how many of the next ids of ``add`` and of ``remove``
    are its.  A query has at most one span per frame; an id may be in both
    lists of a span (an object that entered and left within the tick)."""

    kind = Kind.RESULT_DELTA
    spans: tuple[tuple[int, int, int], ...] = ()
    add: tuple[int, ...] = ()
    remove: tuple[int, ...] = ()

    @classmethod
    def single(cls, q_id: int, add: tuple[int, ...] = (), remove: tuple[int, ...] = ()) -> ResultDelta:
        return cls(((q_id, len(add), len(remove)),), add, remove)

    def per_query(self):
        """Yield ``(q_id, add, remove)`` for each span, in order."""
        a = r = 0
        for q_id, n_add, n_remove in self.spans:
            yield q_id, self.add[a:a + n_add], self.remove[r:r + n_remove]
            a += n_add
            r += n_remove


@dataclass(frozen=True)
class QueryExpire:
    kind = Kind.QUERY_EXPIRE
    q_id: int


@dataclass(frozen=True)
class TickBarrier:
    kind = Kind.TICK_BARRIER
    tick: int
    messages: int = 0
    objects: int = 0
    ready: int = 0
    examined: int = 0
    errors: int = 0  # events and reports rejected, and traffic no query state claimed
    digest: bytes = b""


Body = (
    ObjectUpdate | QueryRegister | QueryMove | CellSearch
    | PartialResult | ResultDelta | QueryExpire | TickBarrier
)


@dataclass(frozen=True)
class Message:
    sender: int
    receiver: int
    seq: int
    body: Body


# -- encoding -----------------------------------------------------------------


def _ids(ids) -> bytes:
    return _U32.pack(len(ids)) + b"".join(_U64.pack(i) for i in ids)


def _circle(c: Circle) -> bytes:
    return struct.pack("<ddd", c.center.x, c.center.y, c.radius)


def _encode_body(body: Body) -> bytes:
    if isinstance(body, ObjectUpdate):
        flags = (1 if body.old is not None else 0) | (2 if body.new is not None else 0)
        out = _U64.pack(body.obj_id) + bytes([flags])
        if body.old is not None:
            out += struct.pack("<dd", body.old.x, body.old.y)
        if body.new is not None:
            out += struct.pack("<dd", body.new.x, body.new.y)
        return out
    if isinstance(body, QueryRegister):
        return (
            _U64.pack(body.q_id) + _circle(body.circle)
            + struct.pack("<qq", body.t_start, body.t_end)
            + _ids(body.keys)
        )
    if isinstance(body, QueryMove):
        out = _U64.pack(body.q_id) + _circle(body.circle) + _U32.pack(len(body.transitions))
        for cell, old_cov, new_cov in body.transitions:
            out += _CELL.pack(cell[0], cell[1]) + bytes([old_cov, new_cov])
        return out + _U64.pack(body.query_worker)
    if isinstance(body, CellSearch):
        out = _U64.pack(body.q_id) + _circle(body.circle) + _U32.pack(len(body.entries))
        for cell, cov in body.entries:
            out += _CELL.pack(cell[0], cell[1]) + bytes([cov])
        return out + _U64.pack(body.query_worker)
    if isinstance(body, PartialResult):
        return _U64.pack(body.q_id) + _U64.pack(body.key) + _ids(body.ids)
    if isinstance(body, ResultDelta):
        return (
            _U32.pack(len(body.spans)) + b"".join(_SPAN.pack(*span) for span in body.spans)
            + _ids(body.add) + _ids(body.remove)
        )
    if isinstance(body, QueryExpire):
        return _U64.pack(body.q_id)
    if isinstance(body, TickBarrier):
        return (
            _I64.pack(body.tick)
            + struct.pack("<QQQQQ", body.messages, body.objects, body.ready, body.examined, body.errors)
            + bytes([len(body.digest)]) + body.digest
        )
    raise ValueError(f"unknown body {body!r}")


def encode_message(msg: Message) -> bytes:
    payload = _HEADER.pack(WIRE_VERSION, int(msg.body.kind), msg.seq, msg.sender, msg.receiver)
    payload += _encode_body(msg.body)
    return len(payload).to_bytes(4, "big") + payload


# -- decoding ----------------------------------------------------------------


class _Reader:
    def __init__(self, buf: bytes, offset: int = 0):
        self.buf = buf
        self.off = offset

    def u8(self) -> int:
        v = self.buf[self.off]
        self.off += 1
        return v

    def unpack(self, s: struct.Struct):
        v = s.unpack_from(self.buf, self.off)
        self.off += s.size
        return v

    def ids(self) -> tuple[int, ...]:
        (count,) = self.unpack(_U32)
        return tuple(self.unpack(_U64)[0] for _ in range(count))

    def circle(self) -> Circle:
        x, y, r = struct.unpack_from("<ddd", self.buf, self.off)
        self.off += 24
        return Circle(Point(x, y), r)


def decode_payload(payload: bytes) -> Message:
    version, kind, seq, sender, receiver = _HEADER.unpack_from(payload, 0)
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {version}")
    r = _Reader(payload, _HEADER.size)
    kind = Kind(kind)
    if kind is Kind.OBJECT_UPDATE:
        (obj_id,) = r.unpack(_U64)
        flags = r.u8()
        old = Point(*struct.unpack_from("<dd", r.buf, r.off)) if flags & 1 else None
        if flags & 1:
            r.off += 16
        new = Point(*struct.unpack_from("<dd", r.buf, r.off)) if flags & 2 else None
        if flags & 2:
            r.off += 16
        body: Body = ObjectUpdate(obj_id, old, new)
    elif kind is Kind.QUERY_REGISTER:
        (q_id,) = r.unpack(_U64)
        circle = r.circle()
        t_start, t_end = struct.unpack_from("<qq", r.buf, r.off)
        r.off += 16
        body = QueryRegister(q_id, circle, t_start, t_end, r.ids())
    elif kind is Kind.QUERY_MOVE:
        (q_id,) = r.unpack(_U64)
        circle = r.circle()
        (count,) = r.unpack(_U32)
        transitions = []
        for _ in range(count):
            cell = CellId(*r.unpack(_CELL))
            transitions.append((cell, r.u8(), r.u8()))
        (qw,) = r.unpack(_U64)
        body = QueryMove(q_id, circle, tuple(transitions), qw)
    elif kind is Kind.CELL_SEARCH:
        (q_id,) = r.unpack(_U64)
        circle = r.circle()
        (count,) = r.unpack(_U32)
        entries = []
        for _ in range(count):
            cell = CellId(*r.unpack(_CELL))
            entries.append((cell, r.u8()))
        (qw,) = r.unpack(_U64)
        body = CellSearch(q_id, circle, tuple(entries), qw)
    elif kind is Kind.PARTIAL_RESULT:
        (q_id,) = r.unpack(_U64)
        (key,) = r.unpack(_U64)
        body = PartialResult(q_id, key, r.ids())
    elif kind is Kind.RESULT_DELTA:
        (count,) = r.unpack(_U32)
        spans = tuple(r.unpack(_SPAN) for _ in range(count))
        body = ResultDelta(spans, r.ids(), r.ids())
    elif kind is Kind.QUERY_EXPIRE:
        (q_id,) = r.unpack(_U64)
        body = QueryExpire(q_id)
    elif kind is Kind.TICK_BARRIER:
        (tick,) = r.unpack(_I64)
        messages, objects, ready, examined, errors = struct.unpack_from("<QQQQQ", r.buf, r.off)
        r.off += 40
        dlen = r.u8()
        digest = r.buf[r.off:r.off + dlen]
        r.off += dlen
        body = TickBarrier(tick, messages, objects, ready, examined, errors, digest)
    else:  # pragma: no cover - Kind() above already raises
        raise ValueError(f"unknown kind {kind}")
    return Message(sender, receiver, seq, body)


def decode_message(frame: bytes) -> Message:
    """Decode a full frame (length prefix included)."""
    if len(frame) < 4:
        raise ValueError("short frame")
    n = int.from_bytes(frame[:4], "big")
    if len(frame) != 4 + n:
        raise ValueError(f"frame length mismatch: header says {n}, got {len(frame) - 4}")
    return decode_payload(frame[4:])


def peek_receiver(payload: bytes) -> int:
    """Routing hubs only need the receiver; avoid a full decode."""
    return _HEADER.unpack_from(payload, 0)[4]
