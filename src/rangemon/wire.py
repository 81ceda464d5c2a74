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

WIRE_VERSION = 3

_HEADER = struct.Struct("<BBQQQ")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_CELL = struct.Struct("<qq")


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
    keys: tuple[CellId, ...] = ()  # pending keys the query worker must collect
    epoch: int = 0  # registration generation; partials are matched against it


@dataclass(frozen=True)
class QueryMove:
    kind = Kind.QUERY_MOVE
    q_id: int
    circle: Circle
    # per-cell (cell, old coverage, new coverage) for the owning index worker
    transitions: tuple[tuple[CellId, int, int], ...] = ()
    query_worker: int = 0
    epoch: int = 0  # the query's registration generation, stamped on its deltas


@dataclass(frozen=True)
class CellSearch:
    kind = Kind.CELL_SEARCH
    q_id: int
    circle: Circle
    entries: tuple[tuple[CellId, int], ...]  # (cell, coverage class)
    query_worker: int
    scan_all: bool = False  # ns mode: ignore entries, scan every object the worker holds
    epoch: int = 0


@dataclass(frozen=True)
class PartialResult:
    kind = Kind.PARTIAL_RESULT
    q_id: int
    key: CellId  # the searched cell, or (-1, worker) for whole-worker scans
    ids: tuple[int, ...]
    epoch: int = 0


@dataclass(frozen=True)
class ResultDelta:
    # a net change of one query's result: no id is in both add and remove
    kind = Kind.RESULT_DELTA
    q_id: int
    add: tuple[int, ...] = ()
    remove: tuple[int, ...] = ()
    epoch: int = 0  # the registration generation the change belongs to


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


def _cells(cells) -> bytes:
    return _U32.pack(len(cells)) + b"".join(_CELL.pack(c[0], c[1]) for c in cells)


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
            + _cells(body.keys) + _U32.pack(body.epoch)
        )
    if isinstance(body, QueryMove):
        out = _U64.pack(body.q_id) + _circle(body.circle) + _U32.pack(len(body.transitions))
        for cell, old_cov, new_cov in body.transitions:
            out += _CELL.pack(cell[0], cell[1]) + bytes([old_cov, new_cov])
        return out + _U64.pack(body.query_worker) + _U32.pack(body.epoch)
    if isinstance(body, CellSearch):
        out = _U64.pack(body.q_id) + _circle(body.circle) + _U32.pack(len(body.entries))
        for cell, cov in body.entries:
            out += _CELL.pack(cell[0], cell[1]) + bytes([cov])
        return (
            out + _U64.pack(body.query_worker)
            + bytes([1 if body.scan_all else 0]) + _U32.pack(body.epoch)
        )
    if isinstance(body, PartialResult):
        return (
            _U64.pack(body.q_id) + _CELL.pack(body.key[0], body.key[1])
            + _ids(body.ids) + _U32.pack(body.epoch)
        )
    if isinstance(body, ResultDelta):
        return _U64.pack(body.q_id) + _ids(body.add) + _ids(body.remove) + _U32.pack(body.epoch)
    if isinstance(body, QueryExpire):
        return _U64.pack(body.q_id)
    if isinstance(body, TickBarrier):
        return (
            _I64.pack(body.tick)
            + struct.pack("<QQQQ", body.messages, body.objects, body.ready, body.examined)
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

    def cells(self) -> tuple[CellId, ...]:
        (count,) = self.unpack(_U32)
        return tuple(CellId(*self.unpack(_CELL)) for _ in range(count))

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
        keys = r.cells()
        (epoch,) = r.unpack(_U32)
        body = QueryRegister(q_id, circle, t_start, t_end, keys, epoch)
    elif kind is Kind.QUERY_MOVE:
        (q_id,) = r.unpack(_U64)
        circle = r.circle()
        (count,) = r.unpack(_U32)
        transitions = []
        for _ in range(count):
            cell = CellId(*r.unpack(_CELL))
            transitions.append((cell, r.u8(), r.u8()))
        (qw,) = r.unpack(_U64)
        (epoch,) = r.unpack(_U32)
        body = QueryMove(q_id, circle, tuple(transitions), qw, epoch)
    elif kind is Kind.CELL_SEARCH:
        (q_id,) = r.unpack(_U64)
        circle = r.circle()
        (count,) = r.unpack(_U32)
        entries = []
        for _ in range(count):
            cell = CellId(*r.unpack(_CELL))
            entries.append((cell, r.u8()))
        (qw,) = r.unpack(_U64)
        scan_all = bool(r.u8())
        (epoch,) = r.unpack(_U32)
        body = CellSearch(q_id, circle, tuple(entries), qw, scan_all, epoch)
    elif kind is Kind.PARTIAL_RESULT:
        (q_id,) = r.unpack(_U64)
        key = CellId(*r.unpack(_CELL))
        ids = r.ids()
        (epoch,) = r.unpack(_U32)
        body = PartialResult(q_id, key, ids, epoch)
    elif kind is Kind.RESULT_DELTA:
        (q_id,) = r.unpack(_U64)
        add, remove = r.ids(), r.ids()
        (epoch,) = r.unpack(_U32)
        body = ResultDelta(q_id, add, remove, epoch)
    elif kind is Kind.QUERY_EXPIRE:
        (q_id,) = r.unpack(_U64)
        body = QueryExpire(q_id)
    elif kind is Kind.TICK_BARRIER:
        (tick,) = r.unpack(_I64)
        messages, objects, ready, examined = struct.unpack_from("<QQQQ", r.buf, r.off)
        r.off += 32
        dlen = r.u8()
        digest = r.buf[r.off:r.off + dlen]
        r.off += dlen
        body = TickBarrier(tick, messages, objects, ready, examined, digest)
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
