import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rangemon.baselines import ns_search
from rangemon.cluster import ENGINE_MODES, Cluster, ClusterSpec
from rangemon.errors import TransportError
from rangemon.geometry import Circle, Point
from rangemon.grid import CellId
from rangemon.transport import SocketTransport
from rangemon.wire import (
    CellSearch,
    Kind,
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
    WIRE_VERSION,
    decode_message,
    encode_message,
    peek_receiver,
)

BODIES = [
    ObjectUpdate(7, Point(0.1, 0.2), Point(0.3, 0.4)),
    ObjectUpdate(8, None, Point(0.3, 0.4)),
    ObjectUpdate(9, Point(0.1, 0.2), None),
    QueryRegister(3, Circle(Point(0.5, 0.5), 0.05), 0, 100, (2, 3, 5)),
    QueryMove(3, Circle(Point(0.6, 0.5), 0.05),
              ((CellId(4, 4), 1, 2), (CellId(4, 5), 2, 0)), 6),
    CellSearch(3, Circle(Point(0.5, 0.5), 0.05), ((CellId(1, 2), 2),), 6),
    CellSearch(4, Circle(Point(0.5, 0.5), 0.05), (), 6),
    PartialResult(3, 2, (10, 11, 12)),
    PartialResult(4, 5, ()),
    ResultDelta(((3, 2, 1), (4, 0, 1)), (1, 2), (3, 5)),
    QueryExpire(3),
    TickBarrier(5, 100, 42, 7, 1234, 3, b"\x01" * 32),
    ResultDelta(),
    # appended, so the earlier entries keep their test ids
    ObjectBatch(),
    ObjectBatch((
        (7, Point(0.1, 0.2), CellId(1, 2), Point(0.11, 0.21), CellId(1, 2)),  # within a cell
        (8, Point(0.3, 0.4), CellId(3, 4), None, None),                       # removal only
        (9, None, None, Point(0.5, 0.6), CellId(5, 6)),                       # insertion only
        (10, Point(0.1, 0.2), CellId(1, 2), Point(0.9, 0.2), CellId(1, 9)),   # across cells
    )),
    ObjectReports(),
    ObjectReports((
        ObjectUpdate(7, Point(0.1, 0.2), Point(0.3, 0.4)),
        ObjectUpdate(8, None, Point(0.3, 0.4)),
        ObjectUpdate(9, Point(0.1, 0.2), None),
        ObjectUpdate(10, None, None),  # the entrance rejects it; the wire carries it
    )),
]


@pytest.mark.parametrize("body", BODIES, ids=lambda b: type(b).__name__ + str(BODIES.index(b) if b in BODIES else ""))
def test_roundtrip(body):
    msg = Message(sender=1, receiver=6, seq=99, body=body)
    frame = encode_message(msg)
    assert decode_message(frame) == msg


def test_peek_receiver():
    frame = encode_message(Message(2, 5, 1, QueryExpire(1)))
    assert peek_receiver(frame[4:]) == 5


def test_frame_layout_golden():
    # pin the byte layout: length prefix BE; header and ids LE
    msg = Message(sender=1, receiver=2, seq=3, body=QueryExpire(0x0A))
    frame = encode_message(msg)
    assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
    payload = frame[4:]
    assert payload[0] == 8                      # wire version
    assert payload[1] == int(Kind.QUERY_EXPIRE)  # kind tag
    assert payload[2:10] == (3).to_bytes(8, "little")   # seq
    assert payload[10:18] == (1).to_bytes(8, "little")  # sender
    assert payload[18:26] == (2).to_bytes(8, "little")  # receiver
    assert payload[26:34] == (0x0A).to_bytes(8, "little")  # q_id
    assert len(payload) == 34


# shared by the golden frames below: header with seq 3, sender 1,
# receiver 6, then q_id 3 and the circle ((0.5, 0.5), 0.25)
_GOLDEN_HEAD = (
    "0300000000000000" "0100000000000000" "0600000000000000"  # seq, sender, receiver
    "0300000000000000"                                        # q_id
    "000000000000e03f" "000000000000e03f" "000000000000d03f"  # cx, cy, r
)


# each test is named for the version that gave its kind the fields it
# pins; version 6 then dropped the registration epoch from kinds 2 to 6
# (and the scan flag from kind 4), version 7 gave kind 1 its leading
# form byte, and version 8 added kind 1's form 2.  Each frame carries the
# current version byte


def test_object_update_golden_v7():
    # form 0: one client report, points only
    body = ObjectUpdate(7, None, Point(0.5, 0.25))
    expected = bytes.fromhex(
        "00000034" "08" "01"                                    # length, version 8, kind 1
        "0300000000000000" "0000000000000000" "0100000000000000"  # seq, sender 0, receiver 1
        "00"                                                    # form: one report
        "0700000000000000" "02"                                 # obj_id 7, flags: new only
        "000000000000e03f" "000000000000d03f"                   # new (0.5, 0.25)
    )
    assert encode_message(Message(0, 1, 3, body)) == expected


def test_object_batch_golden_v7():
    # form 1: the entrance's frame to one index worker, each side with its cell
    body = ObjectBatch((
        (7, Point(0.5, 0.25), CellId(1, 2), Point(0.5, 0.5), CellId(1, 3)),
        (8, Point(0.25, 0.5), CellId(2, 1), None, None),
    ))
    expected = bytes.fromhex(
        "00000091" "08" "01"                                    # length, version 8, kind 1
        "0300000000000000" "0100000000000000" "0200000000000000"  # seq, sender 1, receiver 2
        "01" "02000000"                                         # form: batch, two parts
        "0700000000000000" "03"                                 # obj_id 7, flags: old and new
        "000000000000e03f" "000000000000d03f"                   # old (0.5, 0.25)
        "0100000000000000" "0200000000000000"                   # old cell (1, 2)
        "000000000000e03f" "000000000000e03f"                   # new (0.5, 0.5)
        "0100000000000000" "0300000000000000"                   # new cell (1, 3)
        "0800000000000000" "01"                                 # obj_id 8, flags: old only
        "000000000000d03f" "000000000000e03f"                   # old (0.25, 0.5)
        "0200000000000000" "0100000000000000"                   # old cell (2, 1)
    )
    assert encode_message(Message(1, 2, 3, body)) == expected


def test_object_reports_golden_v8():
    # form 2: the client's reports of one tick, points only
    body = ObjectReports((
        ObjectUpdate(7, Point(0.5, 0.25), Point(0.5, 0.5)),
        ObjectUpdate(8, Point(0.25, 0.5), None),
    ))
    expected = bytes.fromhex(
        "00000061" "08" "01"                                    # length, version 8, kind 1
        "0300000000000000" "0000000000000000" "0100000000000000"  # seq, sender 0, receiver 1
        "02" "02000000"                                         # form: client reports, two
        "0700000000000000" "03"                                 # obj_id 7, flags: old and new
        "000000000000e03f" "000000000000d03f"                   # old (0.5, 0.25)
        "000000000000e03f" "000000000000e03f"                   # new (0.5, 0.5)
        "0800000000000000" "01"                                 # obj_id 8, flags: old only
        "000000000000d03f" "000000000000e03f"                   # old (0.25, 0.5)
    )
    assert encode_message(Message(0, 1, 3, body)) == expected


def test_unknown_object_update_form_rejected():
    frame = bytearray(encode_message(Message(1, 2, 3, ObjectBatch())))
    frame[4 + 26] = 3  # the form byte after the header; forms 0 to 2 are taken
    with pytest.raises(ValueError):
        decode_message(bytes(frame))


def test_query_register_golden_v4():
    # version 4 made the keys the index workers' ids
    body = QueryRegister(3, Circle(Point(0.5, 0.5), 0.25), 0, 100, (2, 5))
    expected = bytes.fromhex(
        "0000005e" "08" "02" + _GOLDEN_HEAD                     # length, version 8, kind 2
        + "0000000000000000" "6400000000000000"                 # t_start 0, t_end 100
        + "02000000" "0200000000000000" "0500000000000000"      # keys: index workers 2, 5
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_query_move_golden_v3():
    # version 6 dropped the registration epoch that version 3 appended
    body = QueryMove(3, Circle(Point(0.5, 0.5), 0.25), ((CellId(1, 2), 1, 2),), 6)
    expected = bytes.fromhex(
        "00000058" "08" "03" + _GOLDEN_HEAD                     # length, version 8, kind 3
        + "01000000" "0100000000000000" "0200000000000000"      # one transition: cell (1, 2)
        + "01" "02"                                             # partial -> full
        + "0600000000000000"                                    # query worker
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_cell_search_golden_v6():
    # version 6 dropped the scan flag: an ns index worker scans all it holds
    body = CellSearch(3, Circle(Point(0.5, 0.5), 0.25), ((CellId(1, 2), 2),), 6)
    expected = bytes.fromhex(
        "00000057" "08" "04" + _GOLDEN_HEAD                     # length, version 8, kind 4
        + "01000000" "0100000000000000" "0200000000000000"      # one entry: cell (1, 2)
        + "02"                                                  # full
        + "0600000000000000"                                    # query worker
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_partial_result_golden_v4():
    # version 4 keyed a partial by the sending index worker
    body = PartialResult(3, 2, (10, 11))
    expected = bytes.fromhex(
        "0000003e" "08" "05"                                    # length, version 8, kind 5
        "0300000000000000" "0100000000000000" "0600000000000000"  # seq, sender, receiver
        "0300000000000000"                                      # q_id
        "0200000000000000"                                      # key: index worker 2
        "02000000" "0a00000000000000" "0b00000000000000"        # ids: 10, 11
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_result_delta_golden_v5():
    # version 5 batched a tick's changes for many queries into one frame
    body = ResultDelta(((3, 2, 1), (5, 0, 1)), (10, 11), (12, 13))
    expected = bytes.fromhex(
        "00000066" "08" "06"                                    # length, version 8, kind 6
        "0300000000000000" "0100000000000000" "0600000000000000"  # seq, sender, receiver
        "02000000"                                              # two spans
        "0300000000000000" "02000000" "01000000"                # q 3, 2 adds, 1 remove
        "0500000000000000" "00000000" "01000000"                # q 5, 0 adds, 1 remove
        "02000000" "0a00000000000000" "0b00000000000000"        # add: 10, 11 (query 3)
        "02000000" "0c00000000000000" "0d00000000000000"        # remove: 12 (query 3), 13 (query 5)
    )
    assert encode_message(Message(1, 6, 3, body)) == expected
    assert list(body.per_query()) == [(3, (10, 11), (12,)), (5, (), (13,))]


def test_tick_barrier_golden_v4():
    # version 4 added the rejected-report count before the digest
    body = TickBarrier(5, 1, 2, 3, 4, 6, b"\xab")
    expected = bytes.fromhex(
        "0000004c" "08" "08"                                    # length, version 8, kind 8
        "0300000000000000" "0100000000000000" "0600000000000000"  # seq, sender, receiver
        "0500000000000000"                                      # tick
        "0100000000000000" "0200000000000000"                   # messages, objects
        "0300000000000000" "0400000000000000"                   # ready, examined
        "0600000000000000"                                      # errors
        "01" "ab"                                               # digest length, digest
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_positional_forms_of_query_events():
    # clients build these with the circle alone; routing fields default
    c = Circle(Point(0.5, 0.5), 0.1)
    assert QueryRegister(1, c, 0, 9) == QueryRegister(1, c, 0, 9, ())
    assert QueryMove(1, c) == QueryMove(1, c, (), 0)


def test_wire_doc_matches_code():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "wire-format.md").read_text()
    version = re.search(r"^\| 0 +\| 1 +\| version +\| currently `(\d+)`", doc, re.M)
    assert version is not None, "version row not found in docs/wire-format.md"
    assert int(version.group(1)) == WIRE_VERSION
    kinds = re.search(r"^## Kinds\n(.*?)(?=^## )", doc, re.M | re.S).group(1)
    rows = re.findall(r"^\| *(\d+) *\| *([A-Z_]+) *\|", kinds, re.M)
    assert [(int(tag), name) for tag, name in rows] == [(k.value, k.name) for k in Kind]


def test_coordinates_are_f64_le():
    import struct
    body = ObjectUpdate(1, None, Point(0.25, -0.5))
    payload = encode_message(Message(0, 1, 1, body))[4:]
    # header(26) + form(1) + obj_id(8) + flags(1), then new.x, new.y
    x, y = struct.unpack_from("<dd", payload, 36)
    assert (x, y) == (0.25, -0.5)


def test_bad_version_rejected():
    frame = bytearray(encode_message(Message(1, 2, 3, QueryExpire(1))))
    frame[4] = 9
    with pytest.raises(ValueError):
        decode_message(bytes(frame))


def test_length_mismatch_rejected():
    frame = encode_message(Message(1, 2, 3, QueryExpire(1)))
    with pytest.raises(ValueError):
        decode_message(frame + b"x")


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_roundtrip_ids(q_id, key):
    body = PartialResult(q_id, key, (q_id,))
    msg = Message(0, 1, 1, body)
    assert decode_message(encode_message(msg)) == msg


def test_socket_cluster_matches_loopback():
    # every engine gives the same tick reports and results on real frames
    # as on the loopback: a build, registrations, object moves, query
    # moves, and a registration of a live id (which moves the query)
    rng = random.Random(21)
    positions = {i: Point(rng.random(), rng.random()) for i in range(400)}
    circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(5)}
    ticks = [
        [ObjectUpdate(o, None, p) for o, p in positions.items()],
        [QueryRegister(q, c, 0, 50) for q, c in circles.items()],
    ]
    moves = []
    for obj in list(positions)[:100]:
        new = Point(rng.random(), rng.random())
        moves.append(ObjectUpdate(obj, positions[obj], new))
        positions[obj] = new
    ticks.append(moves)
    for q in circles:
        circles[q] = Circle(Point(rng.random(), rng.random()), 0.15)
    ticks.append([QueryMove(q, c) for q, c in circles.items()])
    circles[0] = Circle(Point(0.5, 0.5), 0.3)
    ticks.append([QueryRegister(0, circles[0], 0, 50)])

    def drive(mode, transport):
        cluster = Cluster(ClusterSpec(
            grid_n=8, index_workers=2, query_workers=2, alpha=6, m=4, engine=mode, transport=transport,
        ))
        try:
            reports = [cluster.run_tick(events).as_dict() for events in ticks]
            return reports, cluster.results()
        finally:
            cluster.close()

    for mode in ENGINE_MODES:
        loop_reports, loop_results = drive(mode, "loopback")
        sock_reports, sock_results = drive(mode, "socket")
        assert sock_reports == loop_reports, mode
        assert sock_results == loop_results, mode
        assert all(r["errors"] == 0 and r["queries_ready"] == len(sock_results) for r in sock_reports[1:])
        for q, c in circles.items():
            assert sock_results[q] == ns_search(positions, c), (mode, q)


def test_socket_send_to_unknown_receiver_raises_in_sender():
    transport = SocketTransport()
    delivered = []
    transport.register(1, delivered.append)
    try:
        with pytest.raises(TransportError):
            transport.send(1, 9, QueryExpire(3))
        transport.send(2, 1, QueryExpire(4))
    finally:
        transport.close()
    # close returns once the reader has handled what was sent
    assert delivered == [Message(2, 1, 1, QueryExpire(4))]
