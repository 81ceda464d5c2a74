import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rangemon.baselines import ns_search
from rangemon.cluster import Cluster, ClusterSpec
from rangemon.geometry import Circle, Point
from rangemon.grid import CellId
from rangemon.wire import (
    CellSearch,
    Kind,
    Message,
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
    assert payload[0] == 6                      # wire version
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
# (and the scan flag from kind 4).  Each frame carries the current
# version byte


def test_query_register_golden_v4():
    # version 4 made the keys the index workers' ids
    body = QueryRegister(3, Circle(Point(0.5, 0.5), 0.25), 0, 100, (2, 5))
    expected = bytes.fromhex(
        "0000005e" "06" "02" + _GOLDEN_HEAD                     # length, version 6, kind 2
        + "0000000000000000" "6400000000000000"                 # t_start 0, t_end 100
        + "02000000" "0200000000000000" "0500000000000000"      # keys: index workers 2, 5
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_query_move_golden_v3():
    # version 6 dropped the registration epoch that version 3 appended
    body = QueryMove(3, Circle(Point(0.5, 0.5), 0.25), ((CellId(1, 2), 1, 2),), 6)
    expected = bytes.fromhex(
        "00000058" "06" "03" + _GOLDEN_HEAD                     # length, version 6, kind 3
        + "01000000" "0100000000000000" "0200000000000000"      # one transition: cell (1, 2)
        + "01" "02"                                             # partial -> full
        + "0600000000000000"                                    # query worker
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_cell_search_golden_v6():
    # version 6 dropped the scan flag: an ns index worker scans all it holds
    body = CellSearch(3, Circle(Point(0.5, 0.5), 0.25), ((CellId(1, 2), 2),), 6)
    expected = bytes.fromhex(
        "00000057" "06" "04" + _GOLDEN_HEAD                     # length, version 6, kind 4
        + "01000000" "0100000000000000" "0200000000000000"      # one entry: cell (1, 2)
        + "02"                                                  # full
        + "0600000000000000"                                    # query worker
    )
    assert encode_message(Message(1, 6, 3, body)) == expected


def test_partial_result_golden_v4():
    # version 4 keyed a partial by the sending index worker
    body = PartialResult(3, 2, (10, 11))
    expected = bytes.fromhex(
        "0000003e" "06" "05"                                    # length, version 6, kind 5
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
        "00000066" "06" "06"                                    # length, version 6, kind 6
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
        "0000004c" "06" "08"                                    # length, version 6, kind 8
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
    # header(26) + obj_id(8) + flags(1), then new.x, new.y
    x, y = struct.unpack_from("<dd", payload, 35)
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
    rng = random.Random(21)
    positions = {i: Point(rng.random(), rng.random()) for i in range(400)}
    circles = {q: Circle(Point(rng.random(), rng.random()), 0.15) for q in range(5)}

    def drive(transport):
        cluster = Cluster(ClusterSpec(
            grid_n=8, index_workers=2, query_workers=2, alpha=6, m=4, transport=transport,
        ))
        try:
            cluster.run_tick([ObjectUpdate(o, None, p) for o, p in positions.items()])
            cluster.run_tick([QueryRegister(q, c, 0, 50) for q, c in circles.items()])
            moves = []
            current = dict(positions)
            move_rng = random.Random(22)
            for obj in list(current)[:100]:
                old = current[obj]
                new = Point(move_rng.random(), move_rng.random())
                current[obj] = new
                moves.append(ObjectUpdate(obj, old, new))
            report = cluster.run_tick(moves)
            return cluster.results(), report.results_digest, current
        finally:
            cluster.close()

    loop_results, loop_digest, final_positions = drive("loopback")
    sock_results, sock_digest, _ = drive("socket")
    assert sock_results == loop_results
    assert sock_digest == loop_digest
    for q, c in circles.items():
        assert sock_results[q] == ns_search(final_positions, c)
