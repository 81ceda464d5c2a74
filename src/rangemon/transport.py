"""Message transports.

Both implementations honor the same delivery contract: reliable, FIFO per
(sender, receiver) edge, no duplication.  The in-process loopback is
single-threaded and fully deterministic: its "fifo" policy is one global
queue in send order, and an optional seeded-random policy shuffles the
interleaving of edges for schedule-shaking tests.  The socket transport
runs one thread per endpoint and routes length-prefixed binary frames
through a local hub, exercising the real wire format.
"""

from __future__ import annotations

import random
import socket
import threading
from collections import deque
from typing import Callable

from .errors import TransportError
from .wire import Body, Message, decode_payload, encode_message, peek_receiver

Handler = Callable[[Message], None]


class LoopbackTransport:
    """In-process queues drained by an explicit pump.

    policy "fifo" keeps one global queue and delivers in global send order
    (deterministic); policy "random" keeps one FIFO queue per edge and
    picks a random nonempty edge each step, which keeps per-edge FIFO but
    shuffles cross-edge interleaving.
    """

    def __init__(self, policy: str = "fifo", seed: int = 0):
        if policy not in ("fifo", "random"):
            raise ValueError(f"unknown pump policy {policy!r}")
        self.policy = policy
        self._rng = random.Random(seed)
        self._queue: deque[Message] = deque()  # fifo
        self._edges: dict[tuple[int, int], deque[Message]] = {}  # random
        self._seqs: dict[tuple[int, int], int] = {}
        self._handlers: dict[int, Handler] = {}
        self.trace: list[Message] | None = None

    def register(self, node_id: int, handler: Handler) -> None:
        self._handlers[node_id] = handler

    def send(self, sender: int, receiver: int, body: Body) -> None:
        if receiver not in self._handlers:
            raise TransportError(f"edge ({sender} -> {receiver}): unknown receiver")
        edge = (sender, receiver)
        seq = self._seqs.get(edge, 0) + 1
        self._seqs[edge] = seq
        msg = Message(sender, receiver, seq, body)
        if self.policy == "fifo":
            self._queue.append(msg)
        else:
            self._edges.setdefault(edge, deque()).append(msg)
        if self.trace is not None:
            self.trace.append(msg)

    def _next(self) -> Message | None:
        if self.policy == "fifo":
            return self._queue.popleft() if self._queue else None
        nonempty = sorted(e for e, q in self._edges.items() if q)
        return self._edges[self._rng.choice(nonempty)].popleft() if nonempty else None

    def pump(self) -> int:
        """Deliver until quiescent; returns the number of deliveries."""
        delivered = 0
        while (msg := self._next()) is not None:
            self._handlers[msg.receiver](msg)
            delivered += 1
        return delivered

    def close(self) -> None:
        pass


# -- socket transport ---------------------------------------------------------


def _recv_exact(conn: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _read_payload(conn: socket.socket) -> bytes | None:
    head = _recv_exact(conn, 4)
    if head is None:
        return None
    return _recv_exact(conn, int.from_bytes(head, "big"))


class SocketHub:
    """Star router: every endpoint connects once (announcing its node id as
    8 little-endian bytes) and frames are forwarded by their receiver field."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._conns: dict[int, socket.socket] = {}
        self._locks: dict[int, threading.Lock] = {}
        self._ready = threading.Event()
        self._expected = 0
        threading.Thread(target=self._accept_loop, name="hub-accept", daemon=True).start()

    def expect(self, count: int) -> None:
        self._expected = count
        if len(self._conns) >= count:
            self._ready.set()

    def wait_ready(self, timeout: float = 10.0) -> None:
        if not self._ready.wait(timeout):
            raise TransportError("hub: not all endpoints connected")

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            raw = _recv_exact(conn, 8)
            if raw is None:
                conn.close()
                continue
            node_id = int.from_bytes(raw, "little")
            self._conns[node_id] = conn
            self._locks[node_id] = threading.Lock()
            if self._expected and len(self._conns) >= self._expected:
                self._ready.set()
            threading.Thread(
                target=self._route_loop, args=(conn,), name=f"hub-route-{node_id}", daemon=True
            ).start()

    def _route_loop(self, conn: socket.socket) -> None:
        while True:
            try:
                payload = _read_payload(conn)
            except OSError:
                return
            if payload is None:
                return
            receiver = peek_receiver(payload)
            dest = self._conns.get(receiver)
            if dest is None:
                raise TransportError(f"hub: no endpoint for receiver {receiver}")
            frame = len(payload).to_bytes(4, "big") + payload
            with self._locks[receiver]:
                try:
                    dest.sendall(frame)
                except OSError:
                    return

    def close(self) -> None:
        self._listener.close()
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass


class SocketEndpoint:
    """One node's connection to the hub; the receive loop runs on its own
    thread, so each node processes its inbox sequentially."""

    def __init__(self, node_id: int, hub_address, handler: Handler):
        self.node_id = node_id
        self._handler = handler
        self._sock = socket.create_connection(hub_address)
        self._sock.sendall(node_id.to_bytes(8, "little"))
        self._seqs: dict[int, int] = {}
        self._wlock = threading.Lock()
        self._thread = threading.Thread(
            target=self._recv_loop, name=f"endpoint-{node_id}", daemon=True
        )
        self._thread.start()

    def send(self, sender: int, receiver: int, body: Body) -> None:
        seq = self._seqs.get(receiver, 0) + 1
        self._seqs[receiver] = seq
        frame = encode_message(Message(sender, receiver, seq, body))
        with self._wlock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise TransportError(f"edge ({sender} -> {receiver}): {exc}") from exc

    def _recv_loop(self) -> None:
        while True:
            try:
                payload = _read_payload(self._sock)
            except OSError:
                return
            if payload is None:
                return
            self._handler(decode_payload(payload))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
