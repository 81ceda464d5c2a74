"""Message transports.

Both implementations honor the same delivery contract: reliable, FIFO per
(sender, receiver) edge, no duplication.  The in-process loopback is
single-threaded and fully deterministic: its "fifo" policy is one global
queue in send order, and an optional seeded-random policy shuffles the
interleaving of edges for schedule-shaking tests.  The socket transport
gives each node one local socket pair and one reader thread, and carries
every message as a length-prefixed binary frame, exercising the real
wire format.  Both have the same interface (``register``, ``send``,
``close``); an unknown receiver raises :class:`TransportError` in the
sender on either.
"""

from __future__ import annotations

import random
import socket
import threading
from collections import deque
from typing import Callable

from .errors import TransportError
from .wire import Body, Message, decode_payload, encode_message

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


class SocketTransport:
    """One local socket pair per node, carrying the real wire frames.

    ``send`` writes each encoded frame into the receiver's socket under
    that receiver's lock, so frames never interleave and each edge stays
    FIFO.  One reader thread per node decodes its frames and runs its
    handler, so each node handles its inbox sequentially.  The writes
    block while the receiver's socket is full; the cluster's message
    graph has no cycle within a tick (only small barrier
    acknowledgements flow back to the entrance), so two nodes never wait
    on each other."""

    def __init__(self) -> None:
        self._inboxes: dict[int, tuple[socket.socket, threading.Lock]] = {}
        self._readers: list[threading.Thread] = []
        self._seqs: dict[tuple[int, int], int] = {}

    def register(self, node_id: int, handler: Handler) -> None:
        read_end, write_end = socket.socketpair()
        self._inboxes[node_id] = (write_end, threading.Lock())
        reader = threading.Thread(
            target=_read_loop, args=(read_end, handler), name=f"node-{node_id}", daemon=True
        )
        self._readers.append(reader)
        reader.start()

    def send(self, sender: int, receiver: int, body: Body) -> None:
        inbox = self._inboxes.get(receiver)
        if inbox is None:
            raise TransportError(f"edge ({sender} -> {receiver}): unknown receiver")
        conn, lock = inbox
        edge = (sender, receiver)
        with lock:
            seq = self._seqs.get(edge, 0) + 1
            self._seqs[edge] = seq
            try:
                conn.sendall(encode_message(Message(sender, receiver, seq, body)))
            except OSError as exc:
                raise TransportError(f"edge ({sender} -> {receiver}): {exc}") from exc

    def close(self) -> None:
        """Shut every write end, so each reader sees EOF once it has
        handled what was sent, and wait for the readers to end."""
        inboxes, self._inboxes = self._inboxes, {}
        for conn, _ in inboxes.values():
            conn.shutdown(socket.SHUT_WR)
        for reader in self._readers:
            reader.join()
        for conn, _ in inboxes.values():
            conn.close()


def _read_loop(conn: socket.socket, handler: Handler) -> None:
    with conn, conn.makefile("rb") as stream:
        while len(head := stream.read(4)) == 4:
            payload = stream.read(int.from_bytes(head, "big"))
            handler(decode_payload(payload))
