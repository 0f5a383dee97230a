"""Transports moving protocol frames between the hub and its clients.

Both backends speak serialized frames end to end, so a frame log captured
on either is byte-comparable: the in-process loopback encodes and decodes
every message exactly like the TCP transport does.  Delivery is ordered,
reliable and at-most-once per frame on both.
"""

from __future__ import annotations

import socket
import time
from collections import deque

from .wire import HEADER_LEN, Message, WireError, decode_message, encode_message, frame_length

DEFAULT_ROUND_TIMEOUT = 120.0
DRAIN_GRACE = 0.05  # seconds drain waits for one more stale frame

__all__ = [
    "TransportError",
    "ProtocolError",
    "ClientDropout",
    "FrameLog",
    "LoopbackTransport",
    "SocketChannel",
    "SocketServerTransport",
    "serve_clients",
]


class TransportError(RuntimeError):
    pass


class ProtocolError(TransportError):
    """A peer violated the message contract."""


class ClientDropout(TransportError):
    def __init__(self, client_id: int, reason: str = ""):
        super().__init__(f"client {client_id} dropped: {reason}")
        self.client_id = client_id


class FrameLog(list):
    """Recorded (direction, client_id, frame_bytes) triples."""

    def record(self, direction: str, client_id: int, frame: bytes):
        self.append((direction, client_id, frame))


class LoopbackTransport:
    """Single-threaded in-process hub: client handlers run inline on send.

    ``sessions`` maps client id to an object with ``join() -> Message``
    and ``handle(Message) -> list[Message]``; every session's JOIN is queued
    for the hub here.  Frames are fully encoded and decoded on both legs so
    tests observe genuine wire bytes.
    """

    def __init__(self, sessions: dict):
        self.sessions = dict(sessions)
        self.frames = FrameLog()
        self._inbox = {cid: deque() for cid in self.sessions}
        self._dropped = set()
        for cid in sorted(self.sessions):
            self._push_to_server(cid, self.sessions[cid].join())

    def client_ids(self):
        return [cid for cid in sorted(self.sessions) if cid not in self._dropped]

    def _push_to_server(self, cid: int, msg: Message):
        frame = encode_message(msg)
        self.frames.record("client->server", cid, frame)
        self._inbox[cid].append(frame)

    def send(self, client_id: int, msg: Message) -> None:
        if client_id in self._dropped:
            raise ClientDropout(client_id, "already excluded")
        frame = encode_message(msg)
        self.frames.record("server->client", client_id, frame)
        session = self.sessions[client_id]
        for out in session.handle(decode_message(frame)):
            self._push_to_server(client_id, out)

    def recv(self, client_id: int) -> Message:
        if client_id in self._dropped:
            raise ClientDropout(client_id, "already excluded")
        queue = self._inbox[client_id]
        if not queue:
            raise ClientDropout(client_id, "no pending message")
        return decode_message(queue.popleft())

    def drain(self, client_id: int) -> None:
        self._inbox[client_id].clear()

    def drop(self, client_id: int) -> None:
        self._dropped.add(client_id)

    def close(self) -> None:
        pass


class SocketChannel:
    """Length-prefixed frame channel over a stream socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()

    def send(self, msg: Message) -> bytes:
        frame = encode_message(msg)
        self.sock.sendall(frame)
        return frame

    def _read_exact(self, n: int, deadline: float) -> bytes:
        while len(self._buffer) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("frame read timed out")
            self.sock.settimeout(remaining)
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                continue
            if not chunk:
                raise ConnectionError("connection closed")
            self._buffer += chunk
        out = bytes(self._buffer[:n])
        del self._buffer[:n]
        return out

    def recv_frame(self, timeout: float = DEFAULT_ROUND_TIMEOUT) -> bytes:
        deadline = time.monotonic() + timeout
        header = self._read_exact(HEADER_LEN, deadline)
        total = frame_length(header)
        return header + self._read_exact(total - HEADER_LEN, deadline)

    def recv(self, timeout: float = DEFAULT_ROUND_TIMEOUT) -> Message:
        return decode_message(self.recv_frame(timeout))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class SocketServerTransport:
    """Hub side of the TCP transport: one accepted channel per client.

    A corrupt frame from a client counts as that client's dropout, like a
    closed connection or a timeout, and also drops it for good at once.
    """

    def __init__(self, channels: dict, round_timeout: float = DEFAULT_ROUND_TIMEOUT):
        self.channels = dict(channels)
        self.round_timeout = round_timeout
        self.frames = FrameLog()
        self._dropped = set()

    def client_ids(self):
        return [cid for cid in sorted(self.channels) if cid not in self._dropped]

    def send(self, client_id: int, msg: Message) -> None:
        if client_id in self._dropped:
            raise ClientDropout(client_id, "already excluded")
        try:
            frame = self.channels[client_id].send(msg)
        except OSError as e:
            raise ClientDropout(client_id, str(e)) from e
        self.frames.record("server->client", client_id, frame)

    def recv(self, client_id: int) -> Message:
        if client_id in self._dropped:
            raise ClientDropout(client_id, "already excluded")
        try:
            frame = self.channels[client_id].recv_frame(self.round_timeout)
            msg = decode_message(frame)
        except WireError as e:
            self.drop(client_id)  # so no retry read waits on a stream gone bad
            raise ClientDropout(client_id, str(e)) from e
        except (OSError, TimeoutError, ConnectionError) as e:
            raise ClientDropout(client_id, str(e)) from e
        self.frames.record("client->server", client_id, frame)
        return msg

    def drain(self, client_id: int) -> None:
        ch = self.channels.get(client_id)
        if ch is None:
            return
        while True:
            try:
                ch.recv_frame(timeout=DRAIN_GRACE)
            except (OSError, TimeoutError, ConnectionError, WireError):
                return

    def drop(self, client_id: int) -> None:
        self._dropped.add(client_id)
        ch = self.channels.get(client_id)
        if ch is not None:
            ch.close()

    def close(self) -> None:
        for ch in self.channels.values():
            ch.close()


def serve_clients(listener: socket.socket, n_clients: int,
                  round_timeout: float = DEFAULT_ROUND_TIMEOUT) -> SocketServerTransport:
    """Accept ``n_clients`` connections; ids are assigned in accept order."""
    channels = {}
    for cid in range(n_clients):
        sock, _ = listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channels[cid] = SocketChannel(sock)
    return SocketServerTransport(channels, round_timeout=round_timeout)
