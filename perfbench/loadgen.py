"""A single-process asyncio HTTP/1.1 load generator for ``repro serve``.

Requests are pre-encoded byte strings; at most ``connections`` keep-alive
sockets are open at once.  A response carrying ``Connection: close``
(the daemon's ``--max-keepalive`` cap) closes the socket and the next
request reconnects, counted in :attr:`LoadGen.reconnects`.  A 503 or a
reset connection is a failed request.

Two ways to send load:

* :meth:`LoadGen.closed_loop` — each connection sends its next request
  as soon as the previous answer arrives (callers that wait for replies);
* :meth:`LoadGen.open_loop` — requests are due at seeded Poisson arrival
  times whether or not earlier ones finished (independent users); each
  latency is timed from the request's due time, and how late the
  generator itself woke up is recorded separately.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes, bool]:
    """(status, body, server closes) of the next response on ``reader``."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, body, headers.get("connection", "").lower() == "close"


@dataclass
class Reply:
    """One answered (or failed) request."""

    index: int
    status: int  # 0 when the connection failed
    body: bytes
    latency_s: float
    late_s: float = 0.0


class _Conn:
    def __init__(self) -> None:
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


@dataclass
class LoadGen:
    host: str
    port: int
    connections: int
    reconnects: int = 0
    resets: int = 0
    _pool: list[_Conn] = field(default_factory=list)

    async def _exchange(self, conn: _Conn, payload: bytes) -> tuple[int, bytes]:
        if conn.writer is None:
            conn.reader, conn.writer = await asyncio.open_connection(
                self.host, self.port
            )
            self.reconnects += 1
        assert conn.reader is not None
        conn.writer.write(payload)
        await conn.writer.drain()
        status, body, close = await _read_response(conn.reader)
        if close:
            await conn.close()
        return status, body

    async def send(self, conn: _Conn, payload: bytes) -> tuple[int, bytes]:
        """One request; a reset or truncated reply comes back as status 0."""
        try:
            return await self._exchange(conn, payload)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            self.resets += 1
            await conn.close()
            return 0, b""

    async def start(self) -> None:
        self._pool = [_Conn() for _ in range(self.connections)]

    async def stop(self) -> None:
        for conn in self._pool:
            await conn.close()
        # the first connect of each socket is not a reconnect
        self.reconnects = max(0, self.reconnects - len(self._pool))

    async def closed_loop(self, requests: list[bytes]) -> tuple[float, list[Reply]]:
        """Send every request over the pool; returns (wall seconds, replies)."""
        replies: list[Reply] = []
        cursor = iter(range(len(requests)))

        async def worker(conn: _Conn) -> None:
            for i in cursor:
                t0 = time.perf_counter()
                status, body = await self.send(conn, requests[i])
                replies.append(Reply(i, status, body, time.perf_counter() - t0))

        t0 = time.perf_counter()
        await asyncio.gather(*(worker(c) for c in self._pool))
        return time.perf_counter() - t0, replies

    async def open_loop(
        self, requests: list[bytes], rate: float, seed: int
    ) -> list[Reply]:
        """Seeded Poisson arrivals at ``rate``/s; latency from due time."""
        rng = random.Random(seed)
        due, t = [], 0.0
        for _ in requests:
            t += rng.expovariate(rate)
            due.append(t)
        free: asyncio.Queue[_Conn] = asyncio.Queue()
        for conn in self._pool:
            free.put_nowait(conn)
        replies: list[Reply] = []
        tasks = []

        async def one(i: int, conn: _Conn, due_at: float, late: float) -> None:
            try:
                status, body = await self.send(conn, requests[i])
            finally:
                free.put_nowait(conn)
            replies.append(Reply(i, status, body, time.perf_counter() - due_at, late))

        start = time.perf_counter() + 0.05
        for i, offset in enumerate(due):
            due_at = start + offset
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late = max(0.0, time.perf_counter() - due_at)
            conn = await free.get()
            tasks.append(asyncio.ensure_future(one(i, conn, due_at, late)))
        await asyncio.gather(*tasks)
        return replies
