"""HTTP/1.1 load over a few keep-alive connections from one asyncio process.

Two shapes of load:

* :func:`open_loop` releases each request at its Poisson due time whether or
  not earlier ones have finished (independent users).  A due request waits
  for a free connection; latency runs from the due time to the last byte.
* :func:`closed_loop` keeps every connection busy back to back (callers that
  each wait for their reply).

Every attempted request ends in exactly one outcome: ``ok`` (HTTP 200),
``http_error`` (any other status, 503 and 500 included), ``dropped`` (the
connection broke) or ``deadline`` (no full answer within the client deadline;
the server has no read timeout, so without it a stuck connection would hang
the benchmark).  Response bodies are kept for checking after the phase.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from mixes import Request


@dataclass
class Sample:
    """Timestamps (``perf_counter`` seconds) and outcome of one request."""

    index: int = -1
    due: float = 0.0
    released: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    outcome: str = ""
    response: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Connection:
    """One keep-alive client connection, reopened after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    async def exchange(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        await self.open()
        assert self.reader is not None and self.writer is not None
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, data


async def send(connection: Connection, request: Request, sample: Sample, deadline_s: float) -> None:
    """Send one request and record exactly one outcome."""
    sample.sent = time.perf_counter()
    try:
        sample.status, sample.response = await asyncio.wait_for(
            connection.exchange("POST", request.path, request.body), deadline_s
        )
        sample.outcome = "ok" if sample.status == 200 else "http_error"
    except asyncio.TimeoutError:
        sample.outcome = "deadline"
        connection.close()
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError, OSError,
            ValueError, IndexError):
        sample.outcome = "dropped"
        connection.close()
    sample.done = time.perf_counter()


async def _connections(host: str, port: int, count: int) -> list[Connection]:
    connections = [Connection(host, port) for _ in range(count)]
    for connection in connections:
        await connection.open()
    return connections


async def open_loop(host: str, port: int, requests: Sequence[Request],
                    schedule: Sequence[tuple[int, float]], *, connections: int,
                    deadline_s: float) -> list[Sample]:
    """Release ``requests[i]`` at ``offset`` seconds after the phase starts,
    for every ``(i, offset)`` of ``schedule``."""
    pool = await _connections(host, port, connections)
    samples = [Sample(index) for index, _ in schedule]
    queue: asyncio.Queue[Sample | None] = asyncio.Queue()
    start = time.perf_counter() + 0.01

    async def generate() -> None:
        for sample, (_, offset) in zip(samples, schedule):
            sample.due = start + offset
            delay = sample.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample.released = time.perf_counter()
            queue.put_nowait(sample)
        for _ in pool:
            queue.put_nowait(None)

    async def drive(connection: Connection) -> None:
        while (sample := await queue.get()) is not None:
            await send(connection, requests[sample.index], sample, deadline_s)

    try:
        await asyncio.gather(generate(), *(drive(connection) for connection in pool))
    finally:
        for connection in pool:
            connection.close()
    return samples


async def closed_loop(host: str, port: int, requests: Sequence[Request], cursor: Iterator[int],
                      *, connections: int, deadline_s: float) -> tuple[list[Sample], float]:
    """Keep every connection busy back to back until ``cursor`` runs out,
    sending the requests whose indices it yields; returns the samples and
    the elapsed time.
    """
    pool = await _connections(host, port, connections)
    samples: list[Sample] = []
    start = time.perf_counter()

    async def drive(connection: Connection) -> None:
        for index in cursor:
            sample = Sample(index)
            sample.due = sample.released = time.perf_counter()
            samples.append(sample)
            await send(connection, requests[index], sample, deadline_s)

    try:
        await asyncio.gather(*(drive(connection) for connection in pool))
    finally:
        for connection in pool:
            connection.close()
    elapsed = max((sample.done for sample in samples), default=start) - start
    return samples, elapsed
