"""Dependency-free asyncio HTTP front of the equilibrium service.

A deliberately small HTTP/1.1 server (stdlib ``asyncio.start_server``, no
web framework) exposing the scheduler over six routes:

==================  =======  ==================================================
``/solve``          POST     one equilibrium (``values``, ``k``, ``policy``)
``/sweep``          POST     ``sigma_star`` + coverage over a ``k_grid``
``/mechanism``      POST     policy-roster comparison (``values``, ``k``,
                             ``policies``)
``/coverage-times`` POST     exact Von Schelling coverage-time laws
                             (``values`` distribution, ``k``, ``times``, ``j``)
``/healthz``        GET      liveness probe
``/stats``          GET      scheduler / cache / memo counters + queue-depth
                             and latency histograms + host environment
==================  =======  ==================================================

Bodies and responses are strict JSON (no ``NaN``/``Infinity``).  A computed
answer arrives from the scheduler as the bytes it encoded once, and is
written as it is; a computed answer that holds a non-finite number or
``converged: false`` is refused with ``422``.  A payload of the front's own
that cannot be encoded strictly is answered ``500``.  Malformed requests
get ``400`` with an ``{"error": ...}`` body; unknown routes ``404``.  A
request or header line longer than the stream limit (64 KiB) is answered
``431``; a request whose headers and body do not arrive within
``_REQUEST_TIMEOUT_S`` of its request line is answered ``408``.  Both close
the connection.  When the scheduler's bounded pending queue is full,
admission control answers ``503`` with a ``Retry-After`` header estimating
the drain time — shedding load at the door instead of letting queues grow
without bound.  Connections are keep-alive (closed-loop load generators
reuse them, and the wait for a connection's next request is not timed), one
in-flight request per connection — concurrency comes from many
connections, which is exactly the regime the scheduler packs into shared
kernel calls.  Closing the server answers every request it has already
read (with ``Connection: close``) and ends the other connections quietly.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import weakref
from dataclasses import dataclass
from typing import Any

from repro.serving.cache import ResultCache
from repro.serving.executor import create_executor
from repro.serving.requests import parse_request
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    QueueFullError,
    UnservableAnswerError,
)
from repro.utils.envinfo import environment_metadata

__all__ = ["EquilibriumService", "start_server", "serve_forever"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a client has, once a request line arrived, to send its headers and body.
_REQUEST_TIMEOUT_S = 10.0
#: Seconds a closing server gives the requests it has read to be answered.
_SHUTDOWN_GRACE_S = 2.0
_POST_KINDS = ("solve", "sweep", "mechanism", "coverage-times")
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large", 422: "Unprocessable Content",
            431: "Request Header Fields Too Large", 500: "Internal Server Error",
            503: "Service Unavailable"}


#: Started servers; a process forked while one is open drops its listening sockets.
_SERVERS: weakref.WeakSet = weakref.WeakSet()


def _release_listening_sockets() -> None:
    """In a forked child, stop holding every open server's listening sockets.

    Process-pool workers forked while a server runs would otherwise keep its
    port bound after the server closed.  Each descriptor is pointed at
    ``/dev/null`` instead of being closed, so the child's copy of the socket
    object never closes a descriptor number that something else reused.
    """
    null = os.open(os.devnull, os.O_RDONLY)
    for server in _SERVERS:
        for sock in server.sockets:
            os.dup2(null, sock.fileno())
    os.close(null)


os.register_at_fork(after_in_child=_release_listening_sockets)


class _Rejected(Exception):
    """A request answered with ``status`` and an error body, then the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader, request_line: bytes
) -> tuple[str, str, dict[str, str], bytes]:
    """Parse one request after its request line: ``(method, path, headers, body)``.

    Bad input raises :exc:`_Rejected`; the only ``ValueError`` that escapes is
    ``readline``'s for a line over the stream limit.
    """
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _Rejected(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _Rejected(400, "bad Content-Length") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise _Rejected(413, "body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class EquilibriumService:
    """Routes HTTP requests into a :class:`~repro.serving.scheduler.ContinuousBatchScheduler`."""

    def __init__(self, scheduler: ContinuousBatchScheduler) -> None:
        self.scheduler = scheduler
        # Connection handlers (with their writers), and those holding a request
        # read and not yet answered.
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._answering: set[asyncio.Task] = set()
        self._closing = False

    # ---------------------------------------------------------------- routing
    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | bytes, dict[str, str]]:
        """Map one parsed HTTP request to ``(status, payload, headers)``.

        The payload of a computed answer is its encoded response body; every
        other payload is a dict that :meth:`_respond` encodes.
        """
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}, {}
        if method == "GET" and path == "/stats":
            return 200, {
                "coalescer": self.scheduler.stats(),
                "environment": environment_metadata(),
            }, {}
        kind = path.lstrip("/")
        if kind in _POST_KINDS:
            if method != "POST":
                return 405, {"error": f"{path} expects POST"}, {}
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return 400, {"error": f"invalid JSON body: {error}"}, {}
            try:
                request = parse_request(kind, payload)
            except (TypeError, ValueError) as error:
                return 400, {"error": str(error)}, {}
            try:
                return 200, await self.scheduler.submit(request), {}
            except QueueFullError as error:
                retry_after = max(1, round(error.retry_after))
                return 503, {
                    "error": str(error),
                    "retry_after_s": retry_after,
                }, {"Retry-After": str(retry_after)}
            except UnservableAnswerError as error:
                return 422, {"error": f"no valid answer for this request: {error}"}, {}
            except Exception as error:  # noqa: BLE001 - reported, not raised
                return 500, {"error": f"{type(error).__name__}: {error}"}, {}
        return 404, {"error": f"no route for {method} {path}"}, {}

    # ------------------------------------------------------------- connection
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one keep-alive connection until the peer or the server closes it."""
        task = asyncio.current_task()
        loop = asyncio.get_running_loop()
        self._handlers[task] = writer
        try:
            while not self._closing:
                try:
                    # The wait for the next request is untimed (keep-alive);
                    # once its request line is in, one deadline covers the rest.
                    request_line = await reader.readline()
                    if not request_line.strip():
                        break
                    deadline = loop.call_later(_REQUEST_TIMEOUT_S, task.cancel)
                    try:
                        method, path, headers, body = await _read_request(reader, request_line)
                    except asyncio.CancelledError:
                        if loop.time() < deadline.when():  # not the deadline's cancel
                            raise
                        raise _Rejected(408, "request not received in time") from None
                    finally:
                        deadline.cancel()
                except ValueError:  # a line overran the stream limit (LimitOverrunError)
                    await self._respond(writer, 431, {"error": "request or header line too long"})
                    break
                except _Rejected as error:
                    await self._respond(writer, error.status, {"error": str(error)})
                    break
                self._answering.add(task)
                try:
                    status, payload, extra = await self.dispatch(method.upper(), path, body)
                    close = self._closing or headers.get("connection", "").lower() == "close"
                    await self._respond(
                        writer, status, payload, keep_alive=not close, extra_headers=extra
                    )
                finally:
                    self._answering.discard(task)
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # peer went away mid-request; nothing to answer
        except asyncio.CancelledError:
            if not self._closing:
                raise
            # Shutdown ends a connection that holds no request it has read.
        finally:
            # Half-close first: a process-pool worker forked while this
            # connection was open holds a copy of its socket, and close()
            # alone sends no FIN while that copy lives.
            with contextlib.suppress(OSError):
                writer.write_eof()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass  # shutdown cancels a handler still here after its grace
            del self._handlers[task]

    async def shutdown(self) -> None:
        """Answer the requests already read, end every other connection, and wait.

        A connection still open after ``_SHUTDOWN_GRACE_S`` (its peer stopped
        reading, or its request computes for longer) is aborted.
        """
        self._closing = True
        for task in self._handlers.keys() - self._answering:
            task.cancel()
        if self._handlers:
            _, late = await asyncio.wait(list(self._handlers), timeout=_SHUTDOWN_GRACE_S)
            for task in late:
                self._handlers[task].transport.abort()
                task.cancel()
            await asyncio.gather(*late, return_exceptions=True)

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | bytes,
        *,
        keep_alive: bool = False,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Write one response: a body already encoded as it is, a dict as strict JSON."""
        if isinstance(payload, bytes):
            body = payload
        else:
            try:
                body = json.dumps(payload, allow_nan=False).encode("utf-8")
            except (TypeError, ValueError) as error:
                status, extra_headers = 500, None
                body = json.dumps({"error": f"answer is not valid JSON: {error}"}).encode("utf-8")
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


@dataclass
class RunningServer:
    """A started server plus its service; ``async with`` closes both."""

    server: asyncio.base_events.Server
    service: EquilibriumService

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` in tests)."""
        return self.server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        self.server.close()
        await self.service.shutdown()
        await self.server.wait_closed()
        await self.service.scheduler.close()

    async def __aenter__(self) -> "RunningServer":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


async def start_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    scheduler: ContinuousBatchScheduler | None = None,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    cache_size: int = 4096,
    backend: str | None = None,
    max_pending: int = 1024,
    executor: str | None = None,
    workers: int | None = None,
) -> RunningServer:
    """Bind the service and return a handle (``port=0`` picks a free port).

    Without an explicit ``scheduler``, one is built from ``max_batch`` /
    ``max_wait_ms`` / ``cache_size`` (``cache_size=0`` disables the cache),
    with a bounded pending queue of ``max_pending`` requests and kernel
    execution on ``executor`` (``"inline"``, ``"thread"`` or ``"process"``;
    ``workers`` sizes the pool, defaulting to the visible CPU count).
    """
    if scheduler is None:
        cache = ResultCache(cache_size) if cache_size > 0 else None
        scheduler = ContinuousBatchScheduler(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            cache=cache,
            backend=backend,
            executor=create_executor(executor, max_workers=workers),
            max_pending=max_pending,
        )
    service = EquilibriumService(scheduler)
    server = await asyncio.start_server(service.handle_connection, host, port)
    _SERVERS.add(server)
    return RunningServer(server=server, service=service)


async def serve_forever(host: str, port: int, **options: Any) -> None:
    """Run the service until cancelled (the ``repro-dispersal serve`` body)."""
    running = await start_server(host, port, **options)
    addresses = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in running.server.sockets
    )
    scheduler = running.service.scheduler
    print(f"repro-dispersal serving on {addresses} "
          f"(max_batch={scheduler.max_batch}, max_wait_ms={scheduler.max_wait_ms}, "
          f"executor={scheduler.executor.mode}, max_pending={scheduler.max_pending})")
    try:
        await running.server.serve_forever()
    finally:
        await running.close()
