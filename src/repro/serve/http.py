"""Minimal asyncio HTTP/1.1 shell over :class:`~repro.serve.app.ServingApp`.

Stdlib-only by design: ``loop.create_server`` with one
:class:`asyncio.Protocol` per connection, which parses the request as its
bytes arrive — a request line, headers, an optional ``Content-Length``
body — calls :meth:`ServingApp.handle` once, writes one JSON response
with ``Connection: close`` and closes.  A connection costs no task,
stream pair or awaited read.  All file telemetry (access log, streaming
trace) lives behind the synchronous :mod:`repro.obs.live` sinks invoked
from :meth:`ServingApp.handle`; the protocol callbacks here never touch
files, sockets or clocks directly (lint rule OBS004 enforces that).

Every wait on a client is bounded.  A connection that has not sent its
whole request within :data:`READ_TIMEOUT_S` is aborted; one that has not
taken its whole response within :data:`WRITE_TIMEOUT_S` is reset, so the
kernel keeps none of the response for it.  A request head
over :data:`MAX_HEAD_BYTES` gets 400, and a connection beyond
:data:`MAX_CONNECTIONS` open ones gets 503.  None of these reaches
:meth:`ServingApp.handle` or spends request budget.

Shutdown is deterministic: with ``max_requests`` set on the app, the
server closes itself once the budget is spent and its open connections
are done — the hook the CI smoke job uses to run a real client against
a real socket and still exit.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.serve.app import ServingApp

#: Largest accepted request body (covers a 100k-point batch with room).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Largest accepted request head: request line, headers and blank line.
MAX_HEAD_BYTES = 64 * 1024

#: Seconds a client has to send its whole request (line, headers, body).
READ_TIMEOUT_S = 30.0

#: Seconds a client has to take its whole response once it is written.
WRITE_TIMEOUT_S = 30.0

#: Connections served at once; one more is answered 503 and closed.
#: Well under the common 1024 open-file limit.
MAX_CONNECTIONS = 512

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _render_response(status: int, payload: Dict[str, Any]) -> bytes:
    """One complete HTTP/1.1 response with a JSON body."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


class _Connection(asyncio.Protocol):
    """One connection: read one request, answer it once, close.

    ``open_connections`` is the server's set of connections being
    served; ``stop`` is set when the app's budget is spent and the last
    of them is gone.
    """

    def __init__(self, app: ServingApp,
                 open_connections: Set["_Connection"],
                 stop: asyncio.Event) -> None:
        self.app = app
        self.open_connections = open_connections
        self.stop = stop
        self.transport: Optional[asyncio.Transport] = None
        self.deadline: Optional[asyncio.TimerHandle] = None
        self.buffer = bytearray()
        self.scanned = 0  # bytes of ``buffer`` already split into head lines
        self.request: Optional[Tuple[str, str]] = None  # method, target
        self.length: Optional[int] = None  # Content-Length, once sent
        self.body_start: Optional[int] = None  # set when the head ends

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if len(self.open_connections) >= MAX_CONNECTIONS:
            self._respond(503, {"error": f"{MAX_CONNECTIONS} connections "
                                         "are open; retry later"})
            return
        self.open_connections.add(self)
        # A timer, not a task: at the deadline it aborts the transport.
        self.deadline = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, transport.abort)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        try:
            while self.body_start is None:
                newline = self.buffer.find(b"\n", self.scanned, MAX_HEAD_BYTES)
                if newline < 0:
                    if len(self.buffer) >= MAX_HEAD_BYTES:
                        raise ValueError(f"request head exceeds the "
                                         f"{MAX_HEAD_BYTES}-byte limit")
                    return
                line = bytes(self.buffer[self.scanned:newline + 1])
                self.scanned = newline + 1
                if self.request is None:
                    if not line.strip():
                        self.transport.close()  # nothing asked; no answer
                        return
                    self.request = _request_line(line)
                elif line.strip():
                    self.length = _content_length(line, self.length)
                else:  # the blank line that ends the head
                    if (self.length or 0) > MAX_BODY_BYTES:
                        raise ValueError(f"body of {self.length} bytes "
                                         f"exceeds the {MAX_BODY_BYTES}-byte "
                                         f"limit")
                    self.body_start = self.scanned
        except ValueError as exc:
            self._respond(400, {"error": str(exc)})
            return
        end = self.body_start + (self.length or 0)
        if len(self.buffer) < end:
            return
        body = (bytes(memoryview(self.buffer)[self.body_start:end])
                if self.length else None)
        self.buffer = bytearray()  # hold one copy of the body, not two
        method, target = self.request
        self._respond(*self.app.handle(method, target, body))

    def eof_received(self) -> None:
        """The client stopped sending before its request was complete."""
        if self.request is None and not self.buffer.strip():
            return  # an empty connection: the transport closes, no answer
        if self.body_start is None:
            error = "connection closed before the end of the request head"
        else:
            error = (f"{len(self.buffer) - self.body_start} bytes read on "
                     f"a total of {self.length} expected bytes")
        self._respond(400, {"error": error})

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.deadline is not None:
            self.deadline.cancel()
        self.open_connections.discard(self)
        if self.app.done and not self.open_connections:
            self.stop.set()

    def _respond(self, status: int, payload: Dict[str, Any]) -> None:
        """Write the one response; close once it is flushed, or reset at
        the write deadline."""
        if self.deadline is not None:
            self.deadline.cancel()
        self.transport.write(_render_response(status, payload))
        if self.transport.get_write_buffer_size():
            self.deadline = asyncio.get_running_loop().call_later(
                WRITE_TIMEOUT_S, self._reset)
        self.transport.close()

    def _reset(self) -> None:
        """Abort with a reset: a zero linger time makes the kernel drop
        what it still holds of the response, instead of offering it to a
        client that does not read."""
        self.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.transport.abort()


def _request_line(line: bytes) -> Tuple[str, str]:
    """``(method, target)`` of a request line; ``ValueError`` if malformed."""
    parts = line.decode("ascii", "replace").split()
    if len(parts) < 2:
        raise ValueError(f"malformed request line: {line!r}")
    return parts[0].upper(), parts[1]


def _content_length(line: bytes, seen: Optional[int]) -> Optional[int]:
    """The body length after one header line: ``seen`` unless the line is
    a ``Content-Length``, which must be digits and agree with ``seen``."""
    name, _, value = line.decode("ascii", "replace").partition(":")
    if name.strip().lower() != "content-length":
        return seen
    text = value.strip()
    if not text.isdigit():  # ASCII only: the decode replaced the rest
        raise ValueError(f"bad Content-Length: {text!r}")
    if seen is not None and int(text) != seen:
        raise ValueError(f"conflicting Content-Length values: {seen} and "
                         f"{int(text)}")
    return int(text)


async def run_server(
    app: ServingApp,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional["asyncio.Future"] = None,
) -> None:
    """Run the server until the app's request budget is spent.

    ``ready``, when given, is resolved with the bound ``(host, port)``
    once the socket is listening — how tests and the CLI discover an
    ephemeral port.  Without ``max_requests`` on the app this coroutine
    runs until cancelled (the CLI maps Ctrl-C onto that).
    """
    stop = asyncio.Event()
    open_connections: Set[_Connection] = set()
    try:
        server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(app, open_connections, stop), host, port)
    except OSError as exc:
        if ready is not None and not ready.done():
            ready.set_exception(exc)
            return
        raise
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None and not ready.done():
        ready.set_result(bound)
    try:
        async with server:
            if app.done:  # zero-budget edge: never accept anything
                return
            await stop.wait()
    finally:
        server.close()


def serve_forever(
    app: ServingApp,
    host: str = "127.0.0.1",
    port: int = 8321,
    on_ready: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> None:
    """Blocking entry point for the CLI: run until budget or Ctrl-C.

    ``on_ready`` is called once with the bound ``(host, port)`` — with
    ``port=0`` that is how the caller learns the ephemeral port.  A bind
    failure raises ``OSError`` before ``on_ready`` fires.
    """

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        ready: "asyncio.Future" = loop.create_future()
        task = asyncio.ensure_future(run_server(app, host, port, ready=ready))
        bound = await ready  # raises OSError when the bind failed
        if on_ready is not None:
            on_ready((bound[0], bound[1]))
        await task

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass  # clean operator shutdown; the CLI writes the session record
