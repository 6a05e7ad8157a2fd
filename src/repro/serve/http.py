"""Minimal asyncio HTTP/1.1 shell over :class:`~repro.serve.app.ServingApp`.

Stdlib-only by design: :func:`asyncio.start_server` plus a small
request parser covering exactly what the serving API needs — a request
line, headers, an optional ``Content-Length`` body — answering every
request with a JSON payload and ``Connection: close``.  All file
telemetry (access log, streaming trace) lives behind the synchronous
:mod:`repro.obs.live` sinks invoked from :meth:`ServingApp.handle`;
the async handlers here never touch files, sockets or clocks directly
(lint rule OBS004 enforces that).

Reading a request is bounded: a connection that has not sent
its whole request within :data:`READ_TIMEOUT_S` is aborted.

Shutdown is deterministic: with ``max_requests`` set on the app, the
server closes itself once the budget is spent — the hook the CI smoke
job uses to run a real client against a real socket and still exit.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.app import ServingApp

#: Largest accepted request body (covers a 100k-point batch with room).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a client has to send its whole request (line, headers, body).
READ_TIMEOUT_S = 30.0

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


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Optional[bytes]]]:
    """Parse one request; ``None`` for an empty connection.

    Raises ``ValueError`` for a malformed request the caller should
    answer with 400, and returns ``None`` when the client connected and
    sent nothing (just close the socket).
    """
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) < 2:
        raise ValueError(f"malformed request line: {request_line!r}")
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if not line.strip():
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise ValueError(f"bad Content-Length: {value.strip()!r}")
    if content_length > MAX_BODY_BYTES:
        raise ValueError(f"body of {content_length} bytes exceeds the "
                         f"{MAX_BODY_BYTES}-byte limit")
    body: Optional[bytes] = None
    if content_length > 0:
        body = await reader.readexactly(content_length)
    return method, target, body


async def _handle_client(
    app: ServingApp,
    stop: asyncio.Event,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one connection: one request, one JSON response, close."""
    # A timer, not a task: at the deadline it aborts the transport, which
    # ends the pending read with EOF.
    deadline = asyncio.get_running_loop().call_later(
        READ_TIMEOUT_S, writer.transport.abort)
    try:
        try:
            request = await _read_request(reader)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            writer.write(_render_response(400, {"error": str(exc)}))
            await writer.drain()
            return
        finally:
            deadline.cancel()
        if request is None or writer.transport.is_closing():
            return  # nothing sent, or cut off at the deadline
        method, target, body = request
        status, payload = app.handle(method, target, body)
        writer.write(_render_response(status, payload))
        await writer.drain()
    except (ConnectionError, BrokenPipeError):
        pass  # client went away mid-response; nothing to answer
    finally:
        writer.close()
        if app.done:
            stop.set()


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

    async def client_connected(reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        await _handle_client(app, stop, reader, writer)

    try:
        server = await asyncio.start_server(client_connected, host, port)
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
