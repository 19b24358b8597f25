"""Front ends of the scheduling service: stdin JSON lines and TCP/HTTP.

Both front ends speak the same protocol -- one JSON request object per
line, one JSON response object per line -- and both feed
:meth:`~repro.service.daemon.SchedulingService.handle` concurrently (one
task per request line), which is what lets concurrent identical requests
coalesce even when they arrive on one connection.

* **stdin**: requests on stdin, responses on stdout.  Announces
  ``{"event": "ready"}`` once serving; exits on EOF, a ``shutdown``
  request, or a requested service shutdown.
* **TCP**: a line-protocol socket server.  Announces
  ``{"event": "listening", "host": ..., "port": ...}`` on stdout (with
  the *resolved* port, so tests can bind ``--port 0``).  Connections that
  open with an HTTP verb get a minimal HTTP/1.1 view instead: ``POST``
  with a JSON body serves any request, ``GET /ping`` and ``GET /stats``
  map to the control kinds, and typed errors map to 4xx/5xx statuses.

A client that disconnects mid-request never disturbs the daemon: the
computation finishes, populates the warm cache, and only the response
write is dropped (counted in ``stats.client_disconnects``).  A TCP line
longer than :data:`LINE_LIMIT` bytes, or an HTTP ``Content-Length`` that
is not a non-negative integer, is answered with one ``bad-request``
response and the connection is closed.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import IO

from repro.service import protocol
from repro.service.daemon import SchedulingService
from repro.service.protocol import error_response

#: HTTP status per typed error code (``ok`` responses are 200).
_HTTP_STATUS = {
    protocol.ERROR_BAD_REQUEST: 400,
    protocol.ERROR_BAD_DESIGN: 422,
    protocol.ERROR_OVERLOADED: 429,
    protocol.ERROR_SHUTDOWN: 503,
    protocol.ERROR_DEADLINE: 504,
    protocol.ERROR_WORKER_CRASH: 500,
    protocol.ERROR_INTERNAL: 500,
}

#: Longest TCP request line (and HTTP header line) in bytes: asyncio's
#: default ``StreamReader`` limit, passed explicitly so errors can name it.
LINE_LIMIT = 2 ** 16

_HTTP_REASON = {200: "OK", 400: "Bad Request", 422: "Unprocessable Entity",
                429: "Too Many Requests", 500: "Internal Server Error",
                503: "Service Unavailable", 504: "Gateway Timeout"}


def _line_too_long() -> dict:
    return error_response(protocol.ERROR_BAD_REQUEST,
                          f"request line exceeds the {LINE_LIMIT}-byte limit")


def _decode_line(line: str) -> tuple[object | None, dict | None]:
    """Parse one request line; returns ``(request, error_response)``."""
    try:
        return json.loads(line), None
    except json.JSONDecodeError as error:
        return None, error_response(protocol.ERROR_BAD_REQUEST,
                                    f"request line is not JSON: {error}")


async def serve_stdin(service: SchedulingService,
                      instream: IO[str] | None = None,
                      outstream: IO[str] | None = None) -> None:
    """Serve JSON-lines requests from a text stream (stdin by default)."""
    instream = instream if instream is not None else sys.stdin
    outstream = outstream if outstream is not None else sys.stdout
    loop = asyncio.get_running_loop()
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def emit(response: dict) -> None:
        async with write_lock:
            outstream.write(json.dumps(response) + "\n")
            outstream.flush()

    async def respond(line: str) -> None:
        raw, decode_error = _decode_line(line)
        await emit(decode_error if decode_error is not None
                   else await service.handle(raw))

    await emit({"event": "ready"})
    closing = asyncio.ensure_future(service.wait_closing())
    try:
        while not service.closing:
            reader = asyncio.ensure_future(
                loop.run_in_executor(None, instream.readline))
            done, _ = await asyncio.wait({reader, closing},
                                         return_when=asyncio.FIRST_COMPLETED)
            if reader not in done:
                # Shutdown requested while blocked on input; the reader
                # thread stays parked on the stream until process exit.
                reader.cancel()
                break
            line = reader.result()
            if not line:  # EOF
                break
            if not line.strip():
                continue
            task = asyncio.create_task(respond(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        closing.cancel()


async def _write_line(service: SchedulingService, writer: asyncio.StreamWriter,
                      lock: asyncio.Lock, response: dict) -> None:
    async with lock:
        if writer.is_closing():
            service.stats.client_disconnects += 1
            return
        try:
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()
        except (ConnectionError, RuntimeError):
            service.stats.client_disconnects += 1


async def _http_response(service: SchedulingService, method: str,
                         target: str, content_length: int,
                         reader: asyncio.StreamReader) -> dict:
    """Serve one parsed HTTP request; returns the protocol response."""
    if method == "GET":
        kind = {"/ping": "ping", "/stats": "stats"}.get(target)
        if kind is None:
            return error_response(protocol.ERROR_BAD_REQUEST,
                                  f"GET {target} is not served; try "
                                  "/ping or /stats")
        return await service.handle({"kind": kind})
    if method == "POST":
        body = await reader.readexactly(content_length) if content_length else b""
        try:
            raw = json.loads(body) if body else None
        except ValueError as error:  # malformed JSON or not UTF-8
            return error_response(protocol.ERROR_BAD_REQUEST,
                                  f"request body is not JSON: {error}")
        return await service.handle(raw)
    return error_response(protocol.ERROR_BAD_REQUEST,
                          f"method {method!r} is not served")


async def _handle_http(service: SchedulingService, request_line: bytes,
                       reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
    """One-shot HTTP/1.1 exchange (Connection: close semantics)."""
    parts = request_line.decode("latin-1").split()
    method = parts[0] if parts else ""
    target = parts[1] if len(parts) > 1 else "/"
    content_length = 0
    response = None
    try:
        while True:  # drain headers
            header = await reader.readline()
            if header in (b"", b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                text = value.strip()
                if text.isascii() and text.isdigit():
                    content_length = int(text)
                else:
                    response = error_response(
                        protocol.ERROR_BAD_REQUEST,
                        f"Content-Length {text!r} is not a non-negative "
                        "integer")
    except ValueError:  # a header line past LINE_LIMIT
        response = _line_too_long()
    if response is None:
        response = await _http_response(service, method, target,
                                         content_length, reader)
    status = (200 if response.get("ok")
              else _HTTP_STATUS.get(response.get("error"), 500))
    payload = (json.dumps(response) + "\n").encode()
    head = (f"HTTP/1.1 {status} {_HTTP_REASON.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")
    try:
        writer.write(head + payload)
        await writer.drain()
    except (ConnectionError, RuntimeError):
        service.stats.client_disconnects += 1


async def _handle_connection(service: SchedulingService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def respond(line: str) -> None:
        raw, decode_error = _decode_line(line)
        response = (decode_error if decode_error is not None
                    else await service.handle(raw))
        await _write_line(service, writer, lock, response)

    try:
        first = await reader.readline()
        if first[:5] in (b"POST ", b"GET /", b"HEAD ", b"PUT /"):
            await _handle_http(service, first, reader, writer)
            return
        line = first
        while line:
            text = line.decode(errors="replace")
            if text.strip():
                task = asyncio.create_task(respond(text))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            line = await reader.readline()
    except ValueError:  # a line past LINE_LIMIT: answer, then hang up
        await _write_line(service, writer, lock, _line_too_long())
    except (ConnectionError, asyncio.IncompleteReadError):
        service.stats.client_disconnects += 1
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def serve_tcp(service: SchedulingService, host: str = "127.0.0.1",
                    port: int = 0, announce: IO[str] | None = None) -> None:
    """Serve the line protocol (with the HTTP view) on a TCP socket.

    Runs until the service's shutdown event fires (a ``shutdown``
    request, :meth:`~SchedulingService.request_shutdown`, or SIGINT
    handled by the CLI).  ``port=0`` binds an ephemeral port; the
    resolved one is announced as a ``listening`` event line.
    """
    announce = announce if announce is not None else sys.stdout

    async def on_connection(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        await _handle_connection(service, reader, writer)

    server = await asyncio.start_server(on_connection, host=host, port=port,
                                        limit=LINE_LIMIT)
    bound = server.sockets[0].getsockname()
    announce.write(json.dumps({"event": "listening", "host": bound[0],
                               "port": bound[1]}) + "\n")
    announce.flush()
    async with server:
        await service.wait_closing()


__all__ = ["LINE_LIMIT", "serve_stdin", "serve_tcp"]
