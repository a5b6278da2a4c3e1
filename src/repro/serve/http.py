"""Minimal HTTP/1.1 over asyncio streams — just enough for the service.

Hand-rolled on purpose: the container policy is stdlib-only, and the
service needs exactly four verbs' worth of HTTP — request-line +
headers + ``Content-Length`` body in, status + headers + body out, with
keep-alive.  No chunked transfer, no TLS, no HTTP/2; anything outside
the subset is answered with a clean 4xx instead of being guessed at.

The module is transport-only.  Routing and handler logic live in
:mod:`repro.serve.app`; this file knows nothing about jobs.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ServeError

#: Largest accepted request body (a job spec is ~1 KB; 8 MiB is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request line / header line.
MAX_LINE_BYTES = 16 * 1024

#: Most header lines accepted in one request.
MAX_HEADERS = 100

#: Idle keep-alive connections are closed after this many seconds.
KEEPALIVE_IDLE_S = 75.0

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpProtocolError(ServeError):
    """A malformed or over-limit request; carries the status to answer."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  #: header names lower-cased
    body: bytes = b""

    def json(self):
        """The body parsed as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpProtocolError(f"request body is not valid JSON: {exc}")

    def flag(self, name: str) -> bool:
        """A boolean query parameter (``?wait=1`` style)."""
        return self.query.get(name, "").lower() in ("1", "true", "yes", "on")


@dataclass
class Response:
    """One HTTP response; ``body`` may be bytes, str, or a JSON-able dict."""

    status: int = 200
    body: object = b""
    content_type: str | None = None
    headers: tuple[tuple[str, str], ...] = ()

    def encode(self, *, keep_alive: bool) -> bytes:
        body = self.body
        content_type = self.content_type
        if isinstance(body, (dict, list)):
            body = json.dumps(body, sort_keys=True, indent=1).encode() + b"\n"
            content_type = content_type or "application/json"
        elif isinstance(body, str):
            body = body.encode("utf-8")
        content_type = content_type or "text/plain; charset=utf-8"
        reason = REASONS.get(self.status, "Unknown")
        head = [f"HTTP/1.1 {self.status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        head.extend(f"{k}: {v}" for k, v in self.headers)
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""  # clean EOF between requests
        raise HttpProtocolError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise HttpProtocolError("header line too long", status=413)
    if len(line) > MAX_LINE_BYTES:
        raise HttpProtocolError("header line too long", status=413)
    return line.rstrip(b"\r\n")


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` on a clean EOF before the first byte."""
    start = await _read_line(reader)
    if not start:
        return None
    parts = start.split()
    if len(parts) != 3:
        raise HttpProtocolError(f"malformed request line {start[:80]!r}")
    method, target, version = parts
    if not version.startswith(b"HTTP/1."):
        raise HttpProtocolError(f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if not line:
            break
        if b":" not in line:
            raise HttpProtocolError(f"malformed header line {line[:80]!r}")
        name, _, value = line.partition(b":")
        headers[name.decode("latin-1").strip().lower()] = (
            value.decode("latin-1").strip()
        )
    else:
        raise HttpProtocolError(
            f"more than {MAX_HEADERS} header lines", status=431)
    if headers.get("transfer-encoding"):
        raise HttpProtocolError("chunked transfer encoding not supported")
    length_text = headers.get("content-length", "0")
    try:
        # ASCII digits only: int() alone would also take "+10" and "1_0".
        if not (length_text.isascii() and length_text.isdigit()):
            raise ValueError(length_text)
        length = int(length_text)  # ValueError past 4300 digits
    except ValueError:
        raise HttpProtocolError(f"bad Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise HttpProtocolError(
            f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]",
            status=413,
        )
    body = await reader.readexactly(length) if length else b""
    try:
        url = urlsplit(target.decode("latin-1"))
    except ValueError as exc:  # e.g. "//[abc": an unclosed IPv6 host
        raise HttpProtocolError(f"malformed request target: {exc}")
    return Request(
        method=method.decode("latin-1").upper(),
        path=unquote(url.path) or "/",
        query=dict(parse_qsl(url.query)),
        headers=headers,
        body=body,
    )


async def send_request(
    host: str,
    port: int,
    method: str,
    target: str,
    *,
    headers: dict[str, str] | None = None,
    body: bytes = b"",
    timeout: float = 300.0,
) -> tuple[int, dict[str, str], bytes]:
    """One client-side HTTP/1.1 exchange over a fresh connection.

    The router's forwarding primitive: writes the request with
    ``Connection: close``, reads status line + headers +
    ``Content-Length`` body, returns ``(status, headers, body)`` with
    header names lower-cased.  Raises ``OSError`` (or a subclass) on
    any transport failure and ``asyncio.TimeoutError`` past the
    deadline — callers treat both as "this instance is dead, advance
    the ring".
    """
    headers = dict(headers or {})
    headers.setdefault("Host", f"{host}:{port}")
    headers["Content-Length"] = str(len(body))
    headers["Connection"] = "close"
    head = [f"{method} {target} HTTP/1.1"]
    head.extend(f"{k}: {v}" for k, v in headers.items())
    raw = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body

    async def exchange() -> tuple[int, dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(raw)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
                raise ConnectionError(
                    f"malformed status line {status_line[:80]!r}"
                )
            status = int(parts[1])
            reply_headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                reply_headers[name.decode("latin-1").strip().lower()] = (
                    value.decode("latin-1").strip()
                )
            length = reply_headers.get("content-length")
            if length is not None:
                reply_body = await reader.readexactly(int(length))
            else:
                reply_body = await reader.read()  # Connection: close
            return status, reply_headers, reply_body
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(exchange(), timeout)


Handler = Callable[[Request], Awaitable[Response]]


@dataclass
class HttpServer:
    """asyncio TCP server funnelling parsed requests into one handler."""

    handler: Handler
    host: str = "127.0.0.1"
    port: int = 0
    _server: asyncio.AbstractServer | None = field(default=None, repr=False)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        # With port=0 the kernel picked one; publish the real port.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=KEEPALIVE_IDLE_S
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection
                except HttpProtocolError as exc:
                    writer.write(Response(
                        status=exc.status, body={"error": str(exc)}
                    ).encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break  # client closed cleanly
                keep_alive = (
                    request.headers.get("connection", "").lower() != "close"
                )
                try:
                    response = await self.handler(request)
                except Exception as exc:  # a handler bug must not kill the conn
                    response = Response(
                        status=500,
                        body={"error": f"{type(exc).__name__}: {exc}"},
                    )
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # event loop shutting down; just release the socket
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
