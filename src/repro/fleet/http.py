"""Minimal HTTP/1.1 over asyncio streams — the fleet's only wire format.

The repo runs offline with no third-party web stack, so the fleet speaks
a deliberately small HTTP/1.1 subset over stdlib ``asyncio`` streams:
request line + headers + ``Content-Length`` body, persistent
(keep-alive) connections, JSON or raw-octet payloads.  No chunked
encoding, no TLS, no multipart — every fleet endpoint fits the subset,
and real HTTP clients (curl, a browser) can still talk to it.

Three layers:

* :func:`read_request` / :func:`read_response` + the ``write_*``
  helpers — parsing and serialization over a stream pair;
* :class:`HttpServer` — accept loop + per-connection keep-alive loop
  dispatching to one async handler (the gateway and the workers each
  wrap one);
* :class:`HttpConnection` / :class:`ConnectionPool` — client side: a
  persistent connection with request/response framing, and a per-address
  pool the router draws from so thousands of requests don't pay a TCP
  handshake each.

Failure model: any framing violation raises :class:`ProtocolError`
(server answers 400 and closes); any transport failure — peer died,
connection reset, EOF mid-response — raises
:class:`FleetConnectionError`, the signal the router's retry-with-backoff
logic keys on.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

# Framing limits: generous for artifact blobs, tight enough that a
# misbehaving peer cannot balloon memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADERS = 100
MAX_BODY_BYTES = 512 * 1024 * 1024

REASONS = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """The peer sent bytes that are not the HTTP subset we speak."""


class FleetConnectionError(ConnectionError):
    """The transport failed (peer gone, reset, EOF mid-message).

    The router treats this as "that worker may be dead": the request is
    retried on another replica and the health monitor takes it from
    there.
    """


class FleetTimeoutError(FleetConnectionError):
    """The peer stayed silent past the client's timeout.

    A subclass of :class:`FleetConnectionError` (the connection is torn
    down either way), distinguished so the load generator can tell a
    *hang* (this) from a *drop* (the base class) — the fleet's fault
    tests assert zero of either at the front door.
    """


@dataclass
class HttpRequest:
    """One parsed request: method, split path/query, headers, raw body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """The body parsed as JSON; :class:`ProtocolError` if malformed."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed JSON body: {error}") from error

    def json_object(self) -> dict:
        """The body parsed as a JSON *object*; :class:`ProtocolError` for
        anything else — ``[]``, ``3`` and ``"x"`` are valid JSON but not
        a request, and a handler that went on to ``.get`` a field would
        turn them into a 500."""
        payload = self.json()
        if not isinstance(payload, dict):
            raise ProtocolError(f"the JSON body must be an object, not "
                                f"{type(payload).__name__}")
        return payload


@dataclass
class HttpResponse:
    """One response: status + headers + raw body, with a JSON view."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"malformed JSON body: {error}") from error


def json_response(payload, status: int = 200,
                  headers: dict[str, str] | None = None) -> HttpResponse:
    """Build a JSON :class:`HttpResponse` (the fleet's default shape)."""
    body = json.dumps(payload).encode("utf-8")
    merged = {"Content-Type": "application/json"}
    if headers:
        merged.update(headers)
    return HttpResponse(status=status, headers=merged, body=body)


def error_response(status: int, message: str, reason: str | None = None,
                   headers: dict[str, str] | None = None) -> HttpResponse:
    """A JSON error body; ``reason`` is the machine-readable failure
    code (``queue_full``, ``deadline_exceeded``, ...) clients switch on
    so they never have to parse prose."""
    payload: dict[str, str] = {"error": message}
    if reason is not None:
        payload["reason"] = reason
    return json_response(payload, status=status, headers=headers)


async def _read_head(reader: asyncio.StreamReader) -> list[str] | None:
    """Read request/status line + header lines; ``None`` on clean EOF."""
    lines: list[str] = []
    total = 0
    while True:
        try:
            raw = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError) as error:
            raise FleetConnectionError(str(error)) from error
        if not raw:
            if not lines:
                return None          # clean EOF between messages
            raise FleetConnectionError("peer closed mid-headers")
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError("headers exceed the size limit")
        line = raw.decode("latin-1").rstrip("\r\n")
        if not line:
            return lines
        if lines and len(lines) > MAX_HEADERS:
            raise ProtocolError("too many headers")
        lines.append(line)


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_body(reader: asyncio.StreamReader,
                     headers: dict[str, str]) -> bytes:
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(
            f"bad Content-Length {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"Content-Length {length} out of range")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except (ConnectionError, asyncio.IncompleteReadError) as error:
        raise FleetConnectionError(str(error)) from error


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF."""
    lines = await _read_head(reader)
    if lines is None:
        return None
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers)
    return HttpRequest(method=method.upper(), path=split.path,
                       query=dict(parse_qsl(split.query)),
                       headers=headers, body=body)


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Parse one response; raises :class:`FleetConnectionError` on EOF."""
    lines = await _read_head(reader)
    if lines is None:
        raise FleetConnectionError("peer closed before responding")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ProtocolError(f"malformed status {parts[1]!r}") from None
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers)
    return HttpResponse(status=status, headers=headers, body=body)


def _write_message(writer: asyncio.StreamWriter, first_line: str,
                   headers: dict[str, str], body: bytes) -> None:
    head = [first_line]
    merged = dict(headers)
    merged["Content-Length"] = str(len(body))
    for name, value in merged.items():
        head.append(f"{name}: {value}")
    head.append("")
    head.append("")
    writer.write("\r\n".join(head).encode("latin-1") + body)


async def write_request(writer: asyncio.StreamWriter, method: str,
                        path: str, body: bytes = b"",
                        headers: dict[str, str] | None = None) -> None:
    _write_message(writer, f"{method} {path} HTTP/1.1", headers or {}, body)
    try:
        await writer.drain()
    except ConnectionError as error:
        raise FleetConnectionError(str(error)) from error


async def write_response(writer: asyncio.StreamWriter,
                         response: HttpResponse,
                         keep_alive: bool = True) -> None:
    reason = REASONS.get(response.status, "Unknown")
    headers = dict(response.headers)
    headers.setdefault("Connection",
                       "keep-alive" if keep_alive else "close")
    _write_message(writer, f"HTTP/1.1 {response.status} {reason}",
                   headers, response.body)
    try:
        await writer.drain()
    except ConnectionError as error:
        raise FleetConnectionError(str(error)) from error


class HttpServer:
    """Accept loop + keep-alive connection loops over one async handler.

    The handler is ``async def handle(request) -> HttpResponse``; any
    exception it raises becomes a 500 (the connection survives), any
    :class:`ProtocolError` from parsing becomes a 400 and the connection
    closes.  Binding to port 0 picks a free port — read it back from
    :attr:`port` after :meth:`start` (how workers report their address).
    """

    def __init__(self, handler, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._handler = handler
        self._requested = (host, port)
        self._server: asyncio.AbstractServer | None = None
        self.host = host
        self.port: int | None = None

    async def start(self) -> "HttpServer":
        host, port = self._requested
        self._server = await asyncio.start_server(self._serve_connection,
                                                  host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    await write_response(
                        writer, error_response(400, str(error)),
                        keep_alive=False)
                    return
                except FleetConnectionError:
                    return
                if request is None:
                    return
                try:
                    response = await self._handler(request)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - 500, keep going
                    response = error_response(
                        500, f"{type(error).__name__}: {error}")
                keep_alive = request.headers.get(
                    "connection", "keep-alive").lower() != "close"
                try:
                    await write_response(writer, response,
                                         keep_alive=keep_alive)
                except FleetConnectionError:
                    return
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            # Loop or server teardown cancelled this connection task;
            # end it quietly (the finally below closes the socket) so
            # shutdown doesn't spray CancelledError logs per connection.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError here is the event loop tearing the
                # task down while the socket drains; the connection is
                # closing either way, and letting it escape a finally
                # would just log per-connection noise at shutdown.
                pass


class HttpConnection:
    """One persistent client connection with request/response framing."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        except (ConnectionError, OSError) as error:
            raise FleetConnectionError(
                f"cannot connect to {self.host}:{self.port}: "
                f"{error}") from error

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: dict[str, str] | None = None,
                      timeout: float | None = None) -> HttpResponse:
        """Send one request and await its response.

        Raises :class:`FleetConnectionError` on any transport failure
        (including timeout — the connection is closed, since a response
        may still be in flight and would desynchronize the framing).
        """
        if not self.connected:
            await self.connect()
        try:
            await asyncio.wait_for(
                write_request(self._writer, method, path, body, headers),
                timeout)
            return await asyncio.wait_for(read_response(self._reader),
                                          timeout)
        except (asyncio.TimeoutError, FleetConnectionError,
                ConnectionError, OSError) as error:
            await self.close()
            if isinstance(error, asyncio.TimeoutError):
                raise FleetTimeoutError(
                    f"request {method} {path} to {self.host}:{self.port} "
                    f"timed out after {timeout}s") from error
            raise FleetConnectionError(str(error)) from error

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = None
            self._writer = None


class ConnectionPool:
    """Per-address free lists of persistent connections.

    ``request()`` checks a connection out, runs one exchange, and checks
    it back in — so concurrent dispatches to one worker reuse sockets
    without interleaving frames.  ``forget()`` drops every pooled
    connection to an address (called when a worker is evicted).
    """

    def __init__(self, max_per_address: int = 32) -> None:
        self._free: dict[tuple[str, int], list[HttpConnection]] = {}
        self._max = max_per_address

    async def request(self, host: str, port: int, method: str, path: str,
                      body: bytes = b"",
                      headers: dict[str, str] | None = None,
                      timeout: float | None = None) -> HttpResponse:
        address = (host, port)
        free = self._free.setdefault(address, [])
        connection = free.pop() if free else HttpConnection(host, port)
        try:
            response = await connection.request(method, path, body,
                                                headers, timeout)
        except BaseException:
            await connection.close()
            raise
        if connection.connected and len(free) < self._max:
            free.append(connection)
        else:
            await connection.close()
        return response

    async def forget(self, host: str, port: int) -> None:
        for connection in self._free.pop((host, port), []):
            await connection.close()

    async def close(self) -> None:
        for connections in self._free.values():
            for connection in connections:
                await connection.close()
        self._free.clear()
