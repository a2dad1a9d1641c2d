"""Minimal HTTP/1.1 on asyncio Protocols — the fleet's only wire format.

The repo runs offline with no third-party web stack, so the fleet speaks
a deliberately small HTTP/1.1 subset: request line + headers +
``Content-Length`` body, persistent (keep-alive) connections, JSON or
raw-octet payloads.  No chunked encoding, no TLS, no multipart — every
fleet endpoint fits the subset, and real HTTP clients (curl, a browser)
can still talk to it.

Three layers: :class:`_Framer` turns bytes into whole messages with no
I/O, so tests drive it byte by byte; :class:`HttpServer` feeds a framer
per connection and awaits the handler on its requests in order, in one
Task per connection; :class:`HttpConnection` sends a request as one
write and awaits one future, its deadline a loop timer, and
:class:`ConnectionPool` keeps such connections per address.

Failure model: a framing violation raises :class:`ProtocolError` (the
server answers 400 and closes); a transport failure — peer died, reset,
EOF mid-response — raises :class:`FleetConnectionError`, which the
router's retry-with-backoff keys on.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qsl

# Framing limits: generous for artifact blobs, tight enough that a
# misbehaving peer cannot balloon memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADERS = 100
MAX_BODY_BYTES = 512 * 1024 * 1024
# Idle keep-alive connections a ConnectionPool keeps per address.
MAX_IDLE_PER_ADDRESS = 32

REASONS = {status.value: status.phrase for status in HTTPStatus}


class ProtocolError(ValueError):
    """The peer sent bytes that are not the HTTP subset we speak."""


class FleetConnectionError(ConnectionError):
    """The transport failed (peer gone, reset, EOF mid-message): to the
    router, "that worker may be dead" — retry on another replica."""


class FleetTimeoutError(FleetConnectionError):
    """The peer stayed silent past the client's timeout: a *hang*, which
    the load generator and the fault tests tell apart from a *drop* (the
    base class).  The connection is torn down either way."""


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
        return _parse_json(self.body)

    def json_object(self) -> dict:
        """The body parsed as a JSON *object*; :class:`ProtocolError` for
        ``[]``, ``3`` or ``"x"``, which a handler's ``.get`` would 500."""
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
        return _parse_json(self.body)


def _parse_json(body: bytes):
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as error:      # RecursionError: nested too deep
        raise ProtocolError(f"malformed JSON body: {error}") from error


def json_response(payload, status: int = 200,
                  headers: dict[str, str] | None = None) -> HttpResponse:
    """Build a JSON :class:`HttpResponse` (the fleet's default shape)."""
    return HttpResponse(status, {"Content-Type": "application/json",
                                 **(headers or {})},
                        json.dumps(payload).encode("utf-8"))


def error_response(status: int, message: str, reason: str | None = None,
                   headers: dict[str, str] | None = None) -> HttpResponse:
    """A JSON error body; ``reason`` is the machine-readable failure
    code (``queue_full``, ``deadline_exceeded``, ...) clients switch on
    so they never have to parse prose."""
    payload: dict[str, str] = {"error": message}
    if reason is not None:
        payload["reason"] = reason
    return json_response(payload, status=status, headers=headers)


# A head ends at its first empty line; a bare LF ends a line like CRLF.
_HEAD_END = re.compile(rb"\n\r?\n")
_BLANK_LINES = re.compile(rb"(?:\r?\n)*")
_REQUEST_LINE = re.compile(r"(?a)([\w!#$%&'*+.^`|~-]+) ([^ ]+) HTTP/1\.[0-9]")
_STATUS_LINE = re.compile(r"HTTP/1\.[0-9] ([0-9]{3})(?: .*)?")
# RFC 9110 §8.6: 1*DIGIT, not int()'s "+3", "1_0" or non-ASCII digits;
# more than 18 digits is over any limit (and int() refuses thousands).
_LENGTH = re.compile(r"[0-9]{1,18}")


class _Framer:
    """Incremental HTTP/1.1 framing with no I/O.

    :meth:`feed` returns the requests (``requests=True``) or responses
    the bytes complete, and raises :class:`ProtocolError` on a framing
    violation, after which the stream is unusable.  Limits are checked
    against what is buffered, so they hold however the bytes are split.
    Empty lines before a message are skipped (RFC 9112 §2.2) and a bare
    LF ends a line; ``Transfer-Encoding`` and two differing
    ``Content-Length`` values are refused (see docs/fleet.md).
    """

    def __init__(self, requests: bool) -> None:
        self._requests = requests
        self._buffer = bytearray()
        self._scanned = 0       # head bytes already searched for its end
        self._skipped = 0       # empty lines skipped before this head
        self._message: HttpRequest | HttpResponse | None = None
        self._length = 0        # body bytes self._message waits for

    def feed(self, data: bytes) -> list:
        buffer = self._buffer
        buffer += data
        messages = []
        while self._message is not None or buffer and self._take_head():
            if len(buffer) < self._length:
                break
            with memoryview(buffer) as view:
                self._message.body = bytes(view[:self._length])
            del buffer[:self._length]
            messages.append(self._message)
            self._message = None
        return messages

    def feed_eof(self) -> None:
        """:class:`FleetConnectionError` if the stream ended mid-message."""
        if self._message is not None or self._buffer.lstrip(b"\r\n"):
            raise FleetConnectionError("peer closed mid-message")

    def _take_head(self) -> bool:
        buffer = self._buffer
        blank = _BLANK_LINES.match(buffer).end()
        if blank:
            del buffer[:blank]
            self._skipped += blank
            self._scanned = 0
        end = _HEAD_END.search(buffer, max(0, self._scanned - 2))
        self._scanned = end.end() if end else len(buffer)
        if self._skipped + self._scanned > MAX_HEADER_BYTES:
            raise ProtocolError("headers exceed the size limit")
        if end is None:
            return False
        start, *lines = buffer[:end.start()].decode("latin-1").split("\n")
        del buffer[:end.end()]
        self._scanned = self._skipped = 0
        if len(lines) > MAX_HEADERS:
            raise ProtocolError("too many headers")
        headers: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if not sep:
                raise ProtocolError(f"malformed header line {line!r}")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise ProtocolError("conflicting Content-Length headers")
            headers[name] = value
        length = headers.get("content-length", "0")
        if not _LENGTH.fullmatch(length) or int(length) > MAX_BODY_BYTES:
            raise ProtocolError(f"bad Content-Length {length!r}")
        if "transfer-encoding" in headers:
            raise ProtocolError("Transfer-Encoding is not supported")
        self._length = int(length)
        start = start.removesuffix("\r")
        match = (_REQUEST_LINE if self._requests
                 else _STATUS_LINE).fullmatch(start)
        if match is None:
            raise ProtocolError(f"malformed start line {start!r}")
        if self._requests:
            path, _, query = match[2].partition("?")    # origin-form
            self._message = HttpRequest(match[1].upper(), path, dict(
                parse_qsl(query)) if query else {}, headers)
        else:
            self._message = HttpResponse(int(match[1]), headers)
        return True


def _encode(first_line: str, headers: dict[str, str], body: bytes) -> bytes:
    lines = [f"{name}: {value}" for name, value in headers.items()
             if name.lower() != "content-length"]
    return "\r\n".join([first_line, *lines, f"Content-Length: {len(body)}",
                        "", ""]).encode("latin-1") + body


def _fail(future: asyncio.Future | None, error: Exception) -> None:
    if future is not None and not future.done():
        future.set_exception(error)


class _ServerConnection(asyncio.Protocol):
    """One accepted connection: its framer's requests, answered in order
    by one Task.  Reading pauses while a request waits behind the one in
    flight; a response waits out ``pause_writing`` (a multi-MB body)."""

    def __init__(self, handler) -> None:
        self._handler = handler
        self._framer = _Framer(requests=True)
        # Parsed requests; then a ProtocolError to answer, or None at EOF.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._busy = False          # a handler is running
        self._writable = asyncio.Event()
        self._writable.set()

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._task = asyncio.get_running_loop().create_task(self._serve())

    def data_received(self, data: bytes) -> None:
        try:
            requests = self._framer.feed(data)
        except ProtocolError as error:
            requests = [error]
            self._transport.pause_reading()     # for good
        for request in requests:
            self._queue.put_nowait(request)
        if self._queue.qsize() + self._busy > 1:
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._queue.put_nowait(None)
        return True                 # half-closed: still answer the queue

    def connection_lost(self, exc: Exception | None) -> None:
        self._queue.put_nowait(None)
        self._writable.set()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    async def _serve(self) -> None:
        try:
            keep_alive = True
            while keep_alive:
                if self._queue.empty():
                    self._transport.resume_reading()    # if paused
                request = await self._queue.get()
                if request is None:
                    return
                if isinstance(request, ProtocolError):
                    response = error_response(400, str(request))
                    keep_alive = False
                else:
                    self._busy = True
                    try:
                        response = await self._handler(request)
                    except Exception as error:  # noqa: BLE001 - a 500
                        response = error_response(
                            500, f"{type(error).__name__}: {error}")
                    self._busy = False
                    keep_alive = request.headers.get(
                        "connection", "keep-alive").lower() != "close"
                if self._transport.is_closing():
                    return
                status = response.status
                self._transport.write(_encode(
                    f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
                    {"Connection": "keep-alive" if keep_alive else "close",
                     **response.headers}, response.body))
                await self._writable.wait()
        finally:
            self._transport.close()


class HttpServer:
    """``async def handle(request) -> HttpResponse`` served on
    ``loop.create_server``: an exception it raises becomes a 500 (the
    connection survives), a :class:`ProtocolError` from parsing a 400
    and a close.  Port 0 picks a free port, read back from :attr:`port`
    after :meth:`start` (how workers report their address)."""

    def __init__(self, handler, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._handler = handler
        self._server: asyncio.AbstractServer | None = None
        self.host = host
        self.port = port

    async def start(self) -> "HttpServer":
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ServerConnection(self._handler), self.host, self.port)
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


class HttpConnection(asyncio.Protocol):
    """One persistent client connection, and the protocol under it."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._transport: asyncio.Transport | None = None
        self._response: asyncio.Future | None = None

    @property
    def connected(self) -> bool:
        return self._transport is not None and not self._transport.is_closing()

    async def connect(self) -> None:
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: self, self.host, self.port)
        except OSError as error:
            raise FleetConnectionError(f"cannot connect to {self.host}:"
                                       f"{self.port}: {error}") from error

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: dict[str, str] | None = None,
                      timeout: float | None = None) -> HttpResponse:
        """Send one request and await its response: else
        :class:`FleetConnectionError` on a transport failure, its subclass
        :class:`FleetTimeoutError` after ``timeout`` seconds, or
        :class:`ProtocolError`.  Each, and a cancel, closes the connection:
        a late response would desynchronize the framing."""
        if not self.connected:
            await self.connect()
        loop = asyncio.get_running_loop()
        self._response = future = loop.create_future()
        timer = None if timeout is None else loop.call_later(
            timeout, _fail, future, FleetTimeoutError(
                f"request {method} {path} to {self.host}:{self.port} "
                f"timed out after {timeout}s"))
        self._transport.write(_encode(f"{method} {path} HTTP/1.1",
                                      headers or {}, body))
        try:
            return await future
        except BaseException:
            self._transport.close()
            raise
        finally:
            if timer is not None:
                timer.cancel()
            self._response = None

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._framer = _Framer(requests=False)

    def data_received(self, data: bytes) -> None:
        try:
            responses = self._framer.feed(data)
            if len(responses) > 1 or responses and self._response is None:
                raise ProtocolError("a response nobody asked for")
        except ProtocolError as error:
            _fail(self._response, error)
            self._transport.close()
            return
        if responses and not self._response.done():
            self._response.set_result(responses[0])

    def connection_lost(self, exc: Exception | None) -> None:
        if not self._transport.is_closing():
            return      # late news of a transport a reconnect replaced
        try:
            self._framer.feed_eof()
        except FleetConnectionError as mid_message:
            exc = mid_message
        _fail(self._response, FleetConnectionError(
            str(exc or "peer closed before responding")))


class ConnectionPool:
    """Per-address free lists of persistent connections: ``request()``
    checks one out for one exchange and back in, so concurrent dispatches
    reuse sockets without interleaving frames; ``forget()`` drops an
    address's connections (when a worker is evicted)."""

    def __init__(self) -> None:
        self._free: dict[tuple[str, int], list[HttpConnection]] = {}

    async def request(self, host: str, port: int, method: str, path: str,
                      body: bytes = b"",
                      headers: dict[str, str] | None = None,
                      timeout: float | None = None) -> HttpResponse:
        free = self._free.setdefault((host, port), [])
        connection = free.pop() if free else HttpConnection(host, port)
        response = await connection.request(method, path, body, headers,
                                            timeout)
        if connection.connected and len(free) < MAX_IDLE_PER_ADDRESS:
            free.append(connection)
        else:
            await connection.close()
        return response

    async def forget(self, host: str, port: int) -> None:
        for connection in self._free.pop((host, port), []):
            await connection.close()

    async def close(self) -> None:
        for host, port in list(self._free):
            await self.forget(host, port)
