"""The fleet's HTTP framer, driven byte by byte with no sockets.

:class:`repro.fleet.http._Framer` is the parser that faces the network:
every byte a client or a worker sends passes through it.  These
properties pin its contract:

* a valid pipelined stream, split at arbitrary byte boundaries, parses
  to the same messages as the whole stream, and to the messages that
  were encoded;
* arbitrary bytes yield messages or :class:`ProtocolError` — never any
  other exception — and the verdict does not depend on how the bytes
  were split;
* ``MAX_HEADER_BYTES``, ``MAX_HEADERS`` and ``MAX_BODY_BYTES`` hold
  under any chunking: a head is refused as soon as the bytes buffered
  for it pass the limit, a body as soon as its head announces too many;
* a clean EOF between messages yields nothing, and EOF mid-message is
  a :class:`FleetConnectionError`.
"""

import string
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import http
from repro.fleet.http import (
    FleetConnectionError,
    HttpRequest,
    HttpResponse,
    ProtocolError,
    _Framer,
)

TOKEN = string.ascii_letters + string.digits + "-"
SAFE = string.ascii_letters + string.digits + "-._~"
VALUE = string.ascii_letters + string.digits + " -_.,;:/=\"'()!?*"
RESERVED = ("content-length", "transfer-encoding")

# The two framing bugs of the stream-based parser: a blank line before
# the request line raised IndexError, and int() framed bodies by
# Content-Length values RFC 9110 forbids.
LEADING_CRLF = b"\r\nGET / HTTP/1.1\r\n\r\n"
AMBIGUOUS = [
    b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
    b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
    "POST / HTTP/1.1\r\nContent-Length: ³\r\n\r\nabc".encode("latin-1"),
    b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\n"
    b"abcde",
    b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"3\r\nabc\r\n0\r\n\r\n",
]


def split_at(data: bytes, cuts) -> list[bytes]:
    points = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
    return [data[a:b] for a, b in zip(points, points[1:])]


def feed_all(framer: _Framer, chunks) -> list:
    messages = []
    for chunk in chunks:
        messages += framer.feed(chunk)
    return messages


def verdict(requests: bool, chunks) -> tuple[bool, list]:
    """``(refused, messages)``: messages are compared only when no
    chunking refused the stream."""
    try:
        return False, feed_all(_Framer(requests), chunks)
    except ProtocolError:
        return True, []


headers_st = st.dictionaries(
    st.text(TOKEN, min_size=1, max_size=10).map(str.lower).filter(
        lambda name: name not in RESERVED),
    st.text(VALUE, max_size=16).map(str.strip), max_size=4)


@st.composite
def requests_st(draw):
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    path = "/" + "/".join(draw(st.lists(st.text(SAFE, max_size=6),
                                        max_size=3)))
    query = draw(st.dictionaries(st.text(SAFE, min_size=1, max_size=4),
                                 st.text(SAFE, min_size=1, max_size=4),
                                 max_size=2))
    target = path + ("?" + "&".join(f"{k}={v}" for k, v in query.items())
                     if query else "")
    headers, body = draw(headers_st), draw(st.binary(max_size=40))
    message = HttpRequest(method, path, query, headers, body)
    return f"{method} {target} HTTP/1.1", message


@st.composite
def responses_st(draw):
    status = draw(st.sampled_from([200, 201, 400, 404, 409, 429, 500,
                                   503, 504]))
    headers, body = draw(headers_st), draw(st.binary(max_size=40))
    reason = draw(st.sampled_from(["", " OK", " Whatever It Says"]))
    return f"HTTP/1.1 {status}{reason}", HttpResponse(status, headers, body)


def wire(start: str, message, eol: str, lead: bytes) -> bytes:
    """The message as a peer would send it, after ``lead`` empty lines;
    the expected parse gains the Content-Length it carries."""
    message.headers["content-length"] = str(len(message.body))
    lines = [start] + [f"{name}: {value}"
                       for name, value in message.headers.items()]
    return lead + (eol.join(lines) + eol + eol).encode("latin-1") \
        + message.body


def streams(messages_st):
    return st.lists(
        st.tuples(messages_st, st.sampled_from(["\r\n", "\n"]),
                  st.sampled_from([b"", b"\r\n", b"\n", b"\r\n\r\n"])),
        min_size=1, max_size=4)


@pytest.mark.parametrize("requests", [True, False],
                         ids=["requests", "responses"])
@settings(max_examples=100, deadline=None)
@given(st.data(), st.lists(st.integers(0, 10_000), max_size=12))
def test_a_split_stream_parses_like_the_whole(requests, data, cuts):
    stream = data.draw(streams(requests_st() if requests
                               else responses_st()))
    raw = b"".join(wire(start, message, eol, lead)
                   for (start, message), eol, lead in stream)
    expected = [message for (_start, message), _eol, _lead in stream]
    assert feed_all(_Framer(requests), [raw]) == expected
    framer = _Framer(requests)
    assert feed_all(framer, split_at(raw, cuts)) == expected
    framer.feed_eof()               # ended between messages: clean


FRAGMENTS = [b"GET / HTTP/1.1", b"HTTP/1.1 200 OK", b"POST /x?a=1 HTTP/1.0",
             b"\r\n", b"\n", b"\r", b" ", b":", b"Content-Length: ",
             b"Transfer-Encoding: chunked", b"Connection: close", b"0",
             b"3", b"+", b"_", b"\xb3", b"abc", b"\x00", b"[", b"//x"]
soup = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map(b"".join)


@pytest.mark.parametrize("requests", [True, False],
                         ids=["requests", "responses"])
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), soup),
       st.lists(st.integers(0, 10_000), max_size=12))
@example(data=LEADING_CRLF, cuts=[1])
@example(data=AMBIGUOUS[0], cuts=[20, 41])
@example(data=AMBIGUOUS[1], cuts=[])
@example(data=AMBIGUOUS[2], cuts=[3])
@example(data=AMBIGUOUS[3], cuts=[40])
@example(data=AMBIGUOUS[4], cuts=[50])
def test_arbitrary_bytes_give_messages_or_protocol_error(requests, data,
                                                         cuts):
    whole = verdict(requests, [data])
    assert verdict(requests, split_at(data, cuts)) == whole


def test_a_blank_line_before_the_request_line_is_skipped():
    framer = _Framer(requests=True)
    assert framer.feed(LEADING_CRLF) == [HttpRequest("GET", "/")]


@pytest.mark.parametrize("data", AMBIGUOUS,
                         ids=["plus_sign", "underscore", "non_ascii_digit",
                              "two_lengths", "chunked"])
def test_ambiguous_body_framing_is_refused(data):
    with pytest.raises(ProtocolError):
        _Framer(requests=True).feed(data)


@pytest.mark.parametrize("requests, data", [
    (True, b"\rGET / HTTP/1.1\r\n\r\n"),
    (True, b"G\xc9T / HTTP/1.1\r\n\r\n"),
    (True, b"GET / HTTP/2.0\r\n\r\n"),
    (True, b"GET /\r\n\r\n"),
    (False, b"HTTP/1.1 20 OK\r\n\r\n"),
    (False, b"HTTP/1.x 200 OK\r\n\r\n"),
], ids=["cr_in_method", "non_token_method", "http2", "no_version",
        "short_status", "bad_version"])
def test_malformed_start_lines_are_refused(requests, data):
    with pytest.raises(ProtocolError, match="start line"):
        _Framer(requests).feed(data)


def test_equal_content_lengths_are_one():
    data = b"PUT / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2" \
           b"\r\n\r\nhi"
    message, = _Framer(requests=True).feed(data)
    assert message.body == b"hi"


LIMITS = {"MAX_HEADER_BYTES": 256, "MAX_HEADERS": 4, "MAX_BODY_BYTES": 64}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([b"", b"\r\n", b"\n" * 40]),
       st.integers(0, 400), st.lists(st.integers(0, 10_000), max_size=8))
def test_the_head_size_limit_holds_under_any_chunking(lead, pad, cuts):
    """The head (empty lines before it included) is refused at the first
    chunk that takes the buffered bytes past the limit, never later."""
    data = lead + b"GET / HTTP/1.1\r\nX-Pad: " + b"p" * pad + b"\r\n\r\n"
    framer = _Framer(requests=True)
    fed = 0
    with mock.patch.multiple(http, **LIMITS):
        for chunk in split_at(data, cuts):
            fed += len(chunk)
            try:
                framer.feed(chunk)
            except ProtocolError:
                assert len(data) > LIMITS["MAX_HEADER_BYTES"]
                assert fed > LIMITS["MAX_HEADER_BYTES"] >= fed - len(chunk)
                return
    assert len(data) <= LIMITS["MAX_HEADER_BYTES"]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.lists(st.integers(0, 10_000), max_size=8))
def test_the_header_count_limit_holds_under_any_chunking(count, cuts):
    data = b"GET / HTTP/1.1\r\n" + b"".join(
        b"X-%d: v\r\n" % i for i in range(count)) + b"\r\n"
    with mock.patch.multiple(http, **LIMITS):
        refused, messages = verdict(True, split_at(data, cuts))
    assert refused == (count > LIMITS["MAX_HEADERS"])
    assert len(messages) == (not refused)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 130), st.lists(st.integers(0, 10_000), max_size=8))
def test_the_body_limit_holds_before_any_body_byte(length, cuts):
    """A body over the limit is refused on its head alone; one within
    it completes when its last byte arrives."""
    head = b"PUT / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length
    framer = _Framer(requests=True)
    with mock.patch.multiple(http, **LIMITS):
        if length > LIMITS["MAX_BODY_BYTES"]:
            with pytest.raises(ProtocolError):
                feed_all(framer, split_at(head, cuts))
            return
        assert feed_all(framer, split_at(head, cuts)) == []
        body = bytes(range(length))
        message, = feed_all(framer, split_at(body, cuts))
    assert message.body == body


def test_clean_eof_between_messages_yields_nothing():
    framer = _Framer(requests=True)
    assert framer.feed(b"") == []
    framer.feed_eof()
    assert len(framer.feed(b"GET / HTTP/1.1\r\n\r\n\r\n")) == 1
    framer.feed_eof()               # trailing empty lines are no message


@pytest.mark.parametrize("partial", [
    b"GET / HT", b"GET / HTTP/1.1\r\nHost: x\r\n",
    b"PUT / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab"],
    ids=["request_line", "headers", "body"])
def test_eof_mid_message_is_a_connection_error(partial):
    framer = _Framer(requests=True)
    assert framer.feed(partial) == []
    with pytest.raises(FleetConnectionError, match="mid-message"):
        framer.feed_eof()
