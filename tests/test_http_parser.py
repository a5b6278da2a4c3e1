"""The hand-rolled HTTP/1.1 request parser under untrusted bytes.

``read_request`` is where network input enters the service.  Whatever
arrives, it must return a :class:`Request` (or ``None`` on a clean EOF)
or raise a structured :class:`HttpProtocolError` — which the server
answers with its 4xx status — or ``IncompleteReadError`` when the peer
closes mid-body; never anything else, and never hang.  The fuzz test
holds that over arbitrary bytes; the regression cases pin the three
defects it guards against.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.http import (
    MAX_HEADERS,
    HttpProtocolError,
    HttpServer,
    Request,
    Response,
    read_request,
)

#: Seconds one parse may take; parsing in-memory bytes is microseconds.
PARSE_DEADLINE_S = 5.0


def parse(raw: bytes):
    """Run ``read_request`` over ``raw`` followed by EOF."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await asyncio.wait_for(read_request(reader), PARSE_DEADLINE_S)
    return asyncio.run(main())


#: Request fragments that steer the fuzzer past the request line.
_FRAGMENTS = st.sampled_from([
    b"GET / HTTP/1.1", b"POST /v1/jobs?wait=1&timeout=5 HTTP/1.1",
    b"GET //[abc HTTP/1.1", b"GET http://h:99999/x HTTP/1.0",
    b"Host: localhost", b"Connection: close", b"Content-Length: 3",
    b"Content-Length: -1", b"Content-Length: +3", b"Content-Length: 1_0",
    b"Content-Length: 99999999999", b"Transfer-Encoding: chunked",
    b"no colon here", b"", b"{}",
])
_RAW = st.one_of(
    st.binary(max_size=512),
    st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=40)), max_size=12)
    .map(b"\r\n".join),
)


@settings(deadline=None, max_examples=300)
@given(raw=_RAW)
def test_arbitrary_bytes_parse_or_fail_structured(raw):
    try:
        request = parse(raw)
    except HttpProtocolError as exc:
        assert 400 <= exc.status < 500
    except asyncio.IncompleteReadError:
        pass  # the peer closed before the declared body arrived
    else:
        assert request is None or isinstance(request, Request)


def _status(raw: bytes) -> int:
    with pytest.raises(HttpProtocolError) as exc_info:
        parse(raw)
    return exc_info.value.status


def test_unclosed_ipv6_target_is_a_400():
    assert _status(b"GET //[abc HTTP/1.1\r\n\r\n") == 400


def test_server_answers_a_malformed_target():
    """The server itself answers, instead of dropping the connection."""
    async def main():
        async def handler(request):
            return Response(body="ok")

        server = HttpServer(handler)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            writer.write(b"GET //[abc HTTP/1.1\r\n\r\n")
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), PARSE_DEADLINE_S)
            writer.close()
            await writer.wait_closed()
            return reply
        finally:
            await server.stop()

    assert asyncio.run(main()).startswith(b"HTTP/1.1 400 ")


@pytest.mark.parametrize("length", [b"1_0", b"+10"])
def test_content_length_takes_ascii_digits_only(length):
    raw = b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
    assert _status(raw + b"0123456789") == 400


def test_header_line_count_is_capped():
    head = b"GET / HTTP/1.1\r\n"
    ok = head + b"X-A: 1\r\n" * MAX_HEADERS + b"\r\n"
    assert isinstance(parse(ok), Request)
    over = head + b"X-A: 1\r\n" * (MAX_HEADERS + 1) + b"\r\n"
    assert _status(over) == 431
