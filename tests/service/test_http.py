"""The service's HTTP/1.1 wire protocol, driven over raw sockets.

``http.client`` always sends well-formed requests, so the parser's
refusals (malformed request line, header flood, bad or oversized
``Content-Length``, a client that hangs up mid-body), the framing of
responses, pipelining and the ``drop-connection-mid-response`` fault
are exercised here byte by byte against a thread-executor service.
"""

import contextlib
import json
import socket
import time

import pytest

from repro import faultinject
from repro.service import PlanningService, ServiceThread
from repro.service.app import MAX_BODY_BYTES

SMALL_PLAN = {
    "devices": 4,
    "vocab_size": "32k",
    "microbatches": 8,
    "simulate_top_k": 1,
}


@pytest.fixture(autouse=True)
def disarm():
    """Never leak an armed process-wide injector into other tests."""
    faultinject.reset()
    yield
    faultinject.reset()


@pytest.fixture(scope="module")
def live():
    """One shared thread-hosted service for the stateless checks."""
    service = PlanningService(port=0, executor="thread", lru_size=32)
    with ServiceThread(service) as running:
        yield running


@contextlib.contextmanager
def connect(service):
    """A raw socket to ``service`` plus a buffered reader over it."""
    sock = socket.create_connection((service.host, service.port), timeout=30)
    stream = sock.makefile("rb")
    try:
        yield sock, stream
    finally:
        stream.close()
        sock.close()


def read_response(stream):
    """Read one response → (status, lower-cased headers, body bytes)."""
    status_line = stream.readline()
    assert status_line, "server closed the connection without a response"
    version, status, _reason = status_line.decode("latin-1").split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status), headers, body


def assert_closed(stream):
    """The server has closed its end: the next read is EOF."""
    assert stream.read(1) == b""


def get(path: str, *, close: bool = False) -> bytes:
    connection = "Connection: close\r\n" if close else ""
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n{connection}\r\n".encode()


class TestRequestParsing:
    def test_malformed_request_line_is_400_and_closes(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(b"NONSENSE\r\n")
            status, headers, body = read_response(stream)
            assert status == 400
            assert headers["connection"] == "close"
            error = json.loads(body)["error"]
            assert error["code"] == "bad_request"
            assert "malformed request line" in error["message"]
            assert_closed(stream)

    def test_header_flood_is_400(self, live):
        # 101 header lines and no terminating blank line: the parser
        # gives up at the 101st, so nothing is left unread.
        flood = "".join(f"X-Pad-{i}: {i}\r\n" for i in range(101))
        with connect(live) as (sock, stream):
            sock.sendall(f"GET /healthz HTTP/1.1\r\n{flood}".encode())
            status, _, body = read_response(stream)
            assert status == 400
            assert json.loads(body)["error"]["message"] == "too many headers"
            assert_closed(stream)

    def test_non_numeric_content_length_is_400(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(
                b"POST /v1/plan HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
            )
            status, _, body = read_response(stream)
            assert status == 400
            assert "'ten'" in json.loads(body)["error"]["message"]
            assert_closed(stream)

    def test_oversized_body_is_413_before_it_is_sent(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(
                b"POST /v1/plan HTTP/1.1\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            status, headers, body = read_response(stream)
            assert status == 413
            assert headers["connection"] == "close"
            error = json.loads(body)["error"]
            assert error["code"] == "payload_too_large"
            assert str(MAX_BODY_BYTES) in error["hint"]
            assert_closed(stream)

    def test_client_hanging_up_mid_body_gets_no_response(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(
                b"POST /v1/plan HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"dev"
            )
            sock.shutdown(socket.SHUT_WR)
            assert_closed(stream)
        # The torn request cost the service nothing.
        with connect(live) as (sock, stream):
            sock.sendall(get("/healthz", close=True))
            assert read_response(stream)[0] == 200

    def test_connection_closed_before_any_request_is_harmless(self, live):
        with connect(live):
            pass
        with connect(live) as (sock, stream):
            sock.sendall(get("/healthz", close=True))
            assert read_response(stream)[0] == 200

    def test_method_is_case_insensitive(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(b"get /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, _, body = read_response(stream)
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_query_string_is_ignored_for_routing(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(get("/healthz?verbose=1", close=True))
            assert read_response(stream)[0] == 200

    def test_header_names_are_case_insensitive(self, live):
        # The body is only read (and found not to be JSON) if the
        # upper-case CONTENT-LENGTH header was honoured.
        with connect(live) as (sock, stream):
            sock.sendall(
                b"POST /v1/plan HTTP/1.1\r\nCONTENT-LENGTH: 5\r\n"
                b"CONNECTION: CLOSE\r\n\r\n{oops"
            )
            status, headers, body = read_response(stream)
            assert status == 400
            assert "not valid JSON" in json.loads(body)["error"]["message"]
            assert headers["connection"] == "close"
            assert_closed(stream)


class TestResponseFraming:
    def test_headers_frame_a_sorted_json_body(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(get("/healthz"))
            status, headers, body = read_response(stream)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert headers["connection"] == "keep-alive"
        payload = json.loads(body)
        assert body == json.dumps(payload, sort_keys=True).encode()

    def test_connection_close_is_honoured(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(get("/stats", close=True))
            status, headers, _ = read_response(stream)
            assert status == 200
            assert headers["connection"] == "close"
            assert_closed(stream)

    def test_pipelined_requests_are_answered_in_order(self, live):
        with connect(live) as (sock, stream):
            sock.sendall(get("/healthz") + get("/nope") + get("/stats"))
            answers = [read_response(stream) for _ in range(3)]
        assert [status for status, _, _ in answers] == [200, 404, 200]
        assert json.loads(answers[0][2])["status"] == "ok"
        assert json.loads(answers[1][2])["error"]["code"] == "not_found"
        assert "requests" in json.loads(answers[2][2])

    def test_render_appends_extra_headers_and_names_unknown_statuses(self):
        data = PlanningService._render(
            429, {"b": 1, "a": 2}, close=False, extra={"Retry-After": "3"}
        )
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        assert lines[0] == "HTTP/1.1 429 Too Many Requests"
        assert "Retry-After: 3" in lines
        assert body == b'{"a": 2, "b": 1}'
        assert PlanningService._render(418, {}, close=True).startswith(
            b"HTTP/1.1 418 Unknown\r\n"
        )

    def test_shutdown_response_closes_a_keep_alive_connection(self):
        service = PlanningService(port=0, executor="thread")
        handle = ServiceThread(service)
        running = handle.__enter__()
        try:
            with connect(running) as (sock, stream):
                sock.sendall(
                    b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
                )
                status, headers, body = read_response(stream)
                assert status == 200
                assert json.loads(body) == {"status": "shutting-down"}
                assert headers["connection"] == "close"
                assert_closed(stream)
            handle._thread.join(timeout=30.0)
            assert not handle._thread.is_alive()
        finally:
            handle.__exit__(None, None, None)

    def test_request_begun_before_shutdown_is_answered(self):
        """Shutdown closes idle connections, not one whose request line
        has arrived: the rest of that request is read and answered."""
        service = PlanningService(port=0, executor="thread")
        handle = ServiceThread(service)
        running = handle.__enter__()
        try:
            with connect(running) as (sock, stream):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
                deadline = time.monotonic() + 10.0
                while service._idle and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not service._idle, "request line never read"
                with connect(running) as (control, control_stream):
                    control.sendall(
                        b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
                    )
                    assert read_response(control_stream)[0] == 200
                sock.sendall(b"\r\n")
                status, headers, _body = read_response(stream)
                assert status == 200
                assert headers["connection"] == "close"
                assert_closed(stream)
            handle._thread.join(timeout=30.0)
            assert not handle._thread.is_alive()
        finally:
            handle.__exit__(None, None, None)


class TestDroppedResponse:
    """The ``drop-connection-mid-response`` fault tears a response."""

    @pytest.fixture
    def fresh(self):
        service = PlanningService(port=0, executor="thread", lru_size=32)
        with ServiceThread(service) as running:
            yield running

    def plan_request(self) -> bytes:
        body = json.dumps(SMALL_PLAN).encode()
        return (
            b"POST /v1/plan HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )

    def test_torn_plan_response_then_cached_retry(self, fresh):
        faultinject.install("drop-connection-mid-response:limit=1")
        received = b""
        with connect(fresh) as (sock, _stream):
            sock.sendall(self.plan_request())
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    received += chunk
        assert received.startswith(b"HTTP/1.1 200")
        head, _, body = received.partition(b"\r\n\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        assert 0 < len(received) and len(body) < length
        assert fresh.stats.dropped_connections == 1
        # The result was cached before the tear, so the retry is a hit.
        with connect(fresh) as (sock, stream):
            sock.sendall(self.plan_request())
            status, _, body = read_response(stream)
        assert status == 200
        assert json.loads(body)["meta"]["cache"] == "lru"
        assert fresh.stats.computed == 1

    def test_control_endpoints_are_never_dropped(self, fresh):
        faultinject.install("drop-connection-mid-response")
        with connect(fresh) as (sock, stream):
            sock.sendall(get("/healthz") + get("/stats", close=True))
            assert read_response(stream)[0] == 200
            assert read_response(stream)[0] == 200
            assert_closed(stream)
        assert fresh.stats.dropped_connections == 0

    def test_error_responses_are_never_dropped(self, fresh):
        faultinject.install("drop-connection-mid-response")
        with connect(fresh) as (sock, stream):
            sock.sendall(
                b"POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Connection: close\r\n\r\n{}"
            )
            status, _, body = read_response(stream)
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_request"
        assert fresh.stats.dropped_connections == 0
