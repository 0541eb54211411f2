"""Registry wire faults answer clearly, never with a 500 or a stall.

A raw-socket fake registry plays the faults a real network produces: a
200 whose body is cut short, a 200 whose body is not JSON, and a server
that accepts connections and never answers.  The HTTP backend reads a
cut-short body as an outage (so its cache fallback applies) and an
unparsable one as a ``RegistryError`` naming the server; a prediction
server over either answers 4xx; a read replica whose upstream is down or
broken answers its change listing with 503 or 502 naming the upstream;
every listing a server answers from a broken registry is a 502 naming
it; and a hung registry stalls only the request that waits on it.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.registry import HttpBackend, RegistryError, RegistryServerThread
from repro.serve.client import ClientError, PredictionClient
from repro.serve.http import ServerThreadBase
from repro.serve.router import RouterServer, parse_canary
from repro.serve.server import ServerThread

#: A 200 announcing 200 body bytes and sending 14 of them.
TRUNCATED = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 200\r\n\r\n" + b'{"models": [],'
)
#: A complete 200 whose body is not JSON.
GARBAGE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 17\r\nConnection: close\r\n\r\n<html>oops</html>"
)
#: A plain listing: the answer of a registry without change cursors.
PLAIN_LISTING = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 13\r\nConnection: close\r\n\r\n{\"models\":[]}"
)


class FakeRegistry:
    """Answer every request with one canned reply, or (``None``) never."""

    def __init__(self, reply: bytes | None) -> None:
        self.reply = reply
        self.accepted = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)  # so the accept loop sees a stop
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._open: list[socket.socket] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(5.0)
            self._open.append(conn)
            self.accepted.set()
            if self.reply is None:
                continue  # hold the connection open, answer nothing
            try:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                conn.sendall(self.reply)
            except OSError:
                pass
            conn.close()

    def __enter__(self) -> "FakeRegistry":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()
        for conn in self._open:
            conn.close()


def _dead_url() -> str:
    """A loopback URL nothing listens on (connections are refused)."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def _get(port: int, path: str, payload: dict | None = None) -> tuple[int, dict]:
    """GET ``path``, or POST ``payload`` to it as JSON."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        if payload is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=json.dumps(payload).encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


class TestHttpBackend:
    def test_cut_short_body_reads_as_an_outage(self, cache_dir):
        with FakeRegistry(TRUNCATED) as fake:
            remote = HttpBackend(fake.url, cache_dir)
            # The listings fall back to the (empty) cache ...
            assert remote.names() == []
            assert remote.list() == []
            # ... resolution says the registry is unreachable ...
            with pytest.raises(RegistryError, match="unreachable") as excinfo:
                remote.resolve("point")
            assert fake.url in str(excinfo.value)
            # ... and the change feed, which has no cache, raises OSError.
            with pytest.raises(OSError, match="IncompleteRead") as excinfo:
                remote.changed_models(None)
            assert fake.url in str(excinfo.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda remote: remote.names(),
            lambda remote: remote.list(),
            lambda remote: remote.listing(),
            lambda remote: remote.changed_models(None),
            lambda remote: remote.resolve("point"),
            lambda remote: remote.tombstone_reason("point", 1),
        ],
        ids=[
            "names", "list", "listing", "changed_models", "resolve",
            "tombstone_reason",
        ],
    )
    def test_unparsable_body_names_the_server(self, cache_dir, call):
        with FakeRegistry(GARBAGE) as fake:
            with pytest.raises(RegistryError, match="unparsable") as excinfo:
                call(HttpBackend(fake.url, cache_dir))
        assert fake.url in str(excinfo.value)

    def test_listing_without_a_cursor_names_the_server(self, cache_dir):
        with FakeRegistry(PLAIN_LISTING) as fake:
            with pytest.raises(RegistryError, match="without a 'cursor'") as excinfo:
                HttpBackend(fake.url, cache_dir).changed_models(None)
        assert fake.url in str(excinfo.value)


class TestPredictionServer:
    @pytest.mark.parametrize("reply", [TRUNCATED, GARBAGE], ids=["cut", "garbage"])
    def test_predict_answers_4xx_never_500(self, tmp_path, reply):
        with FakeRegistry(reply) as fake:
            backend = HttpBackend(fake.url, tmp_path / "cache")
            with ServerThread(backend, hot_reload_s=0.05) as handle:
                with PredictionClient("127.0.0.1", handle.port) as client:
                    for model in ("point", "point@1"):
                        with pytest.raises(ClientError) as excinfo:
                            client.predict({"x": 1.0}, model=model)
                        assert excinfo.value.status == 404
                    time.sleep(0.15)  # a few hot-reload polls fail too
                    errors = {
                        key: value
                        for key, value in client.metrics().items()
                        if key.startswith("repro_serve_errors_total")
                    }
        assert errors == {'repro_serve_errors_total{reason="unknown_model"}': 2}

    def test_hung_registry_stalls_only_its_own_request(self, tmp_path):
        """``/metrics`` touches no backend, so it answers while a
        ``/healthz`` waits out the registry's socket timeout."""
        with FakeRegistry(None) as fake:
            backend = HttpBackend(fake.url, tmp_path / "cache", timeout_s=3.0)
            with ServerThread(backend) as handle:
                health: list[float] = []

                def probe_health():
                    started = time.monotonic()
                    with PredictionClient("127.0.0.1", handle.port) as client:
                        assert client.healthz()["status"] == "ok"
                    health.append(time.monotonic() - started)

                waiting = threading.Thread(target=probe_health)
                waiting.start()
                assert fake.accepted.wait(5.0)  # /healthz now waits on it
                started = time.monotonic()
                with PredictionClient("127.0.0.1", handle.port) as client:
                    client.metrics_text()
                scrape_s = time.monotonic() - started
                waiting.join(timeout=10.0)
        assert scrape_s < 0.5
        assert health and health[0] >= 2.5  # it really waited


class TestMirror:
    def test_change_listing_of_a_down_upstream_is_503(self, cache_dir):
        upstream = _dead_url()
        mirror = HttpBackend(upstream, cache_dir)
        with RegistryServerThread(mirror) as handle:
            status, body = _get(handle.port, "/v1/models?since=0")
        assert status == 503
        assert upstream in body["error"]

    def test_change_listing_of_a_broken_upstream_is_502(self, cache_dir):
        with FakeRegistry(GARBAGE) as fake:
            with RegistryServerThread(HttpBackend(fake.url, cache_dir)) as handle:
                status, body = _get(handle.port, "/v1/models?since=0")
        assert status == 502
        assert fake.url in body["error"]

    def test_hung_upstream_stalls_only_the_requests_that_wait_on_it(
        self, cache_dir
    ):
        """A ``/manifest`` resolve and a ``/metrics`` scrape each wait out
        the upstream's timeout, and a request that needs no backend
        answers meanwhile."""
        with FakeRegistry(None) as fake:
            mirror = HttpBackend(fake.url, cache_dir, timeout_s=1.5)
            with RegistryServerThread(mirror) as handle:
                answers: dict[str, int] = {}

                def wait_on(path: str) -> None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", handle.port, timeout=10
                    )
                    conn.request("GET", path)
                    answers[path] = conn.getresponse().status
                    conn.close()

                waiting = []
                for path in ("/v1/models/point/manifest", "/metrics"):
                    thread = threading.Thread(target=wait_on, args=(path,))
                    thread.start()
                    waiting.append(thread)
                    deadline = time.monotonic() + 5.0
                    while len(fake._open) < len(waiting):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                started = time.monotonic()
                status, _body = _get(handle.port, "/no/such/path")
                elapsed = time.monotonic() - started
                for thread in waiting:
                    thread.join(timeout=15.0)
        assert status == 404
        assert elapsed < 0.5
        # Both waited out the upstream: no cached manifest, an empty
        # cached listing for the gauges.
        assert answers == {"/v1/models/point/manifest": 404, "/metrics": 200}

    @pytest.mark.parametrize(
        "path", ["/v1/models", "/v1/models/point", "/v1/models/point@1/tombstone"]
    )
    def test_listings_of_a_broken_upstream_are_502(self, cache_dir, path):
        with FakeRegistry(GARBAGE) as fake:
            with RegistryServerThread(HttpBackend(fake.url, cache_dir)) as handle:
                status, body = _get(handle.port, path)
        assert status == 502
        assert fake.url in body["error"]


class TestListings:
    """A listing from a registry that answers garbage is a 502 naming it."""

    def test_prediction_server(self, cache_dir):
        with FakeRegistry(GARBAGE) as fake:
            with ServerThread(HttpBackend(fake.url, cache_dir)) as handle:
                answers = [_get(handle.port, p) for p in ("/healthz", "/v1/models")]
        for status, body in answers:
            assert status == 502
            assert fake.url in body["error"]

    def test_router(self, cache_dir):
        """``/v1/models`` and the listings behind machine and canary
        resolution; no request reaches the (absent) worker."""
        with FakeRegistry(GARBAGE) as fake:
            router = RouterServer(
                [int(_dead_url().rsplit(":", 1)[1])],
                HttpBackend(fake.url, cache_dir),
                canary=(parse_canary("point@2:50"),),
            )
            with ServerThreadBase(router) as handle:
                answers = [
                    _get(handle.port, "/v1/models"),
                    _get(handle.port, "/v1/predict", {"machine": "e5649"}),
                    _get(handle.port, "/v1/predict", {"model": "point"}),
                ]
        for status, body in answers:
            assert status == 502
            assert fake.url in body["error"]
