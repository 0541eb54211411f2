"""Shared asyncio HTTP/1.1 plumbing for the repro services.

A deliberately small HTTP implementation on ``asyncio`` streams — no
third-party web framework, matching the repo's stdlib+numpy/scipy
dependency budget.  :class:`HttpServerBase` carries everything that is
identical between the repro servers — the prediction server, the tier
router, the registry, the scheduler and the span collector:

* connection handling with keep-alive and bounded header/body sizes;
* request parsing into :class:`Request`;
* dispatch with ``X-Request-Id`` echo/minting, a ``serve.request``-style
  trace span per request, and error mapping (:class:`HTTPError` ->
  status + JSON body, unexpected exceptions -> 500 without killing the
  loop);
* the request record (:attr:`HttpServerBase.metrics`, a
  :class:`~repro.serve.metrics.RequestMetrics` under the class's
  ``metrics_prefix``) that every request and error is counted in, and
  ``GET /metrics``: the process-wide sources, that record, then the
  sources a server registers on :attr:`HttpServerBase.obs_registry`;
* graceful ``stop()``: the listener closes, a subclass drain hook runs,
  in-flight requests finish, then connections are torn down; a request
  read after ``stop()`` began is answered 503 ``draining`` on a closing
  connection, never routed.

Subclasses implement ``_route`` (returning ``(status, content_type,
payload)`` or ``(status, content_type, payload, extra_headers)``) for
every path but ``/metrics``.  :class:`ServerThreadBase` runs any such
server on a background event loop for synchronous callers (tests,
benches, the CLI).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from ..obs.registry import MetricsRegistry, install_default_sources
from ..obs.trace import NullTracer, get_tracer
from .metrics import RequestMetrics

#: Shared disabled tracer for servers that opt out of request spans.
_NULL_TRACER = NullTracer()

__all__ = [
    "HTTPError",
    "HttpServerBase",
    "Request",
    "ServerThreadBase",
    "header_safe",
]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: How long a 413 waits for the rest of the rejected body.
_DISCARD_SECONDS = 1.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """Maps a handler failure to (status, reason, message[, headers])."""

    def __init__(
        self,
        status: int,
        reason: str,
        message: str,
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
        self.headers = headers or {}


class _BodyTooLarge(HTTPError):
    """A 413: the declared body is over the limit and still unsent or unread."""

    def __init__(self, length: int) -> None:
        super().__init__(
            413, "body_too_large", f"body exceeds {_MAX_BODY_BYTES} bytes"
        )
        self.length = length


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes


def header_safe(value: str, max_len: int = 128) -> str:
    """A client-supplied value made safe to echo in a response header."""
    cleaned = "".join(c for c in value if 32 <= ord(c) < 127)
    return cleaned[:max_len] or "invalid"


class HttpServerBase:
    """Lifecycle + request plumbing shared by the repro HTTP services."""

    #: Endpoints that get their own metrics label; anything else is
    #: "other" so a scanner cannot blow up label cardinality.
    known_endpoints: tuple[str, ...] = ()

    #: Name of the per-request trace span.
    request_span_name = "serve.request"

    #: Whether requests get a trace span.  The span collector turns this
    #: off: tracing its own ingest requests while the host process
    #: streams spans to it would feed the collector forever.
    trace_requests = True

    #: Prefix of the request record's families (``<prefix>_requests_total``).
    metrics_prefix: str

    #: The request record's type; the prediction server's adds its
    #: prediction-path families.
    metrics_type = RequestMetrics

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        #: Every request and error this server handles is counted here.
        self.metrics = self.metrics_type(prefix=self.metrics_prefix)
        #: This server's ``GET /metrics``: the process-wide sources, the
        #: request record, then whatever sources the server registers.
        #: Private (not a process default), so several servers in one
        #: process scrape independently.
        self.obs_registry = install_default_sources(MetricsRegistry())
        self.obs_registry.register_source("serving", self.metrics.render_prometheus)
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._active_requests = 0
        self._closing = False
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()

    # ----------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        await self._on_start()

    async def stop(self, *, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown: drain queued work, finish in-flight requests."""
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        await self._drain()
        deadline = time.monotonic() + drain_timeout_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        # Reap the per-connection tasks before returning: the caller may
        # stop the event loop right after stop(), and a handler still
        # suspended at an await would then be garbage-collected mid-frame
        # ("coroutine ignored GeneratorExit" unraisables).  Closed writers
        # end the handlers promptly; anything still stuck gets cancelled.
        tasks = [task for task in self._conn_tasks if not task.done()]
        if tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=drain_timeout_s,
                )
            except asyncio.TimeoutError:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
        self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # graceful exit path
            pass

    # ------------------------------------------------------------ hooks
    async def _on_start(self) -> None:
        """Subclass hook run after the listener binds."""

    async def _drain(self) -> None:
        """Subclass hook: flush queued work before connections close."""

    async def _route(self, request: Request):
        """Subclass hook: ``(status, content_type, payload[, headers])``."""
        raise NotImplementedError

    async def _scrape(self) -> str:
        """The ``GET /metrics`` text: this server's registry, rendered."""
        return self.obs_registry.render()

    def _endpoint_label(self, path: str) -> str:
        """Metrics label for one request path.

        Anything outside ``known_endpoints`` is "other" so a scanner
        cannot blow up label cardinality; services with dynamic paths
        (the registry's ``/v1/models/{ref}``) override this to bucket
        them.
        """
        return path if path in self.known_endpoints else "other"

    # ------------------------------------------------------------ requests
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except HTTPError as exc:
                    # Nothing after this request can be framed: answer it
                    # and close.
                    await self._reject(writer, exc)
                    if isinstance(exc, _BodyTooLarge):
                        # A client such as http.client sends the whole
                        # body before it reads the answer; closing with
                        # the body unread resets the connection under it.
                        # The body's extent is known, so swallow it first.
                        # After a 400 or 431 it is not, so close at once.
                        await _discard(reader, exc.length)
                    break
                if request is None:
                    break
                if self._closing:
                    # Read after stop() began: stop() may already have
                    # closed this writer, and a route run now could act
                    # (forward, count, predict) for an answer that never
                    # arrives.  Refuse it without running the route.
                    await self._reject(
                        writer,
                        HTTPError(503, "draining", "server is shutting down"),
                    )
                    break
                self._active_requests += 1
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    self._active_requests -= 1
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _read_request(self, reader: asyncio.StreamReader) -> Request | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            if len(head) > _MAX_HEADER_BYTES:
                raise asyncio.LimitOverrunError("header section too large", 0)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests
            raise
        except asyncio.LimitOverrunError:
            # readuntil raises it too, past the reader's 64 KiB limit.
            raise HTTPError(
                431,
                "headers_too_large",
                f"header section exceeds {_MAX_HEADER_BYTES} bytes",
            ) from None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise HTTPError(
                400, "bad_request", "request line must be METHOD TARGET VERSION"
            )
        method, target, _version = parts
        split = urlsplit(target)
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            key, _sep, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        # int() would also take "-1", "+1" and "1_0".
        if not (length_text.isascii() and length_text.isdigit()):
            raise HTTPError(
                400, "bad_request", "Content-Length must be a run of ASCII digits"
            )
        length = int(length_text)
        if length > _MAX_BODY_BYTES:
            raise _BodyTooLarge(length)
        body = await reader.readexactly(length) if length else b""
        return Request(
            method=method.upper(),
            path=split.path,
            query=parse_qs(split.query) if split.query else {},
            headers=headers,
            body=body,
        )

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        started = time.perf_counter()
        endpoint = self._endpoint_label(request.path)
        # Accept a client-supplied correlation id; mint one otherwise.  The
        # id is echoed in the response and stamped on the request span, so
        # a client, the trace, and the logs can all meet on one value.
        request_id = (
            request.headers.get("x-request-id", "").strip()
            or os.urandom(8).hex()
        )
        # Stamp the effective id back onto the request so handlers that
        # proxy the call (the router) can forward it: the router span and
        # the worker span then share one correlation id across the hop.
        request.headers["x-request-id"] = request_id
        tracer = get_tracer() if self.trace_requests else _NULL_TRACER
        # A client that is itself inside a span propagates its context as
        # "X-Trace-Context: <trace_id>/<span_id>"; the request span here
        # then joins that trace as a child, so one trace covers the
        # router -> worker hop (and scheduler -> tier) end to end.
        context = request.headers.get("x-trace-context", "")
        if context and tracer.enabled:
            remote_trace, _sep, remote_parent = context.partition("/")
            span_cm = tracer.child_span(
                self.request_span_name,
                trace_id=remote_trace.strip(),
                parent_id=remote_parent.strip() or None,
                endpoint=endpoint,
                method=request.method,
                request_id=request_id,
            )
        else:
            span_cm = tracer.span(
                self.request_span_name,
                endpoint=endpoint,
                method=request.method,
                request_id=request_id,
            )
        with span_cm as span:
            extra_headers: dict[str, str] = {}
            try:
                if request.path == "/metrics":
                    self._require(request.method, "GET")
                    text = await self._scrape()
                    routed = 200, "text/plain; version=0.0.4", text.encode()
                else:
                    routed = await self._route(request)
                if len(routed) == 4:
                    status, content_type, payload, extra_headers = routed
                else:
                    status, content_type, payload = routed
            except HTTPError as exc:
                status = exc.status
                content_type = "application/json"
                payload = json.dumps({"error": exc.message}).encode()
                extra_headers = exc.headers
                self.metrics.record_error(exc.reason)
            except Exception as exc:  # noqa: BLE001 - report, don't kill the loop
                status = 500
                content_type = "application/json"
                payload = json.dumps({"error": f"internal error: {exc}"}).encode()
                self.metrics.record_error("internal")
            span.set(status=status)
        # The span closes *before* the response bytes go out: a client
        # that has read the response can rely on the request span (and
        # the metrics below) being recorded.
        keep_alive = (
            request.headers.get("connection", "keep-alive").lower() != "close"
            and not self._closing
        )
        header_lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"X-Request-Id: {header_safe(request_id)}",
        ]
        header_lines.extend(
            f"{name}: {header_safe(str(value))}"
            for name, value in extra_headers.items()
        )
        header_lines.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
        )
        self.metrics.record_request(endpoint, status, time.perf_counter() - started)
        head = "\r\n".join(header_lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        return keep_alive

    async def _reject(
        self, writer: asyncio.StreamWriter, exc: HTTPError
    ) -> None:
        """Answer a request that could not be parsed, closing the connection."""
        self.metrics.record_error(exc.reason)
        payload = json.dumps({"error": exc.message}).encode()
        head = (
            f"HTTP/1.1 {exc.status} {_STATUS_TEXT[exc.status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HTTPError(
                405, "method_not_allowed", f"use {expected} for this endpoint"
            )

    @staticmethod
    def _json_object(request: Request) -> dict:
        """The request body as a JSON object (empty reads as ``{}``).

        Anything else is a 400 ``bad_request``, including a body nested
        deeper than the decoder's recursion limit.
        """
        try:
            body = json.loads(request.body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise HTTPError(
                400, "bad_request", f"body is not valid JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise HTTPError(400, "bad_request", "body must be a JSON object")
        return body


async def _discard(reader: asyncio.StreamReader, length: int) -> None:
    """Read and drop up to ``length`` bytes, for at most ``_DISCARD_SECONDS``."""

    async def drain() -> None:
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(remaining, 64 * 1024))
            if not chunk:
                return
            remaining -= len(chunk)

    try:
        await asyncio.wait_for(drain(), _DISCARD_SECONDS)
    except asyncio.TimeoutError:
        pass


class ServerThreadBase:
    """Run an :class:`HttpServerBase` on a background event loop.

    For synchronous callers — tests, benches, blocking clients — that
    need a live server next to blocking code.  Exit performs the graceful
    ``stop()`` (drains queued work) and joins the thread.
    """

    #: Thread name, overridden per service for debuggability.
    thread_name = "repro-http"

    def __init__(self, server: HttpServerBase) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThreadBase":
        """Start the loop thread and wait until the server is bound."""
        if self._thread is not None:
            raise RuntimeError("server thread is already running")
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - report to starter
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name=self.thread_name, daemon=True
        )
        self._thread.start()
        started.wait(timeout=10.0)
        if failure:
            self._thread.join(timeout=1.0)
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> None:
        """Gracefully stop the server and join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        try:
            future.result(timeout=10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServerThreadBase":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.stop()
