"""Span streaming: ship finished spans to a collector without blocking.

:class:`SpanSender` owns a bounded queue and a background thread.  The
hot path (a span finishing) does one non-blocking ``put``; when the
queue is full the span is *shed* and counted (``dropped``), never
blocking the instrumented code — the same discipline the tracer's ring
buffer applies locally.  The background thread batches queued spans and
POSTs them as JSON to a collector's ``/v1/spans`` endpoint over one
keep-alive connection; send failures drop the batch and count
(``send_errors``) rather than retry-blocking, so a dead collector costs
the fleet nothing but its spans.

:class:`StreamingTracer` is a recording :class:`~repro.obs.trace.Tracer`
that additionally serializes every locally finished span into a sender.
Spans *ingested* from other processes are retained but never re-streamed
(no echo loops when a parent both ingests and streams).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import threading

from .trace import Span, Tracer

__all__ = [
    "SpanSender",
    "StreamingTracer",
    "parse_endpoint",
]

#: Sentinel asking the sender thread to exit after flushing.
_STOP = object()


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``"http://host:port"`` or ``"host:port"`` -> ``(host, port)``."""
    cleaned = endpoint.strip()
    for prefix in ("http://", "https://"):
        if cleaned.startswith(prefix):
            cleaned = cleaned[len(prefix):]
            break
    cleaned = cleaned.rstrip("/").partition("/")[0]
    host, _sep, port = cleaned.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"collector endpoint must be host:port or http://host:port, "
            f"got {endpoint!r}"
        )
    return host, int(port)


class SpanSender:
    """Bounded, non-blocking span shipper feeding one collector.

    Parameters
    ----------
    endpoint:
        Collector address (``host:port`` or ``http://host:port``).
    resource:
        Attributes describing this process (service name, worker id,
        pid); sent once per batch and attached to every span by the
        collector.  ``pid`` is filled in automatically.
    max_queue:
        Queue capacity; spans beyond it are shed and counted.
    batch_max:
        Largest number of spans per POST.
    flush_interval_s:
        How long the sender thread waits for more spans before shipping
        a partial batch.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        resource: dict | None = None,
        max_queue: int = 4096,
        batch_max: int = 512,
        flush_interval_s: float = 0.2,
        timeout_s: float = 5.0,
    ) -> None:
        self.endpoint = endpoint
        self.host, self.port = parse_endpoint(endpoint)
        self.resource = dict(resource or {})
        self.resource.setdefault("pid", os.getpid())
        self.batch_max = max(1, int(batch_max))
        self.flush_interval_s = flush_interval_s
        self.timeout_s = timeout_s
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        #: Spans shed because the queue was full.
        self.dropped = 0
        #: Spans accepted by the collector.
        self.sent = 0
        #: Failed POSTs (each costs one batch of spans).
        self.send_errors = 0
        self._reported_drops = 0
        self._conn: http.client.HTTPConnection | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-span-sender", daemon=True
        )
        self._thread.start()

    # -------------------------------------------------------------- hot path
    def enqueue(self, record: dict) -> bool:
        """Queue one serialized span; shed (and count) when full."""
        if self._closed:
            self.dropped += 1
            return False
        try:
            self._queue.put_nowait(record)
            return True
        except queue.Full:
            self.dropped += 1
            return False

    # ------------------------------------------------------------- lifecycle
    def flush(self, timeout_s: float = 5.0) -> None:
        """Block until every span queued so far has been shipped (or shed)."""
        if self._closed or not self._thread.is_alive():
            return
        event = threading.Event()
        self._queue.put(("__flush__", event))
        event.wait(timeout=timeout_s)

    def close(self, timeout_s: float = 5.0) -> None:
        """Flush, stop the sender thread, and drop the connection."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "SpanSender":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -------------------------------------------------------- sender thread
    def _run(self) -> None:
        batch: list[dict] = []
        while True:
            try:
                item = self._queue.get(timeout=self.flush_interval_s)
            except queue.Empty:
                if batch:
                    self._post(batch)
                    batch = []
                continue
            if item is _STOP:
                self._post(batch)
                self._teardown()
                return
            if isinstance(item, tuple) and item and item[0] == "__flush__":
                self._post(batch)
                batch = []
                item[1].set()
                continue
            batch.append(item)
            if len(batch) >= self.batch_max:
                self._post(batch)
                batch = []

    def _post(self, batch: list[dict]) -> None:
        if not batch:
            return
        # Report shed counts alongside the spans: the collector folds
        # them into the fleet-wide drop total even though the spans
        # themselves are gone.
        drop_delta = self.dropped - self._reported_drops
        payload = json.dumps(
            {
                "resource": self.resource,
                "spans": batch,
                "dropped": drop_delta,
            }
        ).encode()
        for attempt in (0, 1):
            try:
                if self._conn is None:
                    self._conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout_s
                    )
                self._conn.request(
                    "POST",
                    "/v1/spans",
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = self._conn.getresponse()
                response.read()
                if response.status == 200:
                    self.sent += len(batch)
                    self._reported_drops += drop_delta
                    return
                break  # collector answered but refused; don't retry
            except (OSError, http.client.HTTPException):
                # Stale keep-alive connection or dead collector: retry
                # once on a fresh connection, then count and move on.
                self._teardown()
                if attempt == 1:
                    break
        self.send_errors += 1

    def _teardown(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._conn = None


class StreamingTracer(Tracer):
    """A recording tracer that also streams finished spans to a sender.

    Locally recorded spans go to the ring buffer *and* the sender;
    ingested spans stay local (their origin already streamed them).
    """

    def __init__(self, sender: SpanSender, **kwargs) -> None:
        service = kwargs.pop("service", None)
        if service is None:
            service = str(sender.resource.get("service", "repro"))
        super().__init__(service=service, **kwargs)
        self.sender = sender

    def _finish(self, span: Span) -> None:
        self._append(span)
        self.sender.enqueue(self.serialize(span))

    def flush(self, timeout_s: float = 5.0) -> None:
        """Push everything streamed so far through to the collector."""
        self.sender.flush(timeout_s=timeout_s)

    def close(self, timeout_s: float = 5.0) -> None:
        """Flush and stop the sender thread."""
        self.sender.close(timeout_s=timeout_s)
