"""The span collector: one sink for a whole fleet's traces.

:class:`CollectorServer` is a small HTTP service on the shared
:class:`~repro.serve.http.HttpServerBase` plumbing that pool workers,
serving-tier workers, the router, and the scheduler stream finished
spans to (``POST /v1/spans``, JSON object or JSON-lines).  Spans keep
the ``trace_id``/``parent_id`` their origin tracer assigned, so a
request that crossed three processes reassembles into one tree; each
batch's ``resource`` (service name, worker id, pid) is stamped onto its
spans for the exports.

Storage is a bounded ring like the in-process tracer's: when it wraps,
the oldest spans go and the eviction is counted.  Senders also report
how many spans *they* shed (queue-full on the hot path), so the
collector's ``/metrics`` scrape shows fleet-wide drops in one
``repro_obs_spans_dropped_total`` family.

Exports mirror the tracer's: Chrome trace JSON through the tracer's
writer (:func:`~repro.obs.trace.write_chrome`, one row group per origin
process) and OTLP/JSON via :mod:`repro.obs.otlp`.
:class:`CollectorThread` runs the collector on a background loop for
synchronous callers (the CLI, tests, the serving tier).
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque

from ..serve.http import HTTPError, HttpServerBase, Request, ServerThreadBase
from .registry import Exposition
from .trace import write_chrome

__all__ = ["CollectorServer", "CollectorThread"]


class CollectorServer(HttpServerBase):
    """HTTP span sink with bounded storage and Chrome/OTLP export."""

    known_endpoints = ("/v1/spans", "/healthz", "/metrics")
    request_span_name = "collector.request"
    metrics_prefix = "repro_obs_collector"
    #: The collector must not trace its own ingest requests: a process
    #: that both streams spans and hosts the collector would otherwise
    #: generate a span per batch received, feeding itself forever.
    trace_requests = False

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_spans: int = 500_000,
    ) -> None:
        super().__init__(host=host, port=port)
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._records: deque[dict] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        #: Spans accepted across all batches.
        self.received = 0
        #: Spans evicted from the collector's own ring buffer.
        self.dropped = 0
        #: Spans senders reported shedding before they reached us.
        self.client_dropped = 0
        #: Batches received per service name.
        self.batches: dict[str, int] = {}
        self.obs_registry.register_source(
            "collector", self._render_collector_metrics
        )

    @property
    def endpoint(self) -> str:
        """The address senders should stream to."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- ingest
    def ingest(
        self, spans: list[dict], *, resource: dict | None = None, dropped: int = 0
    ) -> int:
        """Adopt a batch of serialized spans; returns the count accepted."""
        resource = dict(resource or {})
        service = str(resource.get("service", "unknown"))
        with self._lock:
            self.batches[service] = self.batches.get(service, 0) + 1
            self.client_dropped += max(0, int(dropped))
            for record in spans:
                if not isinstance(record, dict):
                    continue
                if resource and not record.get("resource"):
                    record = {**record, "resource": resource}
                if len(self._records) == self.max_spans:
                    self.dropped += 1
                self._records.append(record)
                self.received += 1
        return len(spans)

    def records(self) -> list[dict]:
        """Snapshot of retained spans, oldest first."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------- routes
    async def _route(self, request: Request):
        if request.path == "/healthz":
            return 200, "application/json", json.dumps(
                {"status": "ok", "spans": len(self)}
            ).encode()
        if request.path == "/v1/spans":
            if request.method == "GET":
                return 200, "application/json", json.dumps(
                    {"spans": self.records()}
                ).encode()
            self._require(request.method, "POST")
            return self._accept_spans(request.body)
        raise HTTPError(404, "not_found", f"unknown path {request.path}")

    def _accept_spans(self, body: bytes):
        batches = self._parse_batches(body)
        accepted = 0
        for resource, spans, dropped in batches:
            accepted += self.ingest(spans, resource=resource, dropped=dropped)
        return 200, "application/json", json.dumps(
            {"accepted": accepted}
        ).encode()

    @staticmethod
    def _parse_batches(body: bytes) -> list[tuple[dict, list[dict], int]]:
        """Parse a POST body: one JSON batch object, or JSON-lines.

        The batch form is ``{"resource": {...}, "spans": [...],
        "dropped": n}``; JSON-lines is one record (or batch object) per
        ``"\\n"``-terminated line, for senders that stream without
        buffering.  JSON nested past the decoder's recursion limit is a
        400 like any other unparsable payload.
        """
        text = body.decode("utf-8", errors="replace").strip()
        if not text:
            raise HTTPError(400, "bad_request", "empty span payload")
        try:
            payloads = [json.loads(text)]
        except (json.JSONDecodeError, RecursionError):
            try:
                payloads = [
                    json.loads(line)
                    for line in text.split("\n")
                    if line.strip()
                ]
            except (json.JSONDecodeError, RecursionError) as exc:
                raise HTTPError(
                    400, "bad_request", f"invalid span JSON: {exc}"
                ) from exc
        batches: list[tuple[dict, list[dict], int]] = []
        for payload in payloads:
            if isinstance(payload, dict) and "spans" in payload:
                spans = payload.get("spans")
                if not isinstance(spans, list):
                    raise HTTPError(400, "bad_request", "spans must be a list")
                resource = payload.get("resource") or {}
                if not isinstance(resource, dict):
                    raise HTTPError(
                        400, "bad_request", "resource must be an object"
                    )
                dropped = payload.get("dropped") or 0
                if (
                    isinstance(dropped, bool)
                    or not isinstance(dropped, (int, float))
                    or not math.isfinite(dropped)
                ):
                    raise HTTPError(
                        400, "bad_request", "dropped must be a finite number"
                    )
                batches.append((dict(resource), spans, int(dropped)))
            elif isinstance(payload, dict):
                # A bare span record (JSON-lines style).
                batches.append(({}, [payload], 0))
            else:
                raise HTTPError(
                    400, "bad_request", "span payload must be an object"
                )
        return batches

    # ------------------------------------------------------------ metrics
    def _render_collector_metrics(self) -> str:
        with self._lock:
            received = self.received
            stored = len(self._records)
            ring_dropped = self.dropped
            shed = self.client_dropped
            batches = dict(self.batches)
        out = Exposition()
        out.counter(
            "repro_obs_collector_spans_received_total",
            "Spans accepted by the collector.",
            received,
        )
        out.gauge(
            "repro_obs_collector_spans_stored",
            "Spans currently retained in the collector ring.",
            stored,
        )
        out.family(
            "repro_obs_collector_batches_total",
            "counter",
            "Span batches received per origin service.",
            [({"service": name}, n) for name, n in sorted(batches.items())],
        )
        # Scoped under its own family: the registry's default "obs"
        # source already renders repro_obs_spans_dropped_total for this
        # process's tracer, and one exposition must not repeat a family.
        out.family(
            "repro_obs_collector_spans_dropped_total",
            "counter",
            "Spans lost before reaching collector storage, by where they "
            "were shed.",
            [
                ({"reason": "ring_wrap"}, ring_dropped),
                ({"reason": "sender_shed"}, shed),
            ],
        )
        return out.text()

    # ------------------------------------------------------------- export
    def export_chrome(self, path) -> int:
        """Write stored spans as Chrome trace JSON; returns the span count."""
        return write_chrome(path, self.records())

    def export_otlp(self, path) -> int:
        """Write stored spans as OTLP/JSON; returns the span count."""
        from .otlp import write_otlp

        return write_otlp(path, self.records())


class CollectorThread(ServerThreadBase):
    """A :class:`CollectorServer` on a background event loop."""

    thread_name = "repro-collector"

    def __init__(self, **kwargs) -> None:
        super().__init__(CollectorServer(**kwargs))

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def records(self) -> list[dict]:
        return self.server.records()

    def export_chrome(self, path) -> int:
        return self.server.export_chrome(path)

    def export_otlp(self, path) -> int:
        return self.server.export_otlp(path)
