"""Tracing core: spans, the process tracer, and Chrome trace export.

A :class:`Span` is one timed region of work — a steady-state solve, an SCG
restart, a serving request — with a name, trace/span identifiers, wall
duration from the monotonic clock, and free-form attributes.  Spans nest
through a :mod:`contextvars` context variable, so parent/child linkage is
correct across ``async`` task switches as well as plain call stacks.

The process-wide tracer is a module global exchanged with
:func:`set_tracer`; it starts as a :class:`NullTracer` whose ``span()``
hands back one shared no-op context manager, so instrumented hot paths pay
only a method call and a dict construction when tracing is off (the
validation bench guards that cost at under 2% of sweep wall time).
Enabling tracing (:func:`enable`, or CLI ``--trace``) swaps in a recording
:class:`Tracer` that keeps finished spans in a bounded ring buffer and
exports them as Chrome trace-event JSON through :func:`write_chrome`, the
one Chrome writer (the span collector's export uses it too) — load the
file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` to see
the timeline.

Spans that are only known after the fact (e.g. how long a row waited in a
micro-batch, discovered at flush time) are recorded retroactively with
:meth:`Tracer.record_span`, which accepts explicit start/end timestamps
from ``time.perf_counter()``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Iterable

__all__ = [
    "NullTracer",
    "Span",
    "Tracer",
    "current_span",
    "current_trace_id",
    "disable",
    "enable",
    "get_tracer",
    "records_to_chrome",
    "set_tracer",
    "write_chrome",
]

#: The active span for the current execution context (task or thread).
_ACTIVE_SPAN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)


class Span:
    """One timed, attributed region of work.

    Spans are context managers: entering starts the clock and makes the
    span the context's active span; exiting stops the clock, restores the
    previous active span, and hands the finished record to the tracer's
    ring buffer.  ``set()`` attaches attributes at any point in between.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "start",
        "end",
        "thread_id",
        "resource",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attributes: dict,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start = 0.0  # perf_counter seconds; set on __enter__
        self.end = 0.0
        self.thread_id = 0
        #: Origin process metadata for spans ingested from another
        #: process ({"service": ..., "pid": ..., ...}); ``None`` for
        #: spans recorded locally.
        self.resource: dict | None = None
        self._tracer = tracer
        self._token: contextvars.Token | None = None

    @property
    def duration_s(self) -> float:
        """Wall seconds between enter and exit (0.0 while open)."""
        return max(0.0, self.end - self.start)

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        self._token = _ACTIVE_SPAN.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
            self._token = None
        self._tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{1e3 * self.duration_s:.3f} ms" if self.end else "open"
        return f"Span({self.name!r}, {state}, attrs={self.attributes})"


class _NullSpan:
    """Shared do-nothing span handed out by the :class:`NullTracer`."""

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    attributes: dict = {}
    duration_s = 0.0

    def set(self, **_attributes) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every ``span()`` is the same shared no-op.

    ``enabled`` is ``False`` so instrumentation that wants literally zero
    cost (e.g. skipping attribute construction) can branch on it; code
    that just wraps a region in ``with tracer.span(...)`` works unchanged.
    """

    enabled = False

    def span(self, _name: str, **_attributes) -> _NullSpan:
        """A no-op context manager (one shared instance)."""
        return _NULL_SPAN

    def child_span(self, _name: str, **_kwargs) -> _NullSpan:
        """A no-op context manager for a remote-parented span."""
        return _NULL_SPAN

    def record_span(self, _name: str, **_kwargs) -> None:
        """Discard a retroactive span."""
        return None

    def ingest(self, _records) -> int:
        """Discard spans serialized by another process."""
        return 0

    def spans(self) -> list:
        """No spans are ever retained."""
        return []

    def __len__(self) -> int:
        return 0


class Tracer:
    """Recording tracer: bounded ring buffer + Chrome trace export.

    Parameters
    ----------
    max_spans:
        Ring-buffer capacity; once full, the oldest finished spans are
        dropped (long-running servers keep the most recent window).
    service:
        Process label used for the Chrome export's ``pid`` row name.
    """

    enabled = True

    def __init__(self, *, max_spans: int = 200_000, service: str = "repro") -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.service = service
        self.max_spans = max_spans
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        #: Random per-tracer prefix: span ids stay unique across the
        #: processes of a fleet, so streamed spans never collide.
        self._id_prefix = os.urandom(3).hex()
        #: Spans evicted from the ring buffer since creation (the buffer
        #: wrapped).  Exposed as ``repro_obs_spans_dropped_total``.
        self.dropped = 0
        #: A perf_counter instant and the wall-clock instant matching it:
        #: :meth:`serialize` turns span times into unix seconds with them,
        #: so spans from many processes share one timeline.
        self.epoch = time.perf_counter()
        self.wall_epoch = time.time()

    # ----------------------------------------------------------- creation
    def _next_id(self) -> str:
        with self._id_lock:
            return f"{self._id_prefix}{next(self._ids):06x}"

    def span(self, name: str, **attributes) -> Span:
        """A new span, parented to the context's active span (if any)."""
        parent = _ACTIVE_SPAN.get()
        span_id = self._next_id()
        if parent is not None and parent.trace_id:
            trace_id: str = parent.trace_id
            parent_id: str | None = parent.span_id
        else:
            trace_id = f"t{span_id}"
            parent_id = None
        return Span(self, name, trace_id, span_id, parent_id, attributes)

    def child_span(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: str | None,
        **attributes,
    ) -> Span:
        """A new span continuing a trace started in *another* process.

        The propagated context (``X-Trace-Context: <trace_id>/<span_id>``)
        supplies the trace and parent ids, so a server-side request span
        becomes a child of the client's calling span even though the two
        tracers never share memory.  Falls back to :meth:`span` when the
        propagated trace id is empty.
        """
        if not trace_id:
            return self.span(name, **attributes)
        return Span(
            self, name, trace_id, self._next_id(), parent_id or None, attributes
        )

    def record_span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent: "Span | None" = None,
        **attributes,
    ) -> Span:
        """Record a span retroactively from explicit perf_counter times.

        Used where the duration is only known after the fact — e.g. the
        micro-batcher learns each row's queue wait at flush time.  When
        ``parent`` is given (a span captured earlier via
        :func:`current_span`), the record joins that span's trace.
        """
        span_id = self._next_id()
        if parent is not None and parent.trace_id:
            trace_id: str = parent.trace_id
            parent_id: str | None = parent.span_id
        else:
            trace_id = f"t{span_id}"
            parent_id = None
        span = Span(self, name, trace_id, span_id, parent_id, attributes)
        span.thread_id = threading.get_ident()
        span.start = float(start)
        span.end = float(end)
        self._finish(span)
        return span

    def _append(self, span: Span) -> None:
        """Retain a finished span, counting ring-buffer evictions."""
        if len(self._finished) == self.max_spans:
            self.dropped += 1
        self._finished.append(span)

    def _finish(self, span: Span) -> None:
        self._append(span)

    # ------------------------------------------------- cross-process spans
    def serialize(self, span: Span) -> dict:
        """One finished span as a JSON-safe dict with wall-clock times.

        Timestamps are converted from the tracer's monotonic clock to
        absolute unix seconds, so a collector (or the parent of a worker
        pool) can place spans from many processes on one timeline.
        """
        attrs: dict = {}
        for key, value in span.attributes.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                attrs[key] = value
            else:
                attrs[key] = repr(value)
        offset = self.wall_epoch - self.epoch
        record = {
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start_unix_s": span.start + offset,
            "end_unix_s": span.end + offset,
            "thread_id": span.thread_id,
            "attributes": attrs,
        }
        if span.resource is not None:
            record["resource"] = span.resource
        return record

    def ingest(self, records) -> int:
        """Adopt spans serialized by another tracer (:meth:`serialize`).

        Each record lands in this tracer's ring buffer with its original
        trace/span/parent ids intact — parallel workers' spans survive
        their worker process this way.  Returns the number ingested.
        """
        count = 0
        offset = self.epoch - self.wall_epoch
        for record in records:
            span = Span(
                self,
                str(record.get("name", "")),
                str(record.get("trace_id", "")),
                str(record.get("span_id", "")),
                record.get("parent_id") or None,
                dict(record.get("attributes") or {}),
            )
            span.start = float(record.get("start_unix_s", 0.0)) + offset
            span.end = float(record.get("end_unix_s", 0.0)) + offset
            span.thread_id = int(record.get("thread_id", 0))
            resource = record.get("resource")
            if resource:
                span.resource = dict(resource)
            self._append(span)
            count += 1
        return count

    # ---------------------------------------------------------- inspection
    def spans(self) -> list[Span]:
        """Snapshot of retained finished spans, oldest first."""
        return list(self._finished)

    def __len__(self) -> int:
        return len(self._finished)

    def reset(self) -> None:
        """Drop every retained span."""
        self._finished.clear()

    # ------------------------------------------------------------- export
    def export_chrome(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns the span count.

        Spans go through :meth:`serialize` into :func:`write_chrome`, the
        writer the collector's export uses too; spans recorded here are
        stamped with this process's pid and service name.
        """
        return write_chrome(
            path,
            [self.serialize(span) for span in self._finished],
            default_resource={"service": self.service, "pid": os.getpid()},
        )


def records_to_chrome(
    records: Iterable[dict], *, default_resource: dict | None = None
) -> list[dict]:
    """Serialized span records (:meth:`Tracer.serialize`) as Chrome events.

    Each span is a complete (``ph: "X"``) event whose ``ts`` counts
    microseconds from the earliest record's start.  A record's
    ``resource`` — or ``default_resource`` for records without one —
    names its process row: ``pid`` (0 when absent) and ``service`` (a
    ``process_name`` metadata event before the row's first span), so a
    fleet trace shows one row group per process.
    """
    records = list(records)
    base = default_resource or {}
    origin = min(
        (float(r.get("start_unix_s", 0.0)) for r in records), default=0.0
    )
    events: list[dict] = []
    named_pids: set[int] = set()
    for record in records:
        resource = record.get("resource") or base
        pid = int(resource.get("pid", 0))
        if pid not in named_pids:
            named_pids.add(pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": str(resource.get("service", "repro"))},
                }
            )
        args = {
            "trace_id": record.get("trace_id", ""),
            "span_id": record.get("span_id", ""),
        }
        if record.get("parent_id"):
            args["parent_id"] = record["parent_id"]
        args.update(record.get("attributes") or {})
        name = str(record.get("name", ""))
        start = float(record.get("start_unix_s", 0.0))
        end = float(record.get("end_unix_s", 0.0))
        events.append(
            {
                "name": name,
                "cat": name.partition(".")[0] or "span",
                "ph": "X",
                "ts": round(1e6 * (start - origin), 3),
                "dur": round(1e6 * max(0.0, end - start), 3),
                "pid": pid,
                "tid": int(record.get("thread_id", 0)) % 2**31,
                "args": args,
            }
        )
    return events


def write_chrome(
    path, records: Iterable[dict], *, default_resource: dict | None = None
) -> int:
    """Write records to ``path`` as Chrome trace JSON; returns the span count.

    The output is the standard ``{"traceEvents": [...]}`` envelope that
    Perfetto and ``chrome://tracing`` both load directly.
    """
    events = records_to_chrome(records, default_resource=default_resource)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            handle,
            separators=(",", ":"),
        )
        handle.write("\n")
    # Metadata (process-name) events are not spans.
    return sum(1 for event in events if event["ph"] == "X")


def current_span() -> Span | None:
    """The context's active span, or ``None`` outside any span."""
    return _ACTIVE_SPAN.get()


def current_trace_id() -> str | None:
    """The active trace id, or ``None`` outside any span."""
    span = _ACTIVE_SPAN.get()
    return span.trace_id if span is not None else None


_TRACER: Tracer | NullTracer = NullTracer()


def get_tracer() -> Tracer | NullTracer:
    """The process tracer (a :class:`NullTracer` until enabled)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the process tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable(*, max_spans: int = 200_000, service: str = "repro") -> Tracer:
    """Install and return a fresh recording tracer."""
    tracer = Tracer(max_spans=max_spans, service=service)
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Install a :class:`NullTracer` (instrumentation becomes no-op)."""
    set_tracer(NullTracer())
