"""Unified observability: tracing, one metrics writer, structured logs.

The pipeline's layers each keep their own stats record —
:class:`~repro.sim.solve_cache.EngineStats` in the simulator,
:class:`~repro.core.fitstats.FitStats` in the fitting engine,
:class:`~repro.serve.metrics.RequestMetrics` behind every server's
``/metrics``, and so on.  ``repro.obs`` is the cross-cutting layer they
all thread through:

* :mod:`~repro.obs.trace` — ``Tracer``/``Span`` context managers with
  trace/span IDs, monotonic timing, attributes, a bounded in-process ring
  buffer, and the one Chrome trace-event JSON writer, ``write_chrome``,
  that the tracer and the span collector export through (open the file
  in Perfetto).  The process tracer defaults to a no-op ``NullTracer`` so
  instrumentation costs nearly nothing until enabled;
* :mod:`~repro.obs.registry` — :class:`Exposition`, the one writer of the
  Prometheus text format that every record renders its families
  through, :func:`samples_text`, which prints an exposition's samples
  for ``--stats``, and ``MetricsRegistry``, which joins named sources (the
  process-wide engine, fit, tracer-health and suite records plus each
  server's own) into one scrape;
* :mod:`~repro.obs.log` — structured JSON logging that stamps every
  record with the active trace/span ID;
* :mod:`~repro.obs.summary` — offline rendering of a captured trace
  (top spans by total time, the span tree) for ``repro obs summary``.

Everything is standard library only.  See ``docs/observability.md``.
"""

from .log import ObsLogger, configure, get_logger
from .registry import (
    Exposition,
    MetricsRegistry,
    escape_label_value,
    install_default_sources,
    samples_text,
)
from .summary import SpanNode, load_trace, render_summary, span_forest
from .trace import (
    NullTracer,
    Span,
    Tracer,
    current_span,
    current_trace_id,
    disable,
    enable,
    get_tracer,
    records_to_chrome,
    set_tracer,
    write_chrome,
)
from .otlp import load_otlp, records_to_otlp, write_otlp
from .stream import SpanSender, StreamingTracer


def __getattr__(name: str):
    # The collector runs on the serve package's HTTP base, and importing
    # repro.serve from here would recurse (sim.engine -> obs.trace pulls
    # this package in mid-way through repro's own import) — so the
    # collector classes resolve lazily on first attribute access.
    if name in ("CollectorServer", "CollectorThread"):
        from . import collector

        return getattr(collector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CollectorServer",
    "CollectorThread",
    "Exposition",
    "MetricsRegistry",
    "NullTracer",
    "ObsLogger",
    "Span",
    "SpanNode",
    "SpanSender",
    "StreamingTracer",
    "Tracer",
    "configure",
    "current_span",
    "current_trace_id",
    "disable",
    "enable",
    "escape_label_value",
    "get_logger",
    "get_tracer",
    "install_default_sources",
    "load_otlp",
    "load_trace",
    "records_to_chrome",
    "records_to_otlp",
    "render_summary",
    "samples_text",
    "set_tracer",
    "span_forest",
    "write_chrome",
    "write_otlp",
]
