"""The one Prometheus text writer, and the registry that joins sources.

Every stats record in the stack — :class:`~repro.sim.solve_cache.EngineStats`,
:class:`~repro.core.fitstats.FitStats`,
:class:`~repro.suite.stats.SuiteStats`,
:class:`~repro.serve.metrics.ServingMetrics`,
:class:`~repro.sched.service.SchedMetrics` and the servers' own counters —
keeps its numbers itself and renders its ``/metrics`` families through
:class:`Exposition`, the only code that spells the text exposition format
(version 0.0.4): ``# HELP``/``# TYPE`` lines, label escaping in sorted
label order, number spelling (:func:`format_value`), and histograms as
cumulative ``le`` buckets whose ``+Inf`` bucket equals ``_count``.
:func:`samples_text` is the terminal form of the same text: the
``--stats`` flags and the servers' shutdown lines print a record's
exposition through it, so every number they show is a sample a scrape
shows.

A :class:`MetricsRegistry` is one server's scrape: named *sources*
(callables returning a record's exposition), rendered in registration
order.  :func:`install_default_sources` adds the process-wide engine,
fit, tracer-health and suite sources; each server registers its own
records after them.  ``tests/obs/test_prometheus_conformance.py`` holds
every live scrape to the format.
"""

from __future__ import annotations

import math
import numbers
import re
import threading
from typing import Callable, Iterable

from .trace import get_tracer

__all__ = [
    "Exposition",
    "MetricsRegistry",
    "escape_label_value",
    "format_value",
    "install_default_sources",
    "obs_stats_exposition",
    "samples_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Exposition spelling of a number.

    Integers print as integers and floats via ``repr`` (so ``3.0`` stays
    ``3.0``); ``NaN``, ``+Inf`` and ``-Inf`` are spelled out.
    """
    if isinstance(value, numbers.Integral):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _render_labels(labels: dict) -> str:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    body = ",".join(
        f'{name}="{escape_label_value(labels[name])}"' for name in sorted(labels)
    )
    return "{" + body + "}" if body else ""


class Exposition:
    """One Prometheus text exposition, written family by family.

    Each call declares one family (``# HELP`` then ``# TYPE``) followed
    by its samples, in the order given; :meth:`text` returns the whole
    exposition.  A sample is ``(labels, value)`` with ``labels`` a dict.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(
        self, name: str, kind: str, help_text: str, samples: Iterable = ()
    ) -> "Exposition":
        """Declare ``name`` of type ``kind`` and write its samples."""
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self._lines.append(f"# HELP {name} {' '.join(help_text.split()) or name}")
        self._lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            self._sample(name, labels, value)
        return self

    def counter(self, name: str, help_text: str, value) -> "Exposition":
        """An unlabelled counter with one sample."""
        return self.family(name, "counter", help_text, [({}, value)])

    def gauge(self, name: str, help_text: str, value) -> "Exposition":
        """An unlabelled gauge with one sample."""
        return self.family(name, "gauge", help_text, [({}, value)])

    def histogram(
        self, name: str, help_text: str, series: Iterable = ()
    ) -> "Exposition":
        """A histogram family; each series is ``(labels, bounds, counts, total)``.

        ``counts`` are per-bucket (not cumulative) and hold one entry per
        bound plus the overflow past the last one, as in
        :class:`~repro.serve.metrics.LatencyHistogram`.  Buckets are
        written cumulatively; the ``+Inf`` bucket and ``_count`` are both
        the sum of ``counts``, and ``_sum`` is ``total``.
        """
        self.family(name, "histogram", help_text)
        for labels, bounds, counts, total in series:
            cumulative = 0
            for bound, n in zip(bounds, counts):
                cumulative += n
                le = {**labels, "le": format_value(bound)}
                self._sample(f"{name}_bucket", le, cumulative)
            count = sum(counts)
            self._sample(f"{name}_bucket", {**labels, "le": "+Inf"}, count)
            self._sample(f"{name}_sum", labels, total)
            self._sample(f"{name}_count", labels, count)
        return self

    def text(self) -> str:
        """The exposition so far, newline-terminated."""
        return "\n".join(self._lines) + "\n"

    def _sample(self, name: str, labels: dict, value) -> None:
        self._lines.append(f"{name}{_render_labels(labels)} {format_value(value)}")


def samples_text(exposition: str) -> str:
    """An exposition's samples, one per line, for a terminal.

    Drops the ``# HELP``/``# TYPE`` lines and each histogram's
    ``_bucket`` series (its ``_sum`` and ``_count`` stay); every other
    sample keeps its order and spelling.  Lines end at ``"\\n"`` only,
    so a label value's other line separators stay inside its sample.
    """
    buckets: set[str] = set()
    lines: list[str] = []
    for line in exposition.split("\n"):
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if parts[1:2] == ["TYPE"] and parts[3:] == ["histogram"]:
                buckets.add(f"{parts[2]}_bucket")
        elif line and line.partition("{")[0].partition(" ")[0] not in buckets:
            lines.append(line)
    return "\n".join(lines)


class MetricsRegistry:
    """One scrape: named exposition sources, rendered in registration order.

    A source is a callable returning exposition text for metrics owned
    elsewhere (a stats record, a server's counters); registering an
    existing name replaces it rather than duplicating its families.
    """

    def __init__(self) -> None:
        self._sources: dict[str, Callable[[], str]] = {}
        self._lock = threading.Lock()

    def register_source(self, name: str, render: Callable[[], str]) -> None:
        """Register (or replace) a named exposition source."""
        with self._lock:
            self._sources[name] = render

    def render(self) -> str:
        """The full exposition; a source that raises is counted, not fatal."""
        with self._lock:
            sources = list(self._sources.items())
        lines: list[str] = []
        failed: list[str] = []
        for name, render in sources:
            try:
                text = render()
            except Exception:  # noqa: BLE001 - keep /metrics alive
                failed.append(name)
                continue
            if text:
                lines.append(text.rstrip("\n"))
        if failed:
            errors = Exposition().family(
                "repro_obs_source_errors_total",
                "counter",
                "Sources that failed to render this scrape.",
                [({"source": name}, 1) for name in failed],
            )
            lines.append(errors.text().rstrip("\n"))
        return "\n".join(lines) + "\n"


def obs_stats_exposition() -> str:
    """The process tracer's own health counters, read at scrape time.

    The tracer ring buffer wraps and a streaming tracer's bounded queue
    sheds, both by design (tracing must never block a hot path); this
    source makes both losses, and a streaming tracer's shipped/error
    counts, visible on every server's ``/metrics``.
    """
    tracer = get_tracer()
    sender = getattr(tracer, "sender", None)
    out = Exposition().family(
        "repro_obs_spans_dropped_total",
        "counter",
        "Spans lost by this process, by where they were shed.",
        [
            ({"reason": "ring_wrap"}, int(getattr(tracer, "dropped", 0))),
            ({"reason": "stream_shed"}, int(getattr(sender, "dropped", 0))),
        ],
    )
    if sender is not None:
        out.counter(
            "repro_obs_spans_streamed_total",
            "Spans shipped to the trace collector.",
            int(sender.sent),
        )
        out.counter(
            "repro_obs_span_send_errors_total",
            "Failed span batch POSTs (each costs one batch).",
            int(sender.send_errors),
        )
    return out.text()


def install_default_sources(registry: MetricsRegistry) -> MetricsRegistry:
    """Register the process-wide engine, fit, tracer and suite sources.

    Each source imports its record at scrape time, so a process that only
    serves models never imports the simulator or the fitting engine.
    """

    def engine() -> str:
        from ..sim.solve_cache import GLOBAL_ENGINE_STATS

        return GLOBAL_ENGINE_STATS.render_prometheus()

    def fit() -> str:
        from ..core.fitstats import GLOBAL_FIT_STATS

        return GLOBAL_FIT_STATS.render_prometheus()

    def suite() -> str:
        from ..suite.stats import GLOBAL_SUITE_STATS

        return GLOBAL_SUITE_STATS.render_prometheus()

    registry.register_source("engine", engine)
    registry.register_source("fit", fit)
    registry.register_source("obs", obs_stats_exposition)
    registry.register_source("suite", suite)
    return registry
