"""Request-path observability for the prediction service.

Mirrors the :class:`~repro.sim.solve_cache.EngineStats` pattern — a plain
mutable record with ``record_*`` methods — extended with the
serving-specific parts: per-endpoint/status request counters, error
counters, batch-size and latency histograms with p50/p95/p99, and the
model-cache hit and miss counters.

:meth:`ServingMetrics.render_prometheus` writes everything through the
stack's one exposition writer (:class:`~repro.obs.registry.Exposition`),
so ``GET /metrics`` can be scraped by a stock Prometheus server.
:func:`merge_prometheus_texts` folds several servers' scrapes into one
for the routed tier.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from ..obs.registry import Exposition, format_value

__all__ = [
    "LatencyHistogram",
    "ServingMetrics",
    "merge_prometheus_texts",
]

#: Request phases recorded by the server, in pipeline order.
REQUEST_PHASES = ("queue", "batch_wait", "predict", "serialize")

#: Bucket upper bounds (seconds) for the latency histogram exposition.
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Bucket upper bounds (requests) for the batch-size histogram.
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class LatencyHistogram:
    """Streaming histogram with exact percentiles over retained samples.

    Counters (``count``/``total``/bucket counts) are exact for the full
    stream; percentile queries sort the retained sample window (the most
    recent ``max_samples``), which covers any bounded serving test or
    bench run while capping memory for long-lived servers.
    """

    buckets: tuple[float, ...] = LATENCY_BUCKETS_S
    max_samples: int = 100_000
    count: int = 0
    total: float = 0.0
    bucket_counts: list[int] = field(default_factory=list)
    _samples: list[float] = field(default_factory=list)
    _next_slot: int = 0

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one observation (seconds, batch size, ...)."""
        value = float(value)
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:  # ring buffer: keep the most recent window
            self._samples[self._next_slot] = value
            self._next_slot = (self._next_slot + 1) % self.max_samples

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained window.

        ``p`` in [0, 100]; returns ``nan`` when nothing was observed.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return math.nan
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]


#: Series whose bare name matches this are point-in-time percentile
#: gauges; merging across workers takes the max (worst worker), because
#: summing percentiles is meaningless.
_PERCENTILE_NAME = re.compile(r"_p\d+$")


def _merge_family_of(bare_name: str, known: set[str]) -> str:
    """The metric family a sample line belongs to.

    Histogram samples (``X_bucket``/``X_sum``/``X_count``) roll up to
    ``X`` when ``X`` declared itself with a TYPE line; everything else is
    its own family.
    """
    for suffix in ("_bucket", "_sum", "_count"):
        if bare_name.endswith(suffix) and bare_name[: -len(suffix)] in known:
            return bare_name[: -len(suffix)]
    return bare_name


def merge_prometheus_texts(texts: list[str]) -> str:
    """Merge several Prometheus text expositions into one.

    The router uses this to answer ``GET /metrics`` for the whole tier:
    one scrape of the router returns its own exposition merged with a
    fresh scrape of every worker.  Merge rules:

    * counters, histogram ``_bucket``/``_sum``/``_count`` samples, and
      plain gauges **sum** across texts (identical series keys combine;
      series distinguished by labels — e.g. ``worker="0"`` — stay
      distinct lines);
    * percentile gauges (bare name matching ``_p\\d+$``) take the
      **max** — the worst worker's tail — skipping ``NaN`` from workers
      that saw no samples;
    * HELP/TYPE metadata and family ordering follow the first text that
      mentioned each family, and every family's samples stay grouped
      under its metadata as the exposition format requires.
    """
    meta: dict[str, list[str]] = {}        # family -> HELP/TYPE lines
    family_order: list[str] = []
    family_keys: dict[str, list[str]] = {}  # family -> series keys, ordered
    values: dict[str, float] = {}
    int_valued: dict[str, bool] = {}

    for text in texts:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    family = parts[2]
                    if family not in meta:
                        meta[family] = []
                        family_order.append(family)
                        family_keys.setdefault(family, [])
                    if not any(
                        existing.split(None, 3)[1] == parts[1]
                        for existing in meta[family]
                    ):
                        meta[family].append(line)
                continue
            key, _sep, value_text = line.rpartition(" ")
            if not _sep:
                continue
            try:
                value = float(value_text)
            except ValueError:
                continue
            bare = key.partition("{")[0]
            family = _merge_family_of(bare, set(meta))
            if family not in family_keys:
                family_order.append(family)
                family_keys[family] = []
            if key not in values:
                family_keys[family].append(key)
                values[key] = value
                int_valued[key] = "." not in value_text and value_text.isdigit()
            elif _PERCENTILE_NAME.search(bare):
                prior = values[key]
                if math.isnan(prior) or (
                    not math.isnan(value) and value > prior
                ):
                    values[key] = value
                int_valued[key] = False
            else:
                values[key] = values[key] + value
                int_valued[key] = int_valued[key] and (
                    "." not in value_text and value_text.isdigit()
                )

    lines: list[str] = []
    for family in family_order:
        lines.extend(meta.get(family, []))
        for key in family_keys.get(family, []):
            value = values[key]
            if int_valued[key]:
                lines.append(f"{key} {int(value)}")
            else:
                lines.append(f"{key} {format_value(value)}")
    return "\n".join(lines) + "\n"


class ServingMetrics:
    """All request-path counters and histograms for one server.

    Single-threaded by design: the server mutates it only from its event
    loop, so no locking is needed.  The blocking client may *read* a
    rendered snapshot at any time via ``GET /metrics``.

    ``prefix`` names the exported metric family: the prediction server
    keeps the default ``repro_serve``, the registry artifact server uses
    ``repro_registry`` — same schema, distinct namespaces, so one scraper
    configuration covers both services.
    """

    def __init__(self, *, prefix: str = "repro_serve") -> None:
        self.prefix = prefix
        #: (endpoint, status code) -> served request count.
        self.requests_total: dict[tuple[str, int], int] = {}
        #: error reason -> count (bad_request, unknown_model, internal, ...).
        self.errors_total: dict[str, int] = {}
        #: predictions returned (a batch body counts each instance).
        self.predictions_total = 0
        #: resident-model cache hits / misses on /v1/predict.
        self.model_cache_hits = 0
        self.model_cache_misses = 0
        #: end-to-end request handling latency, seconds.
        self.latency = LatencyHistogram()
        #: rows per flushed micro-batch.
        self.batch_sizes = LatencyHistogram(buckets=tuple(float(b) for b in BATCH_BUCKETS))
        #: request phase -> time spent in that phase, seconds (see
        #: :data:`REQUEST_PHASES` for the pipeline order).
        self.phase_latency: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------ record
    def record_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Count one handled HTTP request and its wall latency."""
        key = (endpoint, int(status))
        self.requests_total[key] = self.requests_total.get(key, 0) + 1
        self.latency.observe(seconds)

    def record_error(self, reason: str) -> None:
        """Count one failed request by reason."""
        self.errors_total[reason] = self.errors_total.get(reason, 0) + 1

    def record_predictions(self, n: int) -> None:
        """Count ``n`` prediction values returned to clients."""
        self.predictions_total += int(n)

    def record_batch(self, size: int) -> None:
        """Count one flushed micro-batch of ``size`` rows."""
        self.batch_sizes.observe(float(size))

    def record_phase(self, phase: str, seconds: float) -> None:
        """Record time one request spent in one pipeline phase."""
        hist = self.phase_latency.get(phase)
        if hist is None:
            hist = self.phase_latency[phase] = LatencyHistogram()
        hist.observe(seconds)

    def record_model_cache(self, hit: bool) -> None:
        """Count one resident-model cache lookup."""
        if hit:
            self.model_cache_hits += 1
        else:
            self.model_cache_misses += 1

    # ------------------------------------------------------- derived
    @property
    def request_count(self) -> int:
        """Total HTTP requests across endpoints and statuses."""
        return sum(self.requests_total.values())

    # ------------------------------------------------------ rendering
    def render_prometheus(self) -> str:
        """The Prometheus text exposition for ``GET /metrics``."""
        p = self.prefix
        out = Exposition()
        out.family(
            f"{p}_requests_total", "counter", "HTTP requests handled.",
            [
                ({"endpoint": endpoint, "status": status}, n)
                for (endpoint, status), n in sorted(self.requests_total.items())
            ],
        )
        out.family(
            f"{p}_errors_total", "counter", "Failed requests by reason.",
            [({"reason": r}, n) for r, n in sorted(self.errors_total.items())],
        )
        out.counter(
            f"{p}_predictions_total", "Prediction values returned.",
            self.predictions_total,
        )
        out.counter(
            f"{p}_model_cache_hits_total", "Resident-model cache hits.",
            self.model_cache_hits,
        )
        out.counter(
            f"{p}_model_cache_misses_total", "Resident-model cache misses.",
            self.model_cache_misses,
        )
        for name, help_text, hist in (
            (f"{p}_request_latency_seconds",
             "End-to-end request handling latency.", self.latency),
            (f"{p}_batch_size", "Rows per flushed micro-batch.",
             self.batch_sizes),
        ):
            out.histogram(
                name, help_text,
                [({}, hist.buckets, hist.bucket_counts, hist.total)],
            )
            # Quantile gauges (summary-style convenience for dashboards).
            for q in (50, 95, 99):
                out.gauge(
                    f"{name}_p{q}",
                    f"Percentile of {name} (over the retained sample window).",
                    hist.percentile(q),
                )
        name = f"{p}_phase_latency_seconds"
        phases = sorted(self.phase_latency.items())
        out.histogram(
            name,
            "Time each request spent per pipeline phase "
            "(queue, batch_wait, predict, serialize).",
            [
                ({"phase": phase}, h.buckets, h.bucket_counts, h.total)
                for phase, h in phases
            ],
        )
        for q in (50, 95, 99):
            out.family(
                f"{name}_p{q}", "gauge",
                "Phase latency percentile (over the retained sample window).",
                [({"phase": phase}, h.percentile(q)) for phase, h in phases],
            )
        return out.text()
