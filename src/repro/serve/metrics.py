"""Request-path observability for the repro services.

Mirrors the :class:`~repro.sim.solve_cache.EngineStats` pattern — a plain
mutable record with ``record_*`` methods.  :class:`RequestMetrics` is
every server's request record: per-endpoint/status request counters,
error counters and the request-latency histogram with p50/p95/p99.
:class:`ServingMetrics` is the prediction server's: the request record
plus the prediction, model-cache, batch-size and phase-latency families.

Both render through the stack's one exposition writer
(:class:`~repro.obs.registry.Exposition`), so ``GET /metrics`` can be
scraped by a stock Prometheus server.  :func:`merge_prometheus_texts`
folds several servers' scrapes into one for the routed tier.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from ..obs.registry import Exposition, format_value

__all__ = [
    "LatencyHistogram",
    "RequestMetrics",
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


def _merge_family_of(bare_name: str, types: dict[str, str]) -> str:
    """The metric family a sample line belongs to.

    Histogram samples (``X_bucket``/``X_sum``/``X_count``) roll up to
    ``X`` when ``X`` is typed ``histogram``; everything else is its own
    family.
    """
    for suffix in ("_bucket", "_sum", "_count"):
        base = bare_name[: -len(suffix)]
        if bare_name.endswith(suffix) and types.get(base) == "histogram":
            return base
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
    * a family is kept only when some text declared both its HELP and
      its TYPE line, single-spaced (the first of each wins), and a sample
      only when it belongs to a kept family, so a malformed or stray line
      never reaches the merged scrape;
    * families follow the order of their first declaration, every
      family's samples stay grouped under its metadata as the exposition
      format requires.
    """
    # Lines end at "\n" only: a label value may hold any other separator.
    lines = [line.strip() for text in texts for line in text.split("\n")]
    meta: dict[tuple[str, str], str] = {}  # (family, HELP|TYPE) -> line
    types: dict[str, str] = {}
    for line in lines:
        parts = line.split(None, 3)
        if (
            len(parts) == 4
            and parts[0] == "#"
            and parts[1] in ("HELP", "TYPE")
            and " ".join(parts) == line
        ):
            meta.setdefault((parts[2], parts[1]), line)
            if parts[1] == "TYPE":
                types.setdefault(parts[2], parts[3])
    family_keys: dict[str, list[str]] = {
        family: []
        for family, _kind in meta
        if (family, "HELP") in meta and (family, "TYPE") in meta
    }
    values: dict[str, float] = {}
    int_valued: dict[str, bool] = {}

    for line in lines:
        if line.startswith("#"):
            continue
        key, _sep, value_text = line.rpartition(" ")
        try:
            value = float(value_text)
        except ValueError:
            continue
        bare = key.partition("{")[0]
        keys = family_keys.get(_merge_family_of(bare, types))
        if keys is None:
            continue  # no text declared this sample's family
        if key not in values:
            keys.append(key)
            values[key] = value
            int_valued[key] = value_text.isdigit()
        elif _PERCENTILE_NAME.search(bare):
            prior = values[key]
            if math.isnan(prior) or (
                not math.isnan(value) and value > prior
            ):
                values[key] = value
            int_valued[key] = False
        else:
            values[key] = values[key] + value
            int_valued[key] = int_valued[key] and value_text.isdigit()

    out: list[str] = []
    for family, keys in family_keys.items():
        out += (meta[family, "HELP"], meta[family, "TYPE"])
        for key in keys:
            value = values[key]
            if int_valued[key] and math.isfinite(value):
                out.append(f"{key} {int(value)}")
            else:
                out.append(f"{key} {format_value(value)}")
    return "\n".join(out) + "\n"


class RequestMetrics:
    """One server's request record: requests, errors and request latency.

    Every :class:`~repro.serve.http.HttpServerBase` builds one and records
    each request and error into it.  Single-threaded by design: the server
    mutates it only from its event loop, so no locking is needed; a
    client reads a rendered snapshot via ``GET /metrics``.

    ``prefix`` names the exported families (``<prefix>_requests_total``
    ...): ``repro_serve``, ``repro_router``, ``repro_registry``,
    ``repro_sched`` or ``repro_obs_collector``, so one scraper
    configuration covers every service.
    """

    def __init__(self, *, prefix: str) -> None:
        self.prefix = prefix
        #: (endpoint, status code) -> served request count.
        self.requests_total: dict[tuple[str, int], int] = {}
        #: error reason -> count (bad_request, unknown_model, internal, ...).
        self.errors_total: dict[str, int] = {}
        #: end-to-end request handling latency, seconds.
        self.latency = LatencyHistogram()

    def record_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Count one handled HTTP request and its wall latency."""
        key = (endpoint, int(status))
        self.requests_total[key] = self.requests_total.get(key, 0) + 1
        self.latency.observe(seconds)

    def record_error(self, reason: str) -> None:
        """Count one failed request by reason."""
        self.errors_total[reason] = self.errors_total.get(reason, 0) + 1

    @property
    def request_count(self) -> int:
        """Total HTTP requests across endpoints and statuses."""
        return sum(self.requests_total.values())

    def _render_requests(self) -> Exposition:
        """The request and error counters, the first families of a render."""
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
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition for ``GET /metrics``."""
        out = self._render_requests()
        _quantiled_histogram(
            out, f"{self.prefix}_request_latency_seconds",
            "End-to-end request handling latency.", self.latency,
        )
        return out.text()


def _quantiled_histogram(
    out: Exposition, name: str, help_text: str, hist: LatencyHistogram
) -> None:
    """One unlabelled histogram and its ``_p50/_p95/_p99`` gauges."""
    out.histogram(
        name, help_text, [({}, hist.buckets, hist.bucket_counts, hist.total)]
    )
    # Quantile gauges (summary-style convenience for dashboards).
    for q in (50, 95, 99):
        out.gauge(
            f"{name}_p{q}",
            f"Percentile of {name} (over the retained sample window).",
            hist.percentile(q),
        )


class ServingMetrics(RequestMetrics):
    """The prediction server's record: requests plus the prediction path.

    Adds the predictions, model-cache, batch-size and phase-latency
    families to the request record; only the prediction server has them.
    """

    def __init__(self, *, prefix: str = "repro_serve") -> None:
        super().__init__(prefix=prefix)
        #: predictions returned (a batch body counts each instance).
        self.predictions_total = 0
        #: resident-model cache hits / misses on /v1/predict.
        self.model_cache_hits = 0
        self.model_cache_misses = 0
        #: rows per flushed micro-batch.
        self.batch_sizes = LatencyHistogram(buckets=tuple(float(b) for b in BATCH_BUCKETS))
        #: request phase -> time spent in that phase, seconds (see
        #: :data:`REQUEST_PHASES` for the pipeline order).
        self.phase_latency: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------ record
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

    # ------------------------------------------------------ rendering
    def render_prometheus(self) -> str:
        """The Prometheus text exposition for ``GET /metrics``."""
        p = self.prefix
        out = self._render_requests()
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
        _quantiled_histogram(
            out, f"{p}_request_latency_seconds",
            "End-to-end request handling latency.", self.latency,
        )
        _quantiled_histogram(
            out, f"{p}_batch_size", "Rows per flushed micro-batch.",
            self.batch_sizes,
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
