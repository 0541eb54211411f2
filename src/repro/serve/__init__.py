"""Online prediction serving: registry, micro-batching, HTTP, metrics.

The paper's models exist to be consumed by a resource manager deciding
placements *online*; this package turns trained artifacts into a
long-running, observable prediction service:

* :mod:`~repro.serve.batcher` — a micro-batching queue that coalesces
  concurrent requests into one vectorized predict call, with optional
  admission control (shed with 429 once the backlog bound is hit);
* :mod:`~repro.serve.http` — the shared stdlib asyncio HTTP plumbing
  (keep-alive, graceful drain, request ids, error mapping, the request
  record and ``GET /metrics``) under every repro server;
* :mod:`~repro.serve.server` — an asyncio HTTP server exposing
  ``/v1/predict``, ``/v1/models``, ``/healthz``, and ``/metrics``; it
  serves from any registry backend (local directory or remote registry
  service) and can hot-reload newly pushed versions;
* :mod:`~repro.serve.metrics` — every server's request record
  (``RequestMetrics``: request/error counters and request latency), the
  prediction server's (``ServingMetrics``: plus predictions, model-cache,
  batch-size and phase families), both rendered through the stack's one
  exposition writer, :class:`~repro.obs.registry.Exposition`, and the
  merge of several servers' scrapes into one;
* :mod:`~repro.serve.client` — a small blocking client for tests and
  load generators, with a label-aware Prometheus parser;
* :mod:`~repro.serve.shard`, :mod:`~repro.serve.worker`, and
  :mod:`~repro.serve.router` — the multi-process serving tier:
  consistent model-name sharding, spawned worker processes with a
  graceful drain protocol, and a front router with canary/shadow
  splitting, machine-metadata routing, and one merged ``/metrics``
  scrape for the whole tier (``repro serve --workers N``).

The server threads through :mod:`repro.obs`: the shared HTTP base
gives each server a metrics registry whose sources (engine, fitting,
tracer health, suite, the request record, then the server's own — the
prediction server's batcher backlog) make up one ``GET /metrics``, and
records every request and error into the server's record.
Requests carry/echo ``X-Request-Id`` and become ``serve.request``
trace spans, and the micro-batcher records per-phase latencies (queue,
batch_wait, predict, serialize).

Everything here is standard library + existing ``repro`` modules; there
are no third-party serving dependencies.
"""

from .batcher import BacklogFullError, BatcherStats, MicroBatcher
from .client import ClientError, PredictionClient, parse_prometheus
from .metrics import LatencyHistogram, ServingMetrics, merge_prometheus_texts
# Re-exported from the registry's local store.  The submodule import works
# even while repro.registry is mid-import (its server imports this
# package), where ``from ..registry import ...`` would not.
from ..registry.local import (
    ModelManifest,
    ModelRegistry,
    RegistryError,
    TombstoneError,
)
from .router import (
    CanarySpec,
    RouterServer,
    ServingTier,
    ShadowSpec,
    parse_canary,
    parse_shadow,
)
from .server import PredictionServer, ServerThread
from .shard import ShardMap, shard_for
from .worker import WorkerProcess

__all__ = [
    "BacklogFullError",
    "BatcherStats",
    "CanarySpec",
    "ClientError",
    "LatencyHistogram",
    "MicroBatcher",
    "ModelManifest",
    "ModelRegistry",
    "PredictionClient",
    "PredictionServer",
    "RegistryError",
    "RouterServer",
    "ServerThread",
    "ServingMetrics",
    "ServingTier",
    "ShadowSpec",
    "ShardMap",
    "TombstoneError",
    "WorkerProcess",
    "merge_prometheus_texts",
    "parse_canary",
    "parse_prometheus",
    "parse_shadow",
    "shard_for",
]
