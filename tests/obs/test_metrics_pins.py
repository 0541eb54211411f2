"""Pins every ``/metrics`` source to the exposition it renders today.

Each source is rendered from a fixed recorded state and compared with
``metrics_pins.json``: the ordered ``# HELP``/``# TYPE`` lines (family
names, help text, types and family order) and the sample map as
:func:`~repro.serve.client.parse_prometheus` reads it (series keys with
their labels, and values).  The expected data never changes when the
rendering code moves; only the ``_render_*`` call that produces a
source's text may.  Each ``serving:<prefix>`` source is the request
record its server class builds, so a pin holds exactly the families that
server exports.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.fitstats import FitStats
from repro.machine import XEON_E5649
from repro.obs.collector import CollectorServer
from repro.obs.registry import MetricsRegistry, obs_stats_exposition
from repro.obs.trace import Tracer, set_tracer
from repro.registry.server import RegistryServer
from repro.sched.fleet import FleetState, MachineConfig
from repro.sched.service import SchedulerService
from repro.serve.client import parse_prometheus
from repro.serve.metrics import REQUEST_PHASES, LatencyHistogram, ServingMetrics
from repro.serve.router import (
    SHADOW_DIVERGENCE_BUCKETS,
    RouterServer,
    parse_canary,
    parse_shadow,
)
from repro.serve.server import PredictionServer
from repro.sim.solve_cache import EngineStats
from repro.suite.stats import SuiteStats

PINS = json.loads(Path(__file__).with_name("metrics_pins.json").read_text())


def _sched_service(request) -> SchedulerService:
    baselines = request.getfixturevalue("baselines_6core")
    fleet = FleetState([MachineConfig(XEON_E5649, count=2, name_prefix="node")])
    return SchedulerService(fleet, baselines, policy="first-fit")


#: Each server's request-record prefix -> a factory for that server.
SERVERS = {
    "repro_serve": lambda _request: PredictionServer(object()),
    "repro_router": lambda _request: RouterServer([9001], object(), pool_size=1),
    "repro_registry": lambda _request: RegistryServer(object()),
    "repro_sched": _sched_service,
    "repro_obs_collector": lambda _request: CollectorServer(),
}


def _render_engine(_request) -> str:
    stats = EngineStats()
    for iterations in (12, 30, 30, 75, 450, 900):
        stats.record_solve(iterations)
    stats.record_hit()
    stats.record_hit()
    stats.record_miss()
    stats.record_eviction()
    stats.record_failure()
    stats.record_batch(scenarios=64, dedupe_hits=5, iterations_saved=120)
    stats.record_batch(scenarios=16, dedupe_hits=0, iterations_saved=7)
    return stats.render_prometheus()


def _render_fit(_request) -> str:
    stats = FitStats()
    stats.record_fit(
        restarts=3, scg_iterations=120, function_evals=130,
        gradient_evals=125, wall_time_s=0.5,
    )
    stats.record_fit(
        restarts=1, scg_iterations=40, function_evals=41,
        gradient_evals=40, wall_time_s=0.75,
    )
    return stats.render_prometheus()


def _render_suite(_request) -> str:
    stats = SuiteStats(
        runs=2, nodes_run=7, nodes_skipped=3, nodes_failed=1,
        nodes_resumed=2, store_hits=3, store_misses=7,
        solve_cache_entries_loaded=11, solve_cache_entries_saved=13,
    )
    return stats.render_prometheus()


def _render_obs(tracer) -> str:
    previous = set_tracer(tracer)
    try:
        return obs_stats_exposition()
    finally:
        set_tracer(previous)


def _render_obs_ring(_request) -> str:
    tracer = Tracer(max_spans=2)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    return _render_obs(tracer)


def _render_obs_streaming(_request) -> str:
    tracer = Tracer()
    tracer.sender = SimpleNamespace(dropped=7, sent=40, send_errors=2)
    return _render_obs(tracer)


def _record_serving_state(metrics) -> None:
    """The fixed request state, plus the prediction path where it exists."""
    for endpoint, status, seconds in (
        ("/v1/predict", 200, 0.004),
        ("/v1/predict", 200, 0.0007),
        ("/v1/predict", 400, 0.001),
        ("/metrics", 200, 0.02),
        ("other", 404, 0.3),
    ):
        metrics.record_request(endpoint, status, seconds)
    metrics.record_error("bad_request")
    metrics.record_error("unknown_model")
    metrics.record_error("unknown_model")
    if not isinstance(metrics, ServingMetrics):
        return
    metrics.record_predictions(9)
    for size in (1, 3, 5, 200):
        metrics.record_batch(size)
    metrics.record_model_cache(True)
    metrics.record_model_cache(True)
    metrics.record_model_cache(False)
    for i, phase in enumerate(REQUEST_PHASES):
        metrics.record_phase(phase, 0.0002 * (i + 1))
        metrics.record_phase(phase, 0.003 * (i + 1))


def _render_serving(prefix: str):
    def render(request) -> str:
        metrics = SERVERS[prefix](request).metrics
        assert metrics.prefix == prefix
        _record_serving_state(metrics)
        return metrics.render_prometheus()

    return render


def _render_serving_empty(_request) -> str:
    return ServingMetrics().render_prometheus()


def _render_batcher(_request) -> str:
    server = PredictionServer(object(), worker_id=1)
    for key, pending, shed in (("band@1", 3, 2), ('odd"key', 0, 5)):
        server._resident[key] = SimpleNamespace(
            batcher=SimpleNamespace(pending=pending, stats=SimpleNamespace(shed=shed))
        )
    server._hot_reload_loads = 4
    server._hot_reload_evictions = 1
    return server._render_batcher_metrics()


def _render_router(_request) -> str:
    router = RouterServer(
        [9001, 9002],
        object(),
        canary=(parse_canary("point@2:25"),),
        shadow=(parse_shadow("band@1"),),
        pool_size=1,
    )
    router._canary_sent["point"] = 5
    router._shadow_sent["band"] = 4
    router._shadow_errors["band"] = 1
    hist = router._shadow_divergence["band"] = LatencyHistogram(
        buckets=SHADOW_DIVERGENCE_BUCKETS
    )
    for value in (0.0, 0.0, 1e-7, 0.5, 50.0):
        hist.observe(value)
    return router._render_router_metrics()


def _render_sched(request) -> str:
    service = _sched_service(request)
    metrics = service.sched_metrics
    metrics.jobs_submitted = 6
    metrics.placements = 5
    metrics.migrations = 1
    metrics.requeued = 1
    metrics.predict_batches = 2
    metrics.predict_rows = 14
    metrics.predict_errors = 3
    for seconds in (0.0004, 0.002, 0.03):
        metrics.decision_latency.observe(seconds)
    for predicted in (1.02, 1.3, 2.5):
        metrics.predicted_degradation.observe(predicted)
    metrics.record_completion(1.5, 1.25)
    metrics.record_completion(1.1, None)
    metrics.record_completion(6.0, 5.5)
    service._now = 12.5
    return service._render_sched_metrics()


def _render_collector(_request) -> str:
    collector = CollectorServer(max_spans=3)
    collector.ingest([{"name": "a"}, {"name": "b"}], resource={"service": "serve-0"})
    collector.ingest([{"name": "c"}], resource={"service": "sched"}, dropped=3)
    collector.ingest([{"name": "d"}, {"name": "e"}], resource={"service": "serve-0"})
    return collector._render_collector_metrics()


def _render_registry_backend(_request) -> str:
    manifests = [
        SimpleNamespace(name=name, version=version)
        for name, version in (("band", 1), ("band", 2), ("point", 1))
    ]
    backend = SimpleNamespace(
        listing=lambda: [
            (m, "bad fit" if (m.name, m.version) == ("band", 2) else None)
            for m in manifests
        ],
    )
    return RegistryServer(backend)._render_backend_metrics()


def _render_source_errors(_request) -> str:
    def broken() -> str:
        raise RuntimeError("source died")

    registry = MetricsRegistry()
    registry.register_source("sim", broken)
    return registry.render()


SOURCES = {
    "engine": _render_engine,
    "fit": _render_fit,
    "suite": _render_suite,
    "obs": _render_obs_ring,
    "obs_streaming": _render_obs_streaming,
    **{f"serving:{prefix}": _render_serving(prefix) for prefix in SERVERS},
    "serving_empty": _render_serving_empty,
    "batcher": _render_batcher,
    "router": _render_router,
    "sched": _render_sched,
    "collector": _render_collector,
    "registry_backend": _render_registry_backend,
    "source_errors": _render_source_errors,
}


def _canonical(samples: dict[str, float]) -> dict[str, object]:
    return {key: "NaN" if math.isnan(v) else v for key, v in samples.items()}


def test_every_source_is_pinned():
    assert set(SOURCES) == set(PINS)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_metadata_pinned(source, request):
    text = SOURCES[source](request)
    meta = [line for line in text.splitlines() if line.startswith("#")]
    assert meta == PINS[source]["meta"]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_samples_pinned(source, request):
    text = SOURCES[source](request)
    assert _canonical(parse_prometheus(text)) == PINS[source]["samples"]
