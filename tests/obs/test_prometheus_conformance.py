"""Exposition-format conformance for merged and live scrapes.

Every scrape the stack serves is held to the Prometheus text format
0.0.4 contract (:func:`assert_conformant`): every sample belongs to a
family with exactly one ``# HELP`` and one ``# TYPE`` line, no family is
declared twice, histogram buckets are cumulative and monotone with
``+Inf`` equal to ``_count``, and label escaping round-trips through the
client's label-aware parser.  The checks run on a merged registry built
from the real sources (with hostile label values and labelled
histograms) and on the live ``/metrics`` of each in-process service (the
router's in front of one in-process worker; its spawned tier is checked
in ``tests/serve/test_router.py``).  Each live scrape must also carry its
server's request record, and only the prediction server's carries the
prediction-path families.
"""

import http.client
import json
import math
import time

import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.fitstats import GLOBAL_FIT_STATS
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.machine import XEON_E5649
from repro.obs.collector import CollectorServer, CollectorThread
from repro.obs.registry import (
    MetricsRegistry,
    escape_label_value,
    install_default_sources,
    samples_text,
)
from repro.registry.local import ModelRegistry
from repro.registry.server import RegistryServerThread
from repro.sched.fleet import FleetState, MachineConfig
from repro.sched.service import SchedulerClient, SchedulerThread
from repro.serve.client import PredictionClient, _parse_sample, parse_prometheus
from repro.serve.http import ServerThreadBase
from repro.serve.metrics import (
    REQUEST_PHASES,
    ServingMetrics,
    merge_prometheus_texts,
)
from repro.serve.router import RouterServer
from repro.serve.server import ServerThread
from repro.sim.solve_cache import GLOBAL_ENGINE_STATS

NASTY = 'sp{ec"ial, v=1\\end\nline'


@pytest.fixture(scope="module")
def scrape() -> str:
    """One merged scrape with every family populated."""
    # The globals are process-wide and monotone; bumping them here only
    # adds to whatever earlier tests recorded.
    GLOBAL_ENGINE_STATS.record_solve(iterations=42)
    GLOBAL_ENGINE_STATS.record_hit()
    GLOBAL_FIT_STATS.record_fit(restarts=3, scg_iterations=120, wall_time_s=0.5)

    serving = ServingMetrics()
    serving.record_request("/v1/predict", 200, 0.004)
    serving.record_request("/v1/predict", 400, 0.001)
    serving.record_error("bad_request")
    serving.record_error(NASTY)
    serving.record_predictions(3)
    serving.record_batch(3)
    serving.record_model_cache(True)
    for phase in REQUEST_PHASES:
        serving.record_phase(phase, 0.002)

    collector = CollectorServer()
    collector.ingest([{"name": "a"}], resource={"service": NASTY})

    registry = install_default_sources(MetricsRegistry())
    registry.register_source("serving", serving.render_prometheus)
    registry.register_source("collector", collector._render_collector_metrics)
    return registry.render()


def _comment_indexes(text: str) -> tuple[dict[str, str], dict[str, str]]:
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    for line in text.split("\n"):
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            helps[name] = rest
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind.strip()
    return helps, types


def _family_of(name: str, types: dict[str, str]) -> str | None:
    """The family a sample name belongs to, honouring histogram suffixes."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return None


def _samples(text: str):
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue
        parsed = _parse_sample(line)
        assert parsed is not None, f"unparseable sample line: {line!r}"
        yield parsed


def _check_help_and_type(text: str) -> None:
    helps, types = _comment_indexes(text)
    assert set(helps) == set(types), "HELP/TYPE lines must pair up"
    for name, _labels, _value in _samples(text):
        family = _family_of(name, types)
        assert family is not None, f"sample {name} has no # TYPE"
        assert family in helps, f"sample {name} has no # HELP"


def _check_no_family_declared_twice(text: str) -> None:
    for kind in ("HELP", "TYPE"):
        names = [
            line.split()[2]
            for line in text.split("\n")
            if line.startswith(f"# {kind} ")
        ]
        repeated = sorted({n for n in names if names.count(n) > 1})
        assert not repeated, f"families declared twice: {repeated}"


def _check_histograms(text: str) -> int:
    """Cumulative buckets with ``+Inf == _count``; returns the series count."""
    _helps, types = _comment_indexes(text)
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for name, labels, value in _samples(text):
        family = _family_of(name, types)
        if types.get(family) != "histogram":
            continue
        series = tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"
        ))
        if name.endswith("_bucket"):
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            buckets.setdefault((family, series), []).append((bound, value))
        elif name.endswith("_count"):
            counts[(family, series)] = value

    for key, series_buckets in buckets.items():
        ordered = sorted(series_buckets)
        bounds = [b for b, _v in ordered]
        values = [v for _b, v in ordered]
        assert bounds[-1] == math.inf, f"{key} lacks a +Inf bucket"
        assert values == sorted(values), f"{key} buckets are not cumulative"
        assert key in counts, f"{key} lacks a _count sample"
        assert values[-1] == counts[key], f"{key} +Inf bucket != _count"
    return len(buckets)


def assert_conformant(text: str) -> None:
    """Hold one exposition to the text-format contract."""
    assert text.endswith("\n")
    _check_help_and_type(text)
    _check_no_family_declared_twice(text)
    _check_histograms(text)


def test_scrape_ends_with_newline(scrape):
    assert scrape.endswith("\n")


def test_every_sample_has_help_and_type(scrape):
    _check_help_and_type(scrape)


def test_no_family_declared_twice(scrape):
    _check_no_family_declared_twice(scrape)


def test_all_three_sources_present(scrape):
    for name in (
        "repro_engine_solves_total",      # simulation
        "repro_fit_fits_total",           # fitting
        "repro_serve_requests_total",     # serving
    ):
        assert name in parse_prometheus(scrape) or any(
            sample_name == name for sample_name, _l, _v in _samples(scrape)
        ), f"{name} missing from merged scrape"


def test_histograms_cumulative_with_inf_equal_to_count(scrape):
    assert _check_histograms(scrape), "scrape contains no histograms"


def test_label_escaping_round_trips_through_client_parser(scrape):
    escaped = escape_label_value(NASTY)
    assert "\\n" in escaped and '\\"' in escaped and "\\\\" in escaped
    samples = parse_prometheus(scrape)
    assert samples['repro_serve_errors_total{reason="' + escaped + '"}'] == 1
    assert samples[
        'repro_obs_collector_batches_total{service="' + escaped + '"}'
    ] == 1
    # And the parser recovered the original (unescaped) values.
    parsed = {
        name: labels for name, labels, _v in _samples(scrape)
        if NASTY in labels.values()
    }
    assert parsed == {
        "repro_serve_errors_total": {"reason": NASTY},
        "repro_obs_collector_batches_total": {"service": NASTY},
    }


def test_serving_quantile_gauges_have_headers(scrape):
    _helps, types = _comment_indexes(scrape)
    for family in (
        "repro_serve_request_latency_seconds",
        "repro_serve_phase_latency_seconds",
    ):
        for quantile in ("p50", "p95", "p99"):
            assert types.get(f"{family}_{quantile}") == "gauge"


def test_phase_family_covers_every_phase(scrape):
    samples = parse_prometheus(scrape)
    for phase in REQUEST_PHASES:
        key = f'repro_serve_phase_latency_seconds_count{{phase="{phase}"}}'
        assert samples[key] == 1.0


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\r", "\x1c"])
def test_other_line_separators_stay_inside_their_sample(separator):
    """Only ``"\\n"`` ends a line; the writer escapes no other separator,
    so a reader that also breaks at U+2028 and kin lets a label value
    inject samples."""
    service = f"x{separator}repro_fake_total 99{separator}"
    collector = CollectorServer()
    collector.ingest([{"name": "a"}], resource={"service": service})
    text = collector.obs_registry.render()
    key = (
        'repro_obs_collector_batches_total{service="'
        + escape_label_value(service) + '"}'
    )
    for samples in (
        parse_prometheus(text),
        parse_prometheus(merge_prometheus_texts([text])),
    ):
        assert samples[key] == 1
        assert not any(k.startswith("repro_fake") for k in samples)
    printed = samples_text(text).split("\n")
    assert not any(line.startswith("repro_fake") for line in printed)
    assert sum(line.startswith(key) for line in printed) == 1


# ---------------------------------------------------------------- live scrapes


def _http(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


def _scrape(port: int) -> str:
    status, text = _http(port, "GET", "/metrics")
    assert status == 200
    return text


@pytest.fixture(scope="module")
def model_registry(tmp_path_factory, small_dataset):
    registry = ModelRegistry(tmp_path_factory.mktemp("conformance") / "registry")
    registry.push(
        "point",
        PerformancePredictor(ModelKind.LINEAR, FeatureSet.F, seed=3).fit(
            list(small_dataset)
        ),
    )
    return registry


def _features(request) -> dict:
    observation = next(iter(request.getfixturevalue("small_dataset")))
    return {
        f.value: float(observation.feature_value(f)) for f in FeatureSet.F.features
    }


def _prediction_server_scrape(request) -> str:
    registry = request.getfixturevalue("model_registry")
    features = _features(request)
    with ServerThread(registry, max_batch=4, max_wait_ms=1.0) as handle:
        with PredictionClient("127.0.0.1", handle.port) as client:
            client.predict_batch([features] * 3, model="point")
            _http(handle.port, "POST", "/v1/predict", b"not json")
        return _scrape(handle.port)


def _router_scrape(request) -> str:
    registry = request.getfixturevalue("model_registry")
    with ServerThread(registry, max_batch=4, max_wait_ms=1.0) as worker:
        router = ServerThreadBase(RouterServer([worker.port], registry))
        with router:
            with PredictionClient("127.0.0.1", router.port) as client:
                client.predict(_features(request), model="point")
            return _scrape(router.port)


def _registry_server_scrape(request) -> str:
    registry = request.getfixturevalue("model_registry")
    with RegistryServerThread(registry) as handle:
        _http(handle.port, "GET", "/v1/models")
        _http(handle.port, "GET", "/v1/models/missing")
        return _scrape(handle.port)


def _scheduler_scrape(request) -> str:
    baselines = request.getfixturevalue("baselines_6core")
    fleet = FleetState([MachineConfig(XEON_E5649, count=2, name_prefix="node")])
    with SchedulerThread(fleet, baselines, policy="first-fit") as handle:
        with SchedulerClient("127.0.0.1", handle.port) as client:
            client.submit(["cg", "ep"])
            deadline = time.monotonic() + 10.0
            while (
                client.jobs()["counts"]["completed"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        return _scrape(handle.port)


def _collector_scrape(_request) -> str:
    with CollectorThread(max_spans=10) as handle:
        for service in ("serve-0", NASTY):
            batch = {"resource": {"service": service}, "spans": [{"name": "s"}]}
            _http(handle.port, "POST", "/v1/spans", json.dumps(batch).encode())
        return _scrape(handle.port)


#: Each live service's scrape and the prefix of its request record.
LIVE = {
    "prediction_server": (_prediction_server_scrape, "repro_serve"),
    "router": (_router_scrape, "repro_router"),
    "registry_server": (_registry_server_scrape, "repro_registry"),
    "scheduler": (_scheduler_scrape, "repro_sched"),
    "collector": (_collector_scrape, "repro_obs_collector"),
}

#: Families only the prediction server's record has, by name suffix.
PREDICTION_FAMILIES = (
    "_predictions_total",
    "_model_cache_hits_total",
    "_model_cache_misses_total",
    "_batch_size",
    "_phase_latency_seconds",
)


@pytest.fixture(scope="module", params=sorted(LIVE))
def live_scrape(request) -> tuple[str, str]:
    """``(service, scrape)`` after the service answered some requests."""
    scrape, _prefix = LIVE[request.param]
    return request.param, scrape(request)


def test_live_scrape_conforms(live_scrape):
    _service, text = live_scrape
    assert_conformant(text)


def test_live_scrape_has_its_request_record(live_scrape):
    service, text = live_scrape
    prefix = LIVE[service][1]
    requests = {
        key: n for key, n in parse_prometheus(text).items()
        if key.startswith(f"{prefix}_requests_total{{")
    }
    assert requests and sum(requests.values()) >= 1
    _helps, types = _comment_indexes(text)
    prediction = {prefix + suffix for suffix in PREDICTION_FAMILIES}
    expected = prediction if service == "prediction_server" else set()
    assert prediction & set(types) == expected
