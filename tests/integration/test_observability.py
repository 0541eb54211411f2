"""Acceptance: one observability layer across sim, fitting, and serving.

The issue's acceptance criteria, end to end through real entry points:

* a local ``evaluate --trace`` run records spans and writes a loadable
  Chrome trace;
* one ``GET /metrics`` scrape of a server that has served traffic
  exposes samples from all three sources — simulation, fitting, and
  serving — in valid Prometheus text; and
* ``repro obs summary out.json`` prints a span tree whose request spans
  carry the client-sent ``X-Request-Id``.
"""

import json

import pytest

from repro.cli import main
from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.obs.trace import NullTracer, disable, enable, get_tracer
from repro.registry import ModelRegistry
from repro.serve.client import PredictionClient, parse_prometheus
from repro.serve.server import ServerThread


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory, small_dataset):
    path = tmp_path_factory.mktemp("obs") / "dataset.csv"
    small_dataset.to_csv(path)
    return path


def test_evaluate_trace_records_fit_and_validation_spans(
    dataset_csv, tmp_path, capsys
):
    trace_path = tmp_path / "evaluate.json"
    exit_code = main(
        [
            "evaluate",
            "--data", str(dataset_csv),
            "--repetitions", "1",
            "--trace", str(trace_path),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert f"trace span(s) to {trace_path}" in out
    assert isinstance(get_tracer(), NullTracer)  # CLI uninstalled the tracer

    payload = json.loads(trace_path.read_text())
    names = {e["name"] for e in payload["traceEvents"] if e.get("ph") == "X"}
    assert "validation.subsampling" in names
    assert "fit.neural" in names
    assert "fit.scg_restart" in names


def test_scrape_after_traffic_exposes_all_three_sources(
    small_dataset, tmp_path, capsys
):
    # A neural model, so the fit feeds the process-global fitting
    # aggregate even when this test runs alone (linear fits only feed it
    # through the validation layer).
    predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.B, seed=3).fit(
        list(small_dataset)
    )
    registry = ModelRegistry(tmp_path / "registry")
    registry.push("point", predictor)
    observation = next(iter(small_dataset))
    features = {
        f.value: float(observation.feature_value(f))
        for f in FeatureSet.B.features
    }

    trace_path = tmp_path / "serve.json"
    tracer = enable(service="acceptance")
    try:
        with ServerThread(registry, max_batch=4, max_wait_ms=1.0) as handle:
            with PredictionClient("127.0.0.1", handle.port) as client:
                body = client.predict(
                    features, model="point", request_id="acceptance-42"
                )
                assert "prediction" in body
                assert client.last_request_id == "acceptance-42"
                scrape = client.metrics_text()
        tracer.export_chrome(trace_path)
    finally:
        disable()

    samples = parse_prometheus(scrape)
    assert samples["repro_engine_solves_total"] > 0       # simulation
    assert samples["repro_fit_fits_total"] > 0            # fitting
    assert (
        samples['repro_serve_requests_total{endpoint="/v1/predict",status="200"}']
        >= 1.0
    )                                                     # serving
    assert (
        samples['repro_serve_phase_latency_seconds_count{phase="predict"}'] >= 1.0
    )

    # The span tree printed by the CLI carries the client-sent request id.
    assert main(["obs", "summary", str(trace_path)]) == 0
    summary = capsys.readouterr().out
    assert "serve.request" in summary
    assert "request_id=acceptance-42" in summary
