"""Acceptance: one stitched trace across the whole fleet.

The tentpole requirement, end to end: with a collector running and the
2-worker serving tier streaming spans to it, a single request produces
*one* trace — the router's ``route.request`` span is the parent of the
worker's ``serve.request`` span — in both the Chrome-trace and the
OTLP/JSON exports.  And parallel collection (``workers=N``) no longer
drops worker spans: they ride home with each chunk (or stream to the
collector) instead of dying with the pool.
"""

from __future__ import annotations

import json

import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.harness.parallel import map_scenario_batches
from repro.obs.collector import CollectorThread
from repro.obs.otlp import hex_id
from repro.obs.stream import SpanSender, StreamingTracer
from repro.obs.summary import load_trace, span_forest
from repro.obs.trace import disable, enable, set_tracer
from repro.registry import ModelRegistry
from repro.serve.client import PredictionClient
from repro.serve.router import ServingTier


@pytest.fixture(scope="module")
def predictor(small_dataset):
    return PerformancePredictor(
        ModelKind.LINEAR, FeatureSet.F, seed=3
    ).fit(small_dataset)


@pytest.fixture(scope="module")
def features(small_dataset):
    obs = next(iter(small_dataset))
    return {
        f.value: float(obs.feature_value(f)) for f in FeatureSet.F.features
    }


@pytest.fixture
def tier_registry(tmp_path, predictor):
    registry = ModelRegistry(tmp_path / "registry")
    registry.push("point", predictor)
    return registry


class TestStitchedFleetTrace:
    @pytest.fixture
    def fleet_trace(self, tier_registry, features, tmp_path):
        """Run one request through the traced 2-worker tier; export both."""
        collector = CollectorThread().start()
        tracer = StreamingTracer(
            SpanSender(
                collector.endpoint, resource={"service": "serve-router"}
            )
        )
        previous = set_tracer(tracer)
        tier = ServingTier(
            tier_registry, workers=2, trace_stream=collector.endpoint
        )
        try:
            tier.start()
            with PredictionClient("127.0.0.1", tier.port) as client:
                body = client.predict(
                    features, model="point", request_id="stitch-1"
                )
                assert "prediction" in body
        finally:
            tier.stop()  # workers flush their senders during the drain
            set_tracer(previous)
            tracer.close()
            collector.stop()
        chrome_path = tmp_path / "fleet.trace.json"
        otlp_path = tmp_path / "fleet.otlp.json"
        assert collector.export_chrome(chrome_path) >= 2
        assert collector.export_otlp(otlp_path) >= 2
        return collector.records(), chrome_path, otlp_path

    def _request_spans(self, records):
        router = [
            r for r in records
            if r["name"] == "route.request"
            and r["attributes"].get("request_id") == "stitch-1"
        ]
        worker = [
            r for r in records
            if r["name"] == "serve.request"
            and r["attributes"].get("request_id") == "stitch-1"
        ]
        assert len(router) == 1, "router span missing from the collector"
        assert len(worker) == 1, "worker span missing from the collector"
        return router[0], worker[0]

    def test_collector_holds_one_stitched_trace(self, fleet_trace):
        records, _chrome, _otlp = fleet_trace
        router, worker = self._request_spans(records)
        # Same trace, parent/child across the process hop.
        assert worker["trace_id"] == router["trace_id"]
        assert worker["parent_id"] == router["span_id"]
        # Resources tell the processes apart.
        assert router["resource"]["service"] == "serve-router"
        assert worker["resource"]["service"].startswith("serve-worker-")
        assert worker["resource"]["pid"] != router["resource"]["pid"]

    def test_chrome_export_is_stitched(self, fleet_trace):
        records, chrome_path, _otlp = fleet_trace
        router, worker = self._request_spans(records)
        events = json.loads(chrome_path.read_text())["traceEvents"]
        spans = {
            (e["name"], e["args"].get("request_id")): e
            for e in events
            if e["ph"] == "X"
        }
        router_ev = spans[("route.request", "stitch-1")]
        worker_ev = spans[("serve.request", "stitch-1")]
        assert worker_ev["args"]["trace_id"] == router_ev["args"]["trace_id"]
        assert worker_ev["args"]["parent_id"] == router_ev["args"]["span_id"]
        assert worker_ev["pid"] != router_ev["pid"]
        # Process rows are named after the origin services.
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert "serve-router" in names
        assert any(n.startswith("serve-worker-") for n in names)
        # The summary loader stitches the exported file into one tree.
        forest = span_forest(load_trace(chrome_path))
        stitched = {
            (node.name, child.name)
            for node in forest
            for child in node.children
        }
        assert ("route.request", "serve.request") in stitched

    def test_otlp_export_is_stitched(self, fleet_trace):
        records, _chrome, otlp_path = fleet_trace
        router, worker = self._request_spans(records)
        payload = json.loads(otlp_path.read_text())
        by_id = {}
        services = {}
        for group in payload["resourceSpans"]:
            attrs = {
                a["key"]: a["value"] for a in group["resource"]["attributes"]
            }
            service = attrs["service.name"]["stringValue"]
            for span in group["scopeSpans"][0]["spans"]:
                by_id[span["spanId"]] = span
                services[span["spanId"]] = service
        router_otlp = by_id[hex_id(router["span_id"], 8)]
        worker_otlp = by_id[hex_id(worker["span_id"], 8)]
        assert worker_otlp["parentSpanId"] == router_otlp["spanId"]
        assert worker_otlp["traceId"] == router_otlp["traceId"]
        assert services[router_otlp["spanId"]] == "serve-router"
        assert services[worker_otlp["spanId"]].startswith("serve-worker-")
        # OTLP files load back into the same stitched tree.
        forest = span_forest(load_trace(otlp_path))
        stitched = {
            (node.name, child.name)
            for node in forest
            for child in node.children
        }
        assert ("route.request", "serve.request") in stitched


def _solve_payloads(engine, payloads):
    return [
        engine.run(app, (), pstate=pstate).target.execution_time_s
        for app, pstate in payloads
    ]


class TestParallelCollectionKeepsWorkerSpans:
    def payloads(self, engine):
        from repro.workloads.suite import get_application

        apps = [get_application(n) for n in ("cg", "ep")]
        return [
            (app, pstate)
            for app in apps
            for pstate in engine.processor.pstates[:2]
        ]

    def test_worker_spans_ingested_into_parent_ring(self, engine_6core):
        tracer = enable(service="collect")
        try:
            map_scenario_batches(
                engine_6core, _solve_payloads, self.payloads(engine_6core),
                workers=2,
            )
            spans = {s.name: s for s in tracer.spans()}
            assert "harness.map_scenario_batches" in spans
            # The worker-side spans survived the pool teardown...
            chunk_spans = [
                s for s in tracer.spans() if s.name == "pool.chunk"
            ]
            assert chunk_spans, "worker spans were dropped"
            # ...parented under the parent's map span, in the same trace.
            map_span = spans["harness.map_scenario_batches"]
            assert all(
                s.trace_id == map_span.trace_id
                and s.parent_id == map_span.span_id
                for s in chunk_spans
            )
            # And they carry their origin process's resource.
            assert all(
                s.resource is not None
                and s.resource["service"] == "collect-worker"
                for s in chunk_spans
            )
            # The engine instrumentation inside the workers came home too.
            assert any(s.name == "engine.solve" for s in tracer.spans())
        finally:
            disable()

    def test_streaming_workers_send_to_collector(self, engine_6core):
        collector = CollectorThread().start()
        tracer = StreamingTracer(
            SpanSender(collector.endpoint, resource={"service": "collect"})
        )
        set_tracer(tracer)
        try:
            map_scenario_batches(
                engine_6core, _solve_payloads, self.payloads(engine_6core),
                workers=2,
            )
            tracer.flush()
            records = collector.records()
            names = [r["name"] for r in records]
            # Parent-side and worker-side spans meet at the collector.
            assert "harness.map_scenario_batches" in names
            assert "pool.chunk" in names
            # Streaming workers ship their own spans; the parent does not
            # ingest (and so cannot double-stream) them.
            assert not any(
                s.name == "pool.chunk" for s in tracer.spans()
            )
            # Worker batches carried their resource to the collector.
            chunk = next(
                r for r in records if r["name"] == "pool.chunk"
            )
            assert chunk["resource"]["service"] == "collect-worker"
        finally:
            disable()
            tracer.close()
            collector.stop()
