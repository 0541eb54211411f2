"""End-to-end tests: HTTP server + blocking client against a registry.

A real server runs on a background event loop (:class:`ServerThread`);
the blocking client talks to it over loopback TCP exactly as a resource
manager sidecar would.
"""

import asyncio
import concurrent.futures
import threading
import time

import numpy as np
import pytest

from repro.serve.client import ClientError, PredictionClient
from repro.serve.http import HttpServerBase
from repro.serve.server import PredictionServer, ServerThread


@pytest.fixture
def server(populated_registry):
    with ServerThread(populated_registry, max_batch=8, max_wait_ms=1.0) as handle:
        yield handle


@pytest.fixture
def client(server):
    with PredictionClient("127.0.0.1", server.port) as c:
        yield c


class TestBasicEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["models"] == 2

    def test_models_lists_manifests(self, client):
        models = client.models()
        refs = [f"{m['name']}@{m['version']}" for m in models]
        assert refs == ["band@1", "point@1"]
        assert {m["artifact"] for m in models} == {"ensemble", "predictor"}
        assert all(len(m["content_hash"]) == 64 for m in models)

    def test_unknown_path_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._json("GET", "/v2/everything")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._json("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_keep_alive_reuses_connection(self, client):
        client.healthz()
        conn = client._conn
        client.healthz()
        assert client._conn is conn


class TestPredict:
    def test_single_matches_in_memory_exactly(
        self, client, point_predictor, feature_dicts, feature_rows
    ):
        body = client.predict(feature_dicts[0], model="point")
        assert body["model"] == "point@1"
        expected = float(point_predictor.predict_rows(feature_rows[0:1])[0])
        assert body["prediction"] == expected  # bit-identical via JSON floats

    def test_batch_matches_in_memory_exactly(
        self, client, point_predictor, feature_dicts, feature_rows
    ):
        body = client.predict_batch(feature_dicts, model="point@1")
        expected = point_predictor.predict_rows(feature_rows)
        assert body["predictions"] == [float(v) for v in expected]

    def test_interval_from_ensemble(
        self, client, ensemble, feature_dicts, feature_rows
    ):
        body = client.predict(feature_dicts[0], model="band", interval=True)
        means, stds = ensemble.predict_rows(feature_rows[0:1])
        assert body["prediction"] == float(means[0])
        assert body["std"] == float(stds[0])
        lo, hi = body["interval"]
        assert lo == pytest.approx(float(means[0]) - 2.0 * float(stds[0]))
        assert hi == pytest.approx(float(means[0]) + 2.0 * float(stds[0]))

    def test_batch_interval(self, client, ensemble, feature_dicts, feature_rows):
        body = client.predict_batch(
            feature_dicts[:4], model="band@1", interval=True
        )
        means, stds = ensemble.predict_rows(feature_rows[:4])
        assert body["predictions"] == [float(v) for v in means]
        assert body["stds"] == [float(v) for v in stds]
        assert len(body["intervals"]) == 4

    def test_ensemble_without_interval_returns_means(
        self, client, ensemble, feature_dicts, feature_rows
    ):
        body = client.predict(feature_dicts[0], model="band")
        means, _stds = ensemble.predict_rows(feature_rows[0:1])
        assert body["prediction"] == float(means[0])
        assert "std" not in body

    def test_interval_on_point_predictor_400(self, client, feature_dicts):
        with pytest.raises(ClientError) as excinfo:
            client.predict(feature_dicts[0], model="point", interval=True)
        assert excinfo.value.status == 400
        assert "ensemble" in excinfo.value.message


class TestPredictValidation:
    def test_unknown_model_404(self, client, feature_dicts):
        with pytest.raises(ClientError) as excinfo:
            client.predict(feature_dicts[0], model="ghost")
        assert excinfo.value.status == 404
        assert "unknown model" in excinfo.value.message

    def test_unknown_version_404(self, client, feature_dicts):
        with pytest.raises(ClientError) as excinfo:
            client.predict(feature_dicts[0], model="point@9")
        assert excinfo.value.status == 404

    def test_missing_feature_400(self, client, feature_dicts):
        incomplete = dict(feature_dicts[0])
        incomplete.pop("baseExTime")
        with pytest.raises(ClientError) as excinfo:
            client.predict(incomplete, model="point")
        assert excinfo.value.status == 400
        assert "baseExTime" in excinfo.value.message

    def test_unknown_feature_400(self, client, feature_dicts):
        extra = dict(feature_dicts[0], bogusFeature=1.0)
        with pytest.raises(ClientError) as excinfo:
            client.predict(extra, model="point")
        assert excinfo.value.status == 400
        assert "bogusFeature" in excinfo.value.message

    def test_non_numeric_feature_400(self, client, feature_dicts):
        bad = dict(feature_dicts[0], baseExTime="fast")
        with pytest.raises(ClientError) as excinfo:
            client.predict(bad, model="point")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_feature_400(self, client, feature_dicts, value):
        bad = dict(feature_dicts[0], baseExTime=value)
        with pytest.raises(ClientError) as excinfo:
            client.predict(bad, model="point")
        assert excinfo.value.status == 400
        assert "'baseExTime' must be finite" in excinfo.value.message

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_feature_in_batch_400(self, client, feature_dicts, value):
        batch = [dict(d) for d in feature_dicts]
        batch[-1]["coAppMem"] = value
        with pytest.raises(ClientError) as excinfo:
            client.predict_batch(batch, model="point")
        assert excinfo.value.status == 400
        assert "'coAppMem' must be finite" in excinfo.value.message

    @pytest.mark.parametrize(
        "literal", [b"1e999", b"1" + b"0" * 400], ids=["1e999", "huge-int"]
    )
    def test_out_of_range_literal_400(self, server, feature_dicts, literal):
        import http.client
        import json

        body = json.dumps(
            {"model": "point", "features": dict(feature_dicts[0], baseExTime=0)}
        ).encode().replace(b'"baseExTime": 0', b'"baseExTime": ' + literal)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        conn.request(
            "POST", "/v1/predict", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "'baseExTime' must be finite" in payload["error"]

    def test_missing_model_400(self, client, feature_dicts):
        with pytest.raises(ClientError) as excinfo:
            client._json(
                "POST", "/v1/predict", {"features": feature_dicts[0]}
            )
        assert excinfo.value.status == 400

    def test_both_shapes_400(self, client, feature_dicts):
        with pytest.raises(ClientError) as excinfo:
            client._json(
                "POST",
                "/v1/predict",
                {
                    "model": "point",
                    "features": feature_dicts[0],
                    "instances": feature_dicts,
                },
            )
        assert excinfo.value.status == 400

    def test_invalid_json_400(self, client, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        conn.request(
            "POST", "/v1/predict", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        conn.close()


class TestMetricsEndpoint:
    def test_request_counts_are_consistent(
        self, populated_registry, feature_dicts
    ):
        with ServerThread(populated_registry, max_batch=8, max_wait_ms=1.0) as h:
            with PredictionClient("127.0.0.1", h.port) as client:
                n = 7
                for i in range(n):
                    client.predict(feature_dicts[i % len(feature_dicts)], model="point")
                client.predict_batch(feature_dicts[:3], model="point")
                samples = client.metrics()
        key = 'repro_serve_requests_total{endpoint="/v1/predict",status="200"}'
        assert samples[key] == n + 1
        assert samples["repro_serve_predictions_total"] == n + 3
        # Latency histogram covers every HTTP request seen so far
        # (prediction requests plus this scrape's predecessors).
        assert samples["repro_serve_request_latency_seconds_count"] == n + 1
        assert samples["repro_serve_request_latency_seconds_sum"] > 0.0
        # Quantile gauges are rendered and ordered.
        p50 = samples["repro_serve_request_latency_seconds_p50"]
        p99 = samples["repro_serve_request_latency_seconds_p99"]
        assert 0.0 < p50 <= p99

    def test_model_cache_hits_accumulate(self, populated_registry, feature_dicts):
        with ServerThread(populated_registry, max_batch=4, max_wait_ms=1.0) as h:
            with PredictionClient("127.0.0.1", h.port) as client:
                client.predict(feature_dicts[0], model="point")
                client.predict(feature_dicts[0], model="point")
                client.predict(feature_dicts[0], model="point@1")
                samples = client.metrics()
        assert samples["repro_serve_model_cache_misses_total"] == 1
        assert samples["repro_serve_model_cache_hits_total"] == 2

    def test_batch_size_histogram_counts_flushes(
        self, populated_registry, feature_dicts
    ):
        with ServerThread(populated_registry, max_batch=4, max_wait_ms=1.0) as h:
            with PredictionClient("127.0.0.1", h.port) as client:
                client.predict_batch(feature_dicts[:8], model="point")
                samples = client.metrics()
        assert samples["repro_serve_batch_size_count"] == 2  # 8 rows / max 4
        assert samples["repro_serve_batch_size_sum"] == 8.0

    def test_errors_total_exposed(self, populated_registry, feature_dicts):
        with ServerThread(populated_registry, max_batch=4, max_wait_ms=1.0) as h:
            with PredictionClient("127.0.0.1", h.port) as client:
                with pytest.raises(ClientError):
                    client.predict(feature_dicts[0], model="ghost")
                samples = client.metrics()
        assert samples['repro_serve_errors_total{reason="unknown_model"}'] == 1


class TestSerialVsBatchedEquality:
    """The acceptance property: coalescing never changes served floats."""

    def _served_predictions(self, registry, feature_dicts, *, max_batch):
        with ServerThread(
            registry, max_batch=max_batch, max_wait_ms=2.0
        ) as handle:
            barrier = threading.Barrier(len(feature_dicts))
            results = [None] * len(feature_dicts)

            def worker(i):
                with PredictionClient("127.0.0.1", handle.port) as c:
                    barrier.wait(timeout=10)
                    results[i] = c.predict(feature_dicts[i], model="point")[
                        "prediction"
                    ]

            with concurrent.futures.ThreadPoolExecutor(
                max_workers=len(feature_dicts)
            ) as pool:
                list(pool.map(worker, range(len(feature_dicts))))
        return results

    def test_concurrent_serial_equals_batched(
        self, populated_registry, feature_dicts
    ):
        serial = self._served_predictions(
            populated_registry, feature_dicts, max_batch=1
        )
        batched = self._served_predictions(
            populated_registry, feature_dicts, max_batch=len(feature_dicts)
        )
        assert serial == batched  # exact float equality

    def test_batched_run_actually_batched(self, populated_registry, feature_dicts):
        with ServerThread(
            populated_registry, max_batch=len(feature_dicts), max_wait_ms=20.0
        ) as handle:
            barrier = threading.Barrier(len(feature_dicts))

            def worker(i):
                with PredictionClient("127.0.0.1", handle.port) as c:
                    barrier.wait(timeout=10)
                    return c.predict(feature_dicts[i], model="point")["prediction"]

            with concurrent.futures.ThreadPoolExecutor(
                max_workers=len(feature_dicts)
            ) as pool:
                list(pool.map(worker, range(len(feature_dicts))))
            with PredictionClient("127.0.0.1", handle.port) as c:
                samples = c.metrics()
        # Coalescing happened: fewer flushes than rows.
        assert samples["repro_serve_batch_size_sum"] == len(feature_dicts)
        assert samples["repro_serve_batch_size_count"] < len(feature_dicts)


class TestFlushByForm:
    """A batch-form body flushes at once; single-form bodies coalesce."""

    def test_one_instance_batch_returns_promptly(
        self, populated_registry, feature_dicts, client
    ):
        expected = client.predict(feature_dicts[0], model="point")["prediction"]
        with ServerThread(populated_registry, max_wait_ms=60_000.0) as handle:
            with PredictionClient("127.0.0.1", handle.port, timeout=10.0) as c:
                started = time.monotonic()
                body = c.predict_batch([feature_dicts[0]], model="point")
                elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert body["predictions"] == [expected]

    def test_concurrent_single_form_requests_coalesce(
        self, populated_registry, feature_dicts
    ):
        n = len(feature_dicts)
        # A minute-long deadline: only a full batch can flush, so the n
        # single-form rows must all wait for one another.
        with ServerThread(
            populated_registry, max_batch=n, max_wait_ms=60_000.0
        ) as handle:

            def worker(i):
                with PredictionClient("127.0.0.1", handle.port, timeout=10.0) as c:
                    return c.predict(feature_dicts[i], model="point")["prediction"]

            with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
                list(pool.map(worker, range(n)))
            with PredictionClient("127.0.0.1", handle.port) as c:
                samples = c.metrics()
        assert samples["repro_serve_batch_size_count"] == 1
        assert samples["repro_serve_batch_size_sum"] == n


class _PausedDrain(HttpServerBase):
    """Counts the requests it routes; ``stop()`` waits in ``_drain``."""

    metrics_prefix = "paused_drain"

    def __init__(self) -> None:
        super().__init__()
        self.routed = 0
        self.draining = asyncio.Event()
        self.release = asyncio.Event()

    async def _drain(self) -> None:
        self.draining.set()
        await self.release.wait()

    async def _route(self, request):
        self.routed += 1
        return 200, "application/json", b"{}"


async def _answer(reader: asyncio.StreamReader) -> bytes:
    """One response's head and body, or whatever came before EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    return head + await reader.readexactly(length)


class TestLifecycle:
    def test_request_read_while_stopping_is_not_routed(self):
        """A kept-alive connection's request that arrives while ``stop()``
        drains gets a 503 or a closed connection, and its route never
        runs: a router would otherwise forward it, and a worker count
        it, for an answer written into a closed connection."""
        request = b"GET /work HTTP/1.1\r\nHost: test\r\n\r\n"

        async def run():
            server = _PausedDrain()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(request)
            first = await _answer(reader)
            stopping = asyncio.create_task(server.stop())
            await server.draining.wait()
            writer.write(request)
            second = await asyncio.wait_for(_answer(reader), timeout=5.0)
            rest = await asyncio.wait_for(reader.read(), timeout=5.0)
            server.release.set()
            await stopping
            writer.close()
            return first, second, rest, server.routed

        first, second, rest, routed = asyncio.run(run())
        assert first.startswith(b"HTTP/1.1 200")
        assert second == b"" or second.startswith(b"HTTP/1.1 503")
        if second:
            assert b"Connection: close" in second
            assert b'"error": "server is shutting down"' in second
        assert rest == b""  # the connection closed behind the answer
        assert routed == 1

    def test_ephemeral_port_resolves(self, populated_registry):
        with ServerThread(populated_registry) as handle:
            assert handle.port > 0

    def test_stop_is_idempotent(self, populated_registry):
        handle = ServerThread(populated_registry).start()
        handle.stop()
        handle.stop()  # no-op

    def test_connection_closed_after_stop(self, populated_registry):
        handle = ServerThread(populated_registry).start()
        client = PredictionClient("127.0.0.1", handle.port)
        assert client.healthz()["status"] == "ok"
        handle.stop()
        with pytest.raises((ClientError, OSError)):
            client.healthz()
        client.close()

    def test_double_start_rejected(self, populated_registry):
        with ServerThread(populated_registry) as handle:
            with pytest.raises(RuntimeError, match="already"):
                handle.start()

    def test_server_without_thread_helper(self, populated_registry):
        """PredictionServer drives start/stop cleanly on a caller's loop."""
        import asyncio

        async def run():
            server = PredictionServer(populated_registry, max_batch=2)
            await server.start()
            port = server.port
            await server.stop()
            return port

        assert asyncio.run(run()) > 0

    def test_model_cache_eviction(self, populated_registry, feature_dicts):
        with ServerThread(
            populated_registry, max_batch=2, max_wait_ms=1.0,
            model_cache_size=1,
        ) as handle:
            with PredictionClient("127.0.0.1", handle.port) as client:
                client.predict(feature_dicts[0], model="point")
                client.predict(feature_dicts[0], model="band")  # evicts point
                client.predict(feature_dicts[0], model="point")  # reloads
                samples = client.metrics()
        assert samples["repro_serve_model_cache_misses_total"] == 3
