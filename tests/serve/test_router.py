"""The multi-worker serving tier: routing, canary/shadow, merged metrics.

One module-scoped :class:`~repro.serve.router.ServingTier` (two spawned
worker processes behind the router) carries most tests — spawning
interpreters is the expensive part, the assertions are cheap.  The
registry holds two versions each of ``point`` (linear; distinct
artifacts, identical predictions) and ``band`` (ensembles with different
bootstrap seeds, so their predictions genuinely diverge — what the
shadow-divergence histogram must measure).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from contextlib import ExitStack

import pytest

from repro.core.ensemble import EnsemblePredictor
from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind
from repro.registry import HttpBackend, RegistryServerThread
from repro.registry.local import ModelRegistry
from repro.serve.client import ClientError, PredictionClient
from repro.serve.http import HttpServerBase, ServerThreadBase
from repro.serve.router import RouterServer, ServingTier, parse_canary, parse_shadow
from repro.serve.shard import shard_for
from tests.obs.test_prometheus_conformance import assert_conformant


@pytest.fixture(scope="module")
def shadow_ensemble(observations):
    """A second ensemble whose bootstrap seed differs from ``ensemble``."""
    return EnsemblePredictor(
        ModelKind.LINEAR, FeatureSet.F, n_members=3, seed=5
    ).fit(observations)


@pytest.fixture(scope="module")
def tier_registry(
    tmp_path_factory, point_predictor, other_predictor, ensemble,
    shadow_ensemble,
):
    """``point@1``/``point@2`` and ``band@1``/``band@2``, dated apart."""
    registry = ModelRegistry(tmp_path_factory.mktemp("tier") / "registry")
    registry.push("point", point_predictor,
                  created_at="2026-01-01T00:00:00+00:00")
    registry.push("point", other_predictor,
                  created_at="2026-01-02T00:00:00+00:00")
    registry.push("band", ensemble, created_at="2026-01-03T00:00:00+00:00")
    registry.push("band", shadow_ensemble,
                  created_at="2026-01-04T00:00:00+00:00")
    return registry


@pytest.fixture(scope="module")
def tier(tier_registry):
    """Two workers; 25% of bare ``point`` canaries to ``point@2``;
    every ``band`` request shadowed against ``band@1``."""
    with ServingTier(
        tier_registry,
        workers=2,
        canary=(parse_canary("point@2:25"),),
        shadow=(parse_shadow("band@1"),),
        max_batch=16,
        max_wait_ms=2.0,
    ) as handle:
        yield handle


@pytest.fixture()
def client(tier):
    with PredictionClient("127.0.0.1", tier.port) as handle:
        yield handle


class TestSpecParsing:
    def test_canary(self):
        spec = parse_canary("band@2:10")
        assert (spec.name, spec.version, spec.fraction) == ("band", 2, 0.10)
        assert spec.ref == "band@2"

    @pytest.mark.parametrize(
        "text", ["band@2", "band:10", "band@2:0", "band@2:101", "band@2:x"]
    )
    def test_canary_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_canary(text)

    def test_shadow(self):
        assert parse_shadow("band@1").ref == "band@1"

    def test_shadow_needs_a_version(self):
        with pytest.raises(ValueError, match="name@version"):
            parse_shadow("band")


class TestRouting:
    def test_predictions_bit_identical_to_the_artifact(
        self, client, feature_dicts, feature_rows, point_predictor
    ):
        # A pinned ref through router -> worker -> micro-batcher must
        # reproduce the artifact's own prediction bit for bit.
        expected = point_predictor.predict_rows(feature_rows[:4])
        body = client.predict_batch(feature_dicts[:4], model="point@1")
        assert body["model"] == "point@1"
        assert body["predictions"] == [float(v) for v in expected]

    def test_single_and_interval_bodies_pass_through(
        self, client, feature_dicts, shadow_ensemble, feature_rows
    ):
        means, stds = shadow_ensemble.predict_rows(feature_rows[0:1])
        body = client.predict(feature_dicts[0], model="band@2", interval=True)
        assert body["prediction"] == float(means[0])
        assert body["std"] == float(stds[0])
        assert body["interval"] == [
            float(means[0] - 2.0 * stds[0]), float(means[0] + 2.0 * stds[0])
        ]

    def test_unknown_model_propagates_the_worker_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.predict({"x": 1.0}, model="nope")
        assert excinfo.value.status == 404

    def test_request_id_echoes_through_the_tier(self, client, feature_dicts):
        client.predict(
            feature_dicts[0], model="point@1", request_id="hop-42"
        )
        assert client.last_request_id == "hop-42"

    def test_healthz_reports_every_worker(self, tier, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert [w["index"] for w in body["workers"]] == [0, 1]
        assert all(w["status"] == "ok" for w in body["workers"])

    def test_models_listing_served_from_the_router(self, client):
        names = {m["name"] for m in client.models()}
        assert names == {"point", "band"}

    def test_machine_metadata_routes_to_newest_compatible(
        self, client, feature_dicts
    ):
        # No "model" in the body: the router resolves the machine to the
        # newest live artifact trained for it (band@2, dated last).
        status, raw = _raw_predict(
            client, {"machine": "Xeon E5649", "features": feature_dicts[0]}
        )
        assert status == 200
        assert json.loads(raw)["model"] == "band@2"

    def test_unknown_machine_is_a_404_naming_known_machines(
        self, client, feature_dicts
    ):
        status, raw = _raw_predict(
            client, {"machine": "PDP-11", "features": feature_dicts[0]}
        )
        assert status == 404
        assert "Xeon E5649" in json.loads(raw)["error"]


def _raw_predict(client: PredictionClient, body: dict) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30.0)
    try:
        conn.request(
            "POST", "/v1/predict", body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestCanary:
    def test_exact_fraction_and_baseline_pin(self, client, feature_dicts):
        # The 25% accumulator takes exactly one request in four — over
        # any 40 consecutive bare-name requests, exactly 10 — and the
        # remainder pins to the newest version older than the canary
        # (point@1), not to the float-to-latest point@2.
        served = [
            client.predict(feature_dicts[0], model="point")["model"]
            for _ in range(40)
        ]
        assert served.count("point@2") == 10
        assert served.count("point@1") == 30

    def test_pinned_requests_are_never_rerouted(self, client, feature_dicts):
        for _ in range(8):
            body = client.predict(feature_dicts[0], model="point@1")
            assert body["model"] == "point@1"


class TestShadow:
    def test_primary_response_is_the_primary_version(
        self, client, feature_dicts, shadow_ensemble, feature_rows
    ):
        means, _stds = shadow_ensemble.predict_rows(feature_rows[0:1])
        body = client.predict(feature_dicts[0], model="band")
        # Bare "band" floats to band@2; the shadow (band@1) never leaks
        # into the client-visible response.
        assert body["model"] == "band@2"
        assert body["prediction"] == float(means[0])

    def test_divergence_visible_in_one_merged_scrape(
        self, client, feature_dicts
    ):
        n = 6
        for i in range(n):
            client.predict(feature_dicts[i], model="band")
        samples = client.metrics()
        sent = samples[
            'repro_serve_shadow_requests_total{model="band",ref="band@1"}'
        ]
        assert sent >= n
        count = samples['repro_serve_shadow_divergence_count{model="band"}']
        assert count >= n
        # Different bootstrap seeds genuinely disagree: the divergence
        # sum is positive and not every observation landed in the
        # bit-identical (le="0.0") bucket.
        assert samples['repro_serve_shadow_divergence_sum{model="band"}'] > 0.0
        identical = samples[
            'repro_serve_shadow_divergence_bucket{le="0.0",model="band"}'
        ]
        assert identical < count
        assert samples['repro_serve_shadow_errors_total{model="band"}'] == 0.0


class TestMergedMetrics:
    def test_one_scrape_aggregates_router_and_workers(
        self, client, feature_dicts
    ):
        for i in range(4):
            client.predict(feature_dicts[i], model="point@1")
        samples = client.metrics()
        # Tier shape.
        assert samples["repro_serve_workers"] == 2.0
        assert samples['repro_serve_worker_up{worker="0"}'] == 1.0
        assert samples['repro_serve_worker_up{worker="1"}'] == 1.0
        # Worker-side serving counters and router-side routing counters
        # arrive in the same exposition.
        worker_ok = samples[
            'repro_serve_requests_total{endpoint="/v1/predict",status="200"}'
        ]
        router_ok = samples[
            'repro_router_requests_total{endpoint="/v1/predict",status="200"}'
        ]
        assert worker_ok >= 4.0
        assert router_ok >= 4.0
        assert samples["repro_serve_predictions_total"] >= 4.0

    def test_merged_scrape_conforms(self, client, feature_dicts):
        # Traffic on both names fills the workers' phase and batch
        # histograms and the router's shadow-divergence histogram, so
        # the merge sums labelled histogram series across processes.
        for i in range(4):
            client.predict(feature_dicts[i], model="point")
            client.predict(feature_dicts[i], model="band")
        assert_conformant(client.metrics_text())

    def test_all_versions_of_a_name_share_one_shard(self, client, tier):
        # The canary/shadow versions must batch on the same worker as
        # the primary: the shard key is the bare name.
        assert shard_for("band", 2) == shard_for("band", 2)
        samples = client.metrics()
        band_worker = shard_for("band", 2)
        for version in (1, 2):
            key = f'repro_serve_batcher_backlog{{model="band@{version}"}}'
            if key in samples:  # resident on exactly the shard's worker
                assert tier.workers[band_worker].alive


class TestBackpressurePassthrough:
    def test_429_and_retry_after_cross_the_router(
        self, tier_registry, feature_dicts
    ):
        with ServingTier(
            tier_registry,
            workers=1,
            max_batch=64,
            max_wait_ms=100.0,
            max_backlog=2,
        ) as tight:
            conn = http.client.HTTPConnection(
                "127.0.0.1", tight.port, timeout=30.0
            )
            try:
                conn.request(
                    "POST",
                    "/v1/predict",
                    body=json.dumps(
                        {"model": "point", "instances": feature_dicts[:6]}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 429
                assert response.getheader("Retry-After") == "1"
                assert b"backlog full" in response.read()
            finally:
                conn.close()
        assert tight.worker_exitcodes == [0]


class TestRemoteRegistryTier:
    """A tier whose workers each unpickle their own :class:`HttpBackend`."""

    def test_predictions_health_and_clean_exit(
        self, tmp_path, point_predictor, ensemble, feature_dicts, feature_rows
    ):
        # One name per worker: "pinned" shards to worker 0, "band" to 1.
        assert [shard_for(name, 2) for name in ("pinned", "band")] == [0, 1]
        store = ModelRegistry(tmp_path / "store")
        store.push("pinned", point_predictor)
        store.push("band", ensemble)
        with RegistryServerThread(store) as registry:
            backend = HttpBackend(
                f"http://127.0.0.1:{registry.port}", tmp_path / "cache"
            )
            with ServingTier(backend, workers=2) as tier:
                with PredictionClient("127.0.0.1", tier.port) as client:
                    point = client.predict_batch(
                        feature_dicts[:4], model="pinned"
                    )
                    single = client.predict(feature_dicts[0], model="pinned@1")
                    band = client.predict_batch(
                        feature_dicts[:4], model="band", interval=True
                    )
                    health = client.healthz()
        expected = [float(v) for v in point_predictor.predict_rows(feature_rows[:4])]
        assert point["predictions"] == expected
        assert single["prediction"] == expected[0]
        means, stds = ensemble.predict_rows(feature_rows[:4])
        assert band["predictions"] == [float(v) for v in means]
        assert band["stds"] == [float(v) for v in stds]
        assert [(w["index"], w["status"]) for w in health["workers"]] == [
            (0, "ok"), (1, "ok")
        ]
        assert all(w["models"] == 2 for w in health["workers"])
        assert tier.worker_exitcodes == [0, 0]


class _SlowWorker(HttpServerBase):
    """A worker whose ``/healthz`` takes half a second."""

    metrics_prefix = "slow_worker"

    async def _route(self, request):
        await asyncio.sleep(0.5)
        return 200, "application/json", b'{"status": "ok", "models": 0}'


class TestHealthz:
    def test_workers_are_asked_at_once(self, registry):
        with ExitStack() as stack:
            ports = [
                stack.enter_context(ServerThreadBase(_SlowWorker())).port
                for _ in range(2)
            ]
            router = stack.enter_context(
                ServerThreadBase(RouterServer(ports, registry))
            )
            with PredictionClient("127.0.0.1", router.port) as client:
                started = time.monotonic()
                body = client.healthz()
                elapsed = time.monotonic() - started
        assert body["status"] == "ok"
        assert [w["index"] for w in body["workers"]] == [0, 1]
        assert elapsed < 0.9
