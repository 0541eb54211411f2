"""Microbenchmark — the distributed registry round trip.

Not a paper artifact; guards the properties the registry subsystem
exists for:

* **push -> pull -> serve works end to end**: an artifact pushed over
  HTTP is pulled by a second box (the :class:`HttpBackend`) and served
  with predictions bit-identical to a local load;
* **the content-addressed cache actually short-circuits**: a repeat
  ``get()`` of a pinned, cached version performs **zero** HTTP requests
  (asserted via the backend's ``http_requests`` counter — this is the
  property that lets a serving fleet survive registry outages);
* the cold pull and warm get latencies are reported, and each run
  appends a point to ``results/BENCH_registry.json`` so the numbers form
  a trajectory across sessions (uploaded as a CI artifact).

Set ``REPRO_SMOKE=1`` for the reduced configuration used by
``make bench-smoke`` (a smaller ensemble; the asserted properties are
identical).
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.ensemble import EnsemblePredictor
from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind
from repro.core.persistence import artifact_to_dict
from repro.registry import HttpBackend, ModelRegistry, RegistryServerThread

_SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

N_MEMBERS = 16 if _SMOKE else 128  # payload size: ~artifact bytes on the wire
N_WARM_GETS = 50 if _SMOKE else 200


def test_registry_roundtrip(ctx, record, benchmark):
    dataset = list(ctx.dataset("e5649"))
    ensemble = EnsemblePredictor(
        ModelKind.LINEAR, FeatureSet.F, n_members=N_MEMBERS, seed=7
    ).fit(dataset)
    rows = np.array(
        [
            [obs.feature_value(f) for f in FeatureSet.F.features]
            for obs in dataset[:32]
        ]
    )
    expected_means, expected_stds = ensemble.predict_rows(rows)

    with tempfile.TemporaryDirectory() as tmp:
        store = ModelRegistry(Path(tmp) / "store")
        with RegistryServerThread(store, token="bench") as handle:
            remote = HttpBackend(
                f"http://127.0.0.1:{handle.port}",
                Path(tmp) / "cache",
                token="bench",
            )

            # --- push over HTTP
            push_started = time.perf_counter()
            manifest = remote.push("band", ensemble)
            push_s = time.perf_counter() - push_started
            assert manifest.ref == "band@1"

            # --- cold pull: manifest + blob travel once
            pull_started = time.perf_counter()
            artifact, pulled = remote.get("band@1")
            cold_pull_s = time.perf_counter() - pull_started
            requests_after_cold = remote.http_requests

            # The pulled artifact serves bit-identical predictions.
            means, stds = artifact.predict_rows(rows)
            np.testing.assert_array_equal(means, expected_means)
            np.testing.assert_array_equal(stds, expected_stds)
            assert artifact_to_dict(artifact) == artifact_to_dict(ensemble)

            # --- warm gets: the content-addressed cache short-circuits
            warm = benchmark.pedantic(
                lambda: [remote.get("band@1") for _ in range(N_WARM_GETS)],
                rounds=1,
                iterations=1,
            )
            warm_get_s = None
            started = time.perf_counter()
            for _ in range(N_WARM_GETS):
                artifact, _manifest = remote.get("band@1")
            warm_get_s = (time.perf_counter() - started) / N_WARM_GETS
            assert len(warm) == N_WARM_GETS

            assert remote.http_requests == requests_after_cold, (
                f"cached get() went to the network: "
                f"{remote.http_requests - requests_after_cold} extra "
                f"request(s) after the cold pull"
            )

        # --- and the registry server is gone now: cache still serves
        artifact, _manifest = remote.get("band@1")
        assert remote.http_requests == requests_after_cold
        means, _stds = artifact.predict_rows(rows)
        np.testing.assert_array_equal(means, expected_means)

    print(
        f"\npush     {push_s * 1e3:7.2f} ms ({N_MEMBERS} members)\n"
        f"cold pull {cold_pull_s * 1e3:6.2f} ms "
        f"({requests_after_cold} HTTP request(s) total)\n"
        f"warm get {warm_get_s * 1e6:7.1f} us (0 HTTP requests)"
    )
    record(
        "BENCH_registry.json",
        registry_members=N_MEMBERS,
        registry_push_ms=round(push_s * 1e3, 3),
        registry_cold_pull_ms=round(cold_pull_s * 1e3, 3),
        registry_warm_get_us=round(warm_get_s * 1e6, 2),
        registry_warm_http_requests=0,
        smoke=_SMOKE,
    )
