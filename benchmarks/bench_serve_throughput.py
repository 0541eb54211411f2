"""Microbenchmark — serving throughput: micro-batching and the worker tier.

Not a paper artifact; guards the properties the serving layer exists for.
``test_micro_batching_speedup``: a resource manager fanning placement
queries at the service must see coalescing pay off.  Closed-loop worker
threads drive two identically configured servers — one with coalescing
disabled (``max_batch=1``), one micro-batched — and the batched server
must sustain at least 3x the request rate while serving bit-identical
predictions (checked separately in ``tests/serve``).
``test_worker_tier_scaling``: the multi-process tier (router + 4 shard
workers) must scale request throughput ≥2x over one process while every
prediction stays bit-identical and the shadow-divergence histogram shows
up in the router's single merged ``/metrics`` scrape.

Both tests append their numbers to ``results/BENCH_serve.json``.

Set ``REPRO_SMOKE=1`` for the reduced configuration used by
``make bench-smoke`` (fewer workers and requests; the speedup floor drops
to 1.8x because tiny runs are noisy).
"""

import concurrent.futures
import os
import threading
import time

from repro.core.ensemble import EnsemblePredictor
from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind
from repro.registry import ModelRegistry
from repro.serve.client import PredictionClient
from repro.serve.router import ServingTier, parse_shadow
from repro.serve.server import ServerThread

_SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

N_WORKERS = 8 if _SMOKE else 16
REQUESTS_PER_WORKER = 30 if _SMOKE else 80
MIN_SPEEDUP = 1.8 if _SMOKE else 3.0
N_MEMBERS = 128  # per-request model work must dominate transport cost

TIER_WORKERS = 4
#: ``colo-0``..``colo-7`` rendezvous-hash onto all four shards, so the
#: tier's scaling headroom is real, not one hot worker.
MODEL_NAMES = tuple(f"colo-{i}" for i in range(8))
SHADOWED = "colo-5"  # carries two versions; bare requests are shadowed
MIN_TIER_SPEEDUP = 2.0
#: Four worker processes cannot beat one on fewer than four cores; the
#: floor is only asserted where the hardware can express it.
MULTI_CORE = (os.cpu_count() or 1) >= TIER_WORKERS


def _percentile(sorted_values, p):
    idx = max(0, min(len(sorted_values) - 1, round(p / 100 * len(sorted_values)) - 1))
    return sorted_values[idx]


def _drive(registry, feature_dicts, *, max_batch):
    """Closed-loop load: N_WORKERS threads, each sending its requests
    back-to-back. Returns (req_per_s, latencies_s, metrics_samples)."""
    with ServerThread(
        registry, max_batch=max_batch, max_wait_ms=4.0
    ) as handle:
        barrier = threading.Barrier(N_WORKERS + 1)
        all_latencies = [None] * N_WORKERS

        def worker(w):
            latencies = []
            with PredictionClient("127.0.0.1", handle.port) as client:
                barrier.wait(timeout=30)
                for i in range(REQUESTS_PER_WORKER):
                    row = feature_dicts[(w + i) % len(feature_dicts)]
                    t0 = time.perf_counter()
                    client.predict(row, model="band")
                    latencies.append(time.perf_counter() - t0)
            all_latencies[w] = latencies

        with concurrent.futures.ThreadPoolExecutor(N_WORKERS) as pool:
            futures = [pool.submit(worker, w) for w in range(N_WORKERS)]
            barrier.wait(timeout=30)
            start = time.perf_counter()
            for f in futures:
                f.result(timeout=120)
            elapsed = time.perf_counter() - start

        with PredictionClient("127.0.0.1", handle.port) as client:
            samples = client.metrics()

    total = N_WORKERS * REQUESTS_PER_WORKER
    latencies = sorted(v for per_worker in all_latencies for v in per_worker)
    return total / elapsed, latencies, samples


def test_micro_batching_speedup(ctx, record, benchmark):
    dataset = list(ctx.dataset("e5649"))
    ensemble = EnsemblePredictor(
        ModelKind.LINEAR, FeatureSet.F, n_members=N_MEMBERS, seed=7
    ).fit(dataset)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.push("band", ensemble)
        names = [f.value for f in FeatureSet.F.features]
        feature_dicts = [
            {
                name: obs.feature_value(feature)
                for name, feature in zip(names, FeatureSet.F.features)
            }
            for obs in dataset[:64]
        ]

        serial_rps, serial_lat, serial_samples = _drive(
            registry, feature_dicts, max_batch=1
        )
        batched_rps, batched_lat, batched_samples = benchmark.pedantic(
            lambda: _drive(registry, feature_dicts, max_batch=N_WORKERS),
            rounds=1,
            iterations=1,
        )

    total = N_WORKERS * REQUESTS_PER_WORKER

    # /metrics must agree exactly with the client-side request count.
    for samples in (serial_samples, batched_samples):
        key = 'repro_serve_requests_total{endpoint="/v1/predict",status="200"}'
        assert samples[key] == total
        assert samples["repro_serve_predictions_total"] == total
        assert samples["repro_serve_request_latency_seconds_count"] == total
        assert samples["repro_serve_batch_size_sum"] == float(total)

    # Coalescing disabled -> every flush carried exactly one row.
    assert serial_samples["repro_serve_batch_size_count"] == total
    # Coalescing enabled -> flushes carried several rows each.
    batched_flushes = batched_samples["repro_serve_batch_size_count"]
    assert batched_flushes < total / 2, (
        f"batching barely coalesced: {batched_flushes} flushes for {total} rows"
    )

    speedup = batched_rps / serial_rps
    print(
        f"\nserial   {serial_rps:8.0f} req/s  "
        f"p50 {_percentile(serial_lat, 50) * 1e3:6.2f} ms  "
        f"p99 {_percentile(serial_lat, 99) * 1e3:6.2f} ms\n"
        f"batched  {batched_rps:8.0f} req/s  "
        f"p50 {_percentile(batched_lat, 50) * 1e3:6.2f} ms  "
        f"p99 {_percentile(batched_lat, 99) * 1e3:6.2f} ms\n"
        f"speedup  {speedup:.2f}x  "
        f"(mean batch {total / batched_flushes:.1f} rows/flush)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batching speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x floor ({serial_rps:.0f} -> {batched_rps:.0f} req/s)"
    )
    record(
        "BENCH_serve.json",
        serial_rps=serial_rps,
        batched_rps=batched_rps,
        batching_speedup=speedup,
    )


def _drive_port(port, feature_dicts):
    """Closed-loop load against any serving port (single server or tier).

    Each of N_WORKERS threads round-robins over MODEL_NAMES and feature
    rows in lockstep, so both serving paths see the identical request
    stream.  Returns (req_per_s, {(model_idx, row_idx): prediction}).
    """
    barrier = threading.Barrier(N_WORKERS + 1)
    per_thread: list[dict | None] = [None] * N_WORKERS

    def worker(w):
        seen = {}
        with PredictionClient("127.0.0.1", port, timeout=60.0) as client:
            barrier.wait(timeout=30)
            for i in range(REQUESTS_PER_WORKER):
                turn = w + i
                model_idx = turn % len(MODEL_NAMES)
                row_idx = turn % len(feature_dicts)
                body = client.predict(
                    feature_dicts[row_idx], model=MODEL_NAMES[model_idx]
                )
                seen[(model_idx, row_idx)] = body["prediction"]
        per_thread[w] = seen

    with concurrent.futures.ThreadPoolExecutor(N_WORKERS) as pool:
        futures = [pool.submit(worker, w) for w in range(N_WORKERS)]
        barrier.wait(timeout=30)
        start = time.perf_counter()
        for f in futures:
            f.result(timeout=300)
        elapsed = time.perf_counter() - start

    predictions: dict = {}
    for seen in per_thread:
        for key, value in seen.items():
            assert predictions.setdefault(key, value) == value, (
                f"same (model, row) produced two different predictions: {key}"
            )
    return (N_WORKERS * REQUESTS_PER_WORKER) / elapsed, predictions


def test_worker_tier_scaling(ctx, record, benchmark):
    dataset = list(ctx.dataset("e5649"))
    primary = EnsemblePredictor(
        ModelKind.LINEAR, FeatureSet.F, n_members=N_MEMBERS, seed=7
    ).fit(dataset)
    # A genuinely different model (other bootstrap seed) so the shadow
    # comparison has real divergence to measure.
    shadow_version = EnsemblePredictor(
        ModelKind.LINEAR, FeatureSet.F, n_members=N_MEMBERS, seed=11
    ).fit(dataset)
    names = [f.value for f in FeatureSet.F.features]
    feature_dicts = [
        {
            name: obs.feature_value(feature)
            for name, feature in zip(names, FeatureSet.F.features)
        }
        for obs in dataset[:64]
    ]

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.push(SHADOWED, shadow_version)  # colo-5@1, the shadow
        for model_name in MODEL_NAMES:
            registry.push(model_name, primary)  # latest everywhere
        # max_batch=1 on both paths: BLAS results differ in the last ulp
        # with the shape of the matrix they were computed in, so predict
        # batches must have identical composition for the bit-identity
        # check.  One row per flush guarantees that; the tier's speedup
        # comes from process parallelism, not coalescing.
        with ServerThread(
            registry, max_batch=1, max_wait_ms=4.0
        ) as handle:
            single_rps, single_predictions = _drive_port(
                handle.port, feature_dicts
            )
        with ServingTier(
            registry,
            workers=TIER_WORKERS,
            shadow=(parse_shadow(f"{SHADOWED}@1"),),
            max_batch=1,
            max_wait_ms=4.0,
        ) as tier:
            tier_rps, tier_predictions = benchmark.pedantic(
                lambda: _drive_port(tier.port, feature_dicts),
                rounds=1,
                iterations=1,
            )
            with PredictionClient("127.0.0.1", tier.port) as client:
                samples = client.metrics()
        assert tier.worker_exitcodes == [0] * TIER_WORKERS

    # Sharded multi-process serving must not change a single bit of any
    # prediction relative to the one-process server.
    assert tier_predictions == single_predictions

    total = N_WORKERS * REQUESTS_PER_WORKER
    # One merged scrape covers the whole tier: shape, per-worker liveness,
    # router counters, and the shadow-divergence histogram.
    assert samples["repro_serve_workers"] == float(TIER_WORKERS)
    for w in range(TIER_WORKERS):
        assert samples[f'repro_serve_worker_up{{worker="{w}"}}'] == 1.0
    key = 'repro_router_requests_total{endpoint="/v1/predict",status="200"}'
    assert samples[key] == float(total)
    divergence_count = samples[
        f'repro_serve_shadow_divergence_count{{model="{SHADOWED}"}}'
    ]
    assert divergence_count > 0
    assert (
        samples[f'repro_serve_shadow_divergence_sum{{model="{SHADOWED}"}}']
        > 0.0
    )

    speedup = tier_rps / single_rps
    print(
        f"\nsingle   {single_rps:8.0f} req/s\n"
        f"tier     {tier_rps:8.0f} req/s  ({TIER_WORKERS} workers)\n"
        f"speedup  {speedup:.2f}x  "
        f"(shadow divergence observations: {divergence_count:.0f})"
    )
    record(
        "BENCH_serve.json",
        single_process_rps=single_rps,
        tier_rps=tier_rps,
        tier_workers=TIER_WORKERS,
        tier_speedup=speedup,
        shadow_divergence_count=divergence_count,
    )
    if MULTI_CORE:
        assert speedup >= MIN_TIER_SPEEDUP, (
            f"worker-tier speedup {speedup:.2f}x below the "
            f"{MIN_TIER_SPEEDUP}x floor on {TIER_WORKERS} workers "
            f"({single_rps:.0f} -> {tier_rps:.0f} req/s)"
        )
    else:
        print(
            f"only {os.cpu_count()} cpu(s): speedup floor not asserted "
            f"(bit-identity still checked)"
        )
