"""Deterministic process-pool scaffolding for bulk collection.

The Table V loop nest is thousands of *independent* scenarios, so the
collection functions fan them out across worker processes.  Two rules keep
parallel collection bit-identical to serial collection:

* **Per-scenario RNGs.**  :func:`spawn_streams` derives one child
  generator per scenario from the caller's root generator via
  ``np.random.SeedSequence`` spawning, keyed by scenario index.  Noise
  draws therefore depend only on *which* scenario is run, never on how
  many scenarios ran before it or on which process runs it.
* **Order-preserving results.**  :func:`map_scenario_batches` returns
  results in payload order regardless of completion order, and merges
  every worker's :class:`~repro.sim.solve_cache.EngineStats` back into the
  calling engine's stats so observability survives the fan-out.

Worker processes receive a pickled copy of the engine (including any
warm :class:`~repro.sim.solve_cache.SolveCache`); caches populated inside
workers are process-local and are not copied back — only their hit/miss
accounting is.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..obs.trace import Tracer, get_tracer, set_tracer
from ..sim.engine import SimulationEngine
from ..sim.solve_cache import GLOBAL_ENGINE_STATS, EngineStats

__all__ = ["map_scenario_batches", "spawn_streams"]


def spawn_streams(
    rng: np.random.Generator, n: int
) -> list[np.random.Generator]:
    """``n`` independent child generators derived from ``rng``.

    Children come from the generator's underlying ``SeedSequence`` (its
    spawn counter, not its draw position), so the i-th child is the same
    whether or not any values were drawn from ``rng`` in between — the
    property that makes noise draws independent of loop order.  Falls back
    to seeding a fresh ``SeedSequence`` from one draw for generators whose
    bit generator was built without a seed sequence.
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of streams")
    if n == 0:
        return []
    try:
        return list(rng.spawn(n))
    except TypeError:
        root = np.random.SeedSequence(int(rng.integers(2**63)))
        return [np.random.default_rng(child) for child in root.spawn(n)]


_WORKER_ENGINE: SimulationEngine | None = None
_WORKER_STREAMING = False


def _trace_spec(tracer) -> dict | None:
    """How workers should trace, derived from the caller's tracer.

    ``None`` (tracing off) keeps workers on the free :class:`NullTracer`
    path.  A recording tracer makes workers record too; when the caller
    is *streaming* to a collector, workers open their own senders to the
    same endpoint, otherwise their spans ride back with each chunk's
    results and are ingested into the caller's ring buffer — either way,
    parallel sweeps no longer drop worker spans.
    """
    if not tracer.enabled:
        return None
    spec: dict = {"service": f"{tracer.service}-worker"}
    sender = getattr(tracer, "sender", None)
    if sender is not None:
        spec["stream"] = sender.endpoint
    return spec


def _init_worker(engine: SimulationEngine, trace_spec: dict | None = None) -> None:
    global _WORKER_ENGINE, _WORKER_STREAMING
    _WORKER_ENGINE = engine
    _WORKER_STREAMING = False
    if trace_spec:
        service = str(trace_spec.get("service", "repro-worker"))
        endpoint = trace_spec.get("stream")
        if endpoint:
            from ..obs.stream import SpanSender, StreamingTracer

            set_tracer(
                StreamingTracer(
                    SpanSender(
                        endpoint,
                        resource={"service": service, "pid": os.getpid()},
                    )
                )
            )
            _WORKER_STREAMING = True
        else:
            set_tracer(Tracer(service=service))


def _drain_worker_spans() -> list[dict] | None:
    """Serialize and clear this worker's recorded spans for the parent.

    Streaming workers return ``None`` — their spans already went to the
    collector, and shipping them twice would duplicate every span.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    if _WORKER_STREAMING:
        # Push the chunk's spans through now: the pool may tear this
        # process down right after the result returns, and the sender's
        # daemon thread would die holding the tail batch.
        tracer.flush()
        return None
    resource = {"service": tracer.service, "pid": os.getpid()}
    records = []
    for span in tracer.spans():
        record = tracer.serialize(span)
        record.setdefault("resource", resource)
        records.append(record)
    tracer.reset()
    return records


def _run_batch_chunk(task):
    batch_func, chunk, parent_ctx = task
    engine = _WORKER_ENGINE
    assert engine is not None, "worker pool used before initialization"
    stats = EngineStats()
    previous, engine.stats = engine.stats, stats
    tracer = get_tracer()
    try:
        with tracer.child_span(
            "harness.worker_chunk",
            trace_id=parent_ctx[0],
            parent_id=parent_ctx[1],
            scenarios=len(chunk),
            pid=os.getpid(),
        ):
            indices = [index for index, _ in chunk]
            values = batch_func(engine, [payload for _, payload in chunk])
            results = list(zip(indices, values))
    finally:
        engine.stats = previous
        previous.merge(stats)
    return results, stats, _drain_worker_spans()


def map_scenario_batches(
    engine: SimulationEngine,
    batch_func: Callable,
    payloads: Sequence,
    *,
    workers: int = 1,
    chunks_per_worker: int = 4,
):
    """Evaluate ``batch_func(engine, payload_list)`` over whole sub-batches.

    ``workers=1`` (the default) hands *all* payloads to one ``batch_func``
    call on the calling engine.  With ``workers > 1`` the payloads are
    chunked across a process pool; each worker gets a pickled copy of
    ``engine`` once, solves each of its chunks with one ``batch_func``
    call, and its stats are merged back into ``engine.stats``.
    ``batch_func`` must be a module-level (picklable) function that
    returns one result per payload, in payload order, and must not depend
    on how payloads are grouped — which the stacked steady-state solver
    guarantees (each scenario's trajectory is independent and noise comes
    from per-scenario RNGs), so serial and parallel collection produce
    bit-identical results.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payloads = list(payloads)
    tracer = get_tracer()
    if workers == 1 or len(payloads) <= 1:
        with tracer.span(
            "harness.map_scenario_batches", payloads=len(payloads), workers=1
        ):
            return list(batch_func(engine, payloads)) if payloads else []
    indexed = list(enumerate(payloads))
    n_chunks = min(len(indexed), workers * chunks_per_worker)
    chunk_size = -(-len(indexed) // n_chunks)
    chunks = [
        indexed[start : start + chunk_size]
        for start in range(0, len(indexed), chunk_size)
    ]
    results: list = [None] * len(payloads)
    with tracer.span(
        "harness.map_scenario_batches",
        payloads=len(payloads),
        workers=workers,
        chunks=len(chunks),
    ) as map_span:
        parent_ctx = (map_span.trace_id, map_span.span_id)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(engine, _trace_spec(tracer)),
        ) as pool:
            for chunk_results, stats, spans in pool.map(
                _run_batch_chunk,
                [(batch_func, chunk, parent_ctx) for chunk in chunks],
            ):
                engine.stats.merge(stats)
                # Worker processes fed their *own* global aggregate, which
                # dies with the worker — fold the chunk's counters into the
                # caller's process-wide record here instead.
                GLOBAL_ENGINE_STATS.merge(stats)
                # Same for spans: each chunk brings its worker-side spans
                # home (unless the workers streamed them to a collector).
                if spans:
                    tracer.ingest(spans)
                for index, value in chunk_results:
                    results[index] = value
    return results
