"""One order-preserving process pool for every fan-out in the package.

Collection sweeps (:func:`repro.harness.parallel.map_scenario_batches`),
the validation protocols (:mod:`repro.core.validation`) and ensemble
member fits (:class:`repro.core.ensemble.EnsemblePredictor`) all cut
independent work into chunks with :func:`split_chunks` and run them with
:func:`map_chunks`.  Two rules keep ``workers=N`` bit-identical to
``workers=1``:

* **Per-item RNGs.**  :func:`spawn_streams` derives one child generator per
  scenario, repetition or member from the caller's root generator via
  ``np.random.SeedSequence`` spawning, keyed by index.  Draws therefore
  depend only on *which* item runs, never on how many ran before it or on
  which process runs it.
* **Order-preserving results.**  :func:`map_chunks` returns one result per
  chunk, in chunk order, whatever order the workers finish in, so callers
  merge results and counters in the same order as a serial run.

Each worker receives ``fn`` and a pickled copy of ``shared`` (an engine
with any warm cache, or a dataset and model recipe) once, through the pool
initializer.  Whatever a chunk records in process-wide state inside a
worker dies with the worker, so chunk functions return what their caller
must merge.  When the caller's tracer is recording, each pooled chunk runs
under one ``pool.chunk`` span parented, across the process boundary, to
the caller's current span; the chunk's spans ride home with its result, or
go straight to the caller's collector when the caller streams.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .obs.stream import SpanSender, StreamingTracer
from .obs.trace import Tracer, current_span, get_tracer, set_tracer

__all__ = ["CHUNKS_PER_WORKER", "map_chunks", "spawn_streams", "split_chunks"]

#: Chunks per worker process: enough that one slow chunk does not leave
#: the other workers idle at the end of a map, few enough that the
#: per-chunk cost (pickling, one span) stays small.
CHUNKS_PER_WORKER = 4


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


def split_chunks(items: Sequence, workers: int) -> list[list]:
    """``items`` cut into contiguous chunks for :func:`map_chunks`.

    One worker gets a single chunk holding every item; ``workers=N`` gets
    at most ``N * CHUNKS_PER_WORKER`` chunks of near-equal size.  A caller
    holding more than one chunk therefore knows they run in worker
    processes.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    if not items:
        return []
    n_chunks = 1 if workers == 1 else min(len(items), workers * CHUNKS_PER_WORKER)
    size = -(-len(items) // n_chunks)
    return [items[start : start + size] for start in range(0, len(items), size)]


def map_chunks(fn: Callable, shared, chunks: Sequence, *, workers: int) -> list:
    """``[fn(shared, chunk) for chunk in chunks]``, spread over processes.

    ``workers=1``, or at most one chunk, runs inline in this process on
    ``shared`` itself.  Otherwise a pool of ``min(workers, len(chunks))``
    processes runs the chunks and the results come back in chunk order.
    ``fn`` must be a module-level (picklable) function.
    """
    chunks = list(chunks)
    if workers == 1 or len(chunks) <= 1:
        return [fn(shared, chunk) for chunk in chunks]
    tracer = get_tracer()
    trace = None
    if tracer.enabled:
        endpoint = (
            tracer.sender.endpoint if isinstance(tracer, StreamingTracer) else None
        )
        trace = (f"{tracer.service}-worker", endpoint)
    parent = current_span()
    context = (parent.trace_id, parent.span_id) if parent is not None else ("", None)
    results = []
    # The platform's default start method (fork on Linux): a spawned
    # worker re-imports numpy and the package, which costs more than the
    # work of a small map, and ``evaluate_models`` maps once per model.
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker,
        initargs=(fn, shared, context, trace),
    ) as pool:
        for value, spans in pool.map(_run_chunk, chunks):
            if spans:
                tracer.ingest(spans)
            results.append(value)
    return results


#: Worker-process state, set once per worker by the pool initializer:
#: ``(fn, shared, (trace_id, parent_span_id))``.
_WORKER: tuple | None = None


def _init_worker(fn: Callable, shared, context: tuple, trace: tuple | None) -> None:
    """Install the map's function and state, and a tracer if the caller traces.

    A recording caller gets recording workers under the ``<service>-worker``
    service: streaming ones when the caller streams to a collector (they
    send to the same endpoint), buffering ones otherwise.  The fresh tracer
    also drops any spans a forked worker inherited from the caller's.
    """
    global _WORKER
    _WORKER = (fn, shared, context)
    if trace is None:
        return
    service, endpoint = trace
    if endpoint is None:
        set_tracer(Tracer(service=service))
    else:
        set_tracer(
            StreamingTracer(
                SpanSender(endpoint, resource={"service": service, "pid": os.getpid()})
            )
        )


def _run_chunk(chunk):
    fn, shared, (trace_id, parent_id) = _WORKER
    tracer = get_tracer()
    with tracer.child_span(
        "pool.chunk",
        trace_id=trace_id,
        parent_id=parent_id,
        tasks=len(chunk),
        pid=os.getpid(),
    ):
        value = fn(shared, chunk)
    return value, _drain_spans(tracer)


def _drain_spans(tracer) -> list[dict] | None:
    """Serialize and clear this worker's recorded spans for the caller.

    Streaming workers return ``None``: their spans already went to the
    collector, and shipping them twice would duplicate every span.
    """
    if not tracer.enabled:
        return None
    if isinstance(tracer, StreamingTracer):
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
