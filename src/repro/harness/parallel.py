"""Process-parallel bulk collection over the package's one pool.

The Table V loop nest is thousands of *independent* scenarios, so the
collection functions fan them out with :func:`repro.parallel.map_chunks`.
Noise comes from per-scenario :func:`~repro.parallel.spawn_streams`
children and results come back in payload order, so parallel collection
is bit-identical to serial collection.

Worker processes receive a pickled copy of the engine (including any
warm :class:`~repro.sim.solve_cache.SolveCache`); caches populated inside
workers are process-local and are not copied back — only their hit/miss
accounting is.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..obs.trace import get_tracer
from ..parallel import map_chunks, spawn_streams, split_chunks
from ..sim.engine import SimulationEngine
from ..sim.solve_cache import GLOBAL_ENGINE_STATS, EngineStats

__all__ = ["map_scenario_batches", "spawn_streams"]


def _solve_chunk(shared, payloads):
    """One ``batch_func`` call, also counted in its own :class:`EngineStats`."""
    engine, batch_func = shared
    stats = EngineStats()
    previous, engine.stats = engine.stats, stats
    try:
        values = batch_func(engine, payloads)
    finally:
        engine.stats = previous
        previous.merge(stats)
    return values, stats


def map_scenario_batches(
    engine: SimulationEngine,
    batch_func: Callable,
    payloads: Sequence,
    *,
    workers: int = 1,
):
    """Evaluate ``batch_func(engine, payload_list)`` over whole sub-batches.

    ``workers=1`` (the default) hands *all* payloads to one ``batch_func``
    call on the calling engine.  With ``workers > 1`` the payloads are
    chunked across a process pool; each worker gets a pickled copy of
    ``engine`` once and solves each of its chunks with one ``batch_func``
    call, and its stats are merged back into ``engine.stats`` in chunk
    order.  ``batch_func`` must be a module-level (picklable) function that
    returns one result per payload, in payload order, and must not depend
    on how payloads are grouped — which the stacked steady-state solver
    guarantees (each scenario's trajectory is independent and noise comes
    from per-scenario RNGs), so serial and parallel collection produce
    bit-identical results.
    """
    chunks = split_chunks(payloads, workers)
    with get_tracer().span(
        "harness.map_scenario_batches",
        payloads=len(payloads),
        workers=workers,
        chunks=len(chunks),
    ):
        parts = map_chunks(_solve_chunk, (engine, batch_func), chunks, workers=workers)
    results: list = []
    for values, stats in parts:
        results.extend(values)
        if len(chunks) > 1:
            # The worker counted into its own copy of the engine and its
            # own process-wide record, both of which died with it.
            engine.stats.merge(stats)
            GLOBAL_ENGINE_STATS.merge(stats)
    return results
