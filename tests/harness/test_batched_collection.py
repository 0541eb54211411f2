"""Batched collection: datasets identical to a per-scenario loop, any workers.

The oracle is the single-scenario fixed point: one ``engine.run`` (or
``hpcrun_flat``) per scenario, drawing noise from the same
``spawn_streams`` child the sweep gave that scenario.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters.hpcrun import hpcrun_flat
from repro.harness.baselines import collect_baselines
from repro.harness.collection import (
    collect_random_training_data,
    collect_training_data,
)
from repro.harness.parallel import map_scenario_batches, spawn_streams
from repro.machine import XEON_E5649
from repro.sim import SimulationEngine, SolveCache
from repro.workloads import get_application

TARGETS = ("canneal", "sp", "ep")
CO_APPS = ("cg", "ep")


def _per_scenario_times(dataset, seed):
    """One ``engine.run`` per observation, with the sweep's noise streams."""
    engine = SimulationEngine(XEON_E5649)
    streams = spawn_streams(np.random.default_rng(seed), len(dataset))
    return [
        engine.run(
            get_application(o.target_name),
            [get_application(o.co_app_name)] * o.num_co_app,
            pstate=engine.processor.pstates.at_frequency(o.frequency_ghz),
            rng=stream,
        ).target.execution_time_s
        for o, stream in zip(dataset.observations, streams)
    ]


def _collect(workers: int = 1):
    engine = SimulationEngine(XEON_E5649, cache=SolveCache())
    dataset = collect_training_data(
        engine,
        targets=[get_application(n) for n in TARGETS],
        co_apps=[get_application(n) for n in CO_APPS],
        counts=(1, 3),
        rng=np.random.default_rng(11),
        workers=workers,
    )
    return engine, dataset


def test_batched_collection_bit_identical_to_serial():
    engine, dataset = _collect()
    batched = [o.actual_time_s for o in dataset.observations]
    # The oracle reads its scenarios back from the dataset, so first check
    # the whole nest is there: 6 P-states x targets x co-apps x 2 counts.
    assert len(batched) == 6 * len(TARGETS) * len(CO_APPS) * 2
    assert _per_scenario_times(dataset, 11) == batched
    assert engine.stats.batches > 0
    assert engine.stats.batched_scenarios >= len(batched)


def test_batched_collection_bit_identical_across_workers():
    _, one = _collect(workers=1)
    _, four = _collect(workers=4)
    assert [o.actual_time_s for o in one.observations] == [
        o.actual_time_s for o in four.observations
    ]


def test_random_collection_bit_identical_batched_vs_serial():
    dataset = collect_random_training_data(
        SimulationEngine(XEON_E5649, cache=SolveCache()),
        30,
        targets=[get_application(n) for n in TARGETS],
        co_apps=[get_application(n) for n in CO_APPS],
        rng=np.random.default_rng(7),
    )
    assert _per_scenario_times(dataset, 7) == [
        o.actual_time_s for o in dataset.observations
    ]


def test_baselines_bit_identical_batched_vs_serial():
    engine = SimulationEngine(XEON_E5649)
    apps = [get_application(n) for n in ("cg", "canneal", "ep")]
    batched = collect_baselines(engine, apps, rng=np.random.default_rng(5))
    pairs = [(app, pstate) for app in apps for pstate in engine.processor.pstates]
    streams = spawn_streams(np.random.default_rng(5), len(pairs))
    for (app, pstate), stream in zip(pairs, streams):
        profile = hpcrun_flat(engine, app, pstate=pstate, rng=stream)
        other = batched.get(app.name, pstate.frequency_ghz)
        assert profile.wall_time_s == other.wall_time_s
        assert profile.counts == other.counts
    assert len(batched.profiles) == len(pairs)


def test_warm_cache_collection_does_zero_solves():
    """A cache-warm second collection is pure lookups: no fixed point runs."""
    engine = SimulationEngine(XEON_E5649, cache=SolveCache())
    kwargs = dict(
        targets=[get_application(n) for n in TARGETS],
        co_apps=[get_application(n) for n in CO_APPS],
        counts=(1, 3),
    )
    first = collect_training_data(
        engine, rng=np.random.default_rng(11), **kwargs
    )
    solves = engine.stats.solves
    iteration_counts = dict(engine.stats.iteration_counts)
    second = collect_training_data(
        engine, rng=np.random.default_rng(11), **kwargs
    )
    assert engine.stats.solves == solves
    assert engine.stats.iteration_counts == iteration_counts
    times_first = [o.actual_time_s for o in first.observations]
    times_second = [o.actual_time_s for o in second.observations]
    assert times_first == times_second


def test_map_scenario_batches_orders_and_chunks():
    engine = SimulationEngine(XEON_E5649)

    def double_all(_engine, payloads):
        return [2 * p for p in payloads]

    payloads = list(range(23))
    assert map_scenario_batches(engine, double_all, payloads) == [
        2 * p for p in payloads
    ]
    assert map_scenario_batches(engine, double_all, []) == []
    with pytest.raises(ValueError, match="workers"):
        map_scenario_batches(engine, double_all, payloads, workers=0)
