"""Tests for the deterministic process-pool collection scaffolding."""

import numpy as np
import pytest

from repro.harness.parallel import map_scenario_batches, spawn_streams
from repro.machine import XEON_E5649
from repro.sim import SimulationEngine, SolveCache
from repro.workloads.suite import get_application


class _LegacyRng:
    """A generator stand-in whose bit generator cannot spawn children."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def spawn(self, n):
        raise TypeError("underlying bit generator has no seed sequence")

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


class TestSpawnStreams:
    def test_children_keyed_by_index_not_draw_position(self):
        """Drawing from the root must not shift the children."""
        undisturbed = spawn_streams(np.random.default_rng(11), 3)
        root = np.random.default_rng(11)
        root.normal(size=100)  # draws advance state, not the spawn counter
        disturbed = spawn_streams(root, 3)
        for a, b in zip(undisturbed, disturbed):
            assert a.normal() == b.normal()

    def test_children_mutually_independent(self):
        a, b = spawn_streams(np.random.default_rng(0), 2)
        assert a.normal() != b.normal()

    def test_seed_sequence_fallback(self):
        first = spawn_streams(_LegacyRng(3), 2)
        second = spawn_streams(_LegacyRng(3), 2)
        for a, b in zip(first, second):
            assert a.normal() == b.normal()

    def test_validation_and_empty(self):
        assert spawn_streams(np.random.default_rng(0), 0) == []
        with pytest.raises(ValueError, match="negative"):
            spawn_streams(np.random.default_rng(0), -1)


def _solve_payloads(engine, payloads):
    return [
        engine.run(app, (), pstate=pstate).target.execution_time_s
        for app, pstate in payloads
    ]


class TestMapScenarios:
    def payloads(self, engine):
        apps = [get_application(n) for n in ("canneal", "cg", "ep", "sp")]
        return [(app, pstate) for app in apps for pstate in engine.processor.pstates]

    def test_results_in_payload_order(self, engine_6core):
        payloads = self.payloads(engine_6core)
        serial = map_scenario_batches(engine_6core, _solve_payloads, payloads)
        parallel = map_scenario_batches(
            engine_6core, _solve_payloads, payloads, workers=3
        )
        assert serial == parallel

    def test_worker_stats_merged_back(self):
        engine = SimulationEngine(XEON_E5649, cache=SolveCache())
        payloads = self.payloads(engine)
        map_scenario_batches(engine, _solve_payloads, payloads, workers=2)
        assert engine.stats.requests == len(payloads)

    def test_workers_validated(self, engine_6core):
        with pytest.raises(ValueError, match="workers"):
            map_scenario_batches(engine_6core, _solve_payloads, [], workers=0)
