"""Tests for the deterministic process-pool collection scaffolding."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _states(generators):
    return [g.bit_generator.state for g in generators]


_ENTROPY = st.integers(0, 2**128 - 1)


class TestSpawnStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        entropy=st.one_of(_ENTROPY, st.lists(_ENTROPY, min_size=1, max_size=6)),
        spawned_first=st.integers(0, 5),
        n=st.integers(0, 300),
        draws=st.integers(0, 3),
    )
    def test_equals_numpy_spawn(self, entropy, spawned_first, n, draws):
        """Children, grandchildren and the root's counter equal numpy's own."""
        root, twin = np.random.default_rng(entropy), np.random.default_rng(entropy)
        for rng in (root, twin):
            rng.spawn(spawned_first)
            rng.normal(size=draws)
        drawn = root.bit_generator.state
        children, expected = spawn_streams(root, n), twin.spawn(n)
        assert root.bit_generator.state == drawn
        assert _states(children) == _states(expected)
        for child, reference in zip(children, expected):
            assert child.normal(size=3).tolist() == reference.normal(size=3).tolist()
            assert _states(child.spawn(3)) == _states(reference.spawn(3))
        assert _states(spawn_streams(root, 4)) == _states(twin.spawn(4))
        assert root.normal() == twin.normal()
        if n:
            child, reference = children[-1], expected[-1]
            thawed = pickle.loads(pickle.dumps(child))
            assert thawed.normal(size=3).tolist() == reference.normal(size=3).tolist()
            grandchildren = _states(reference.spawn(5))
            assert _states(spawn_streams(child, 5)) == grandchildren
            assert _states(thawed.spawn(5)) == grandchildren

    @pytest.mark.parametrize(
        "make", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_other_bit_generators_spawn_as_numpy(self, make):
        def draws(generators):
            return [g.integers(2**63, size=4).tolist() for g in generators]

        root, twin = np.random.Generator(make(5)), np.random.Generator(make(5))
        assert draws(spawn_streams(root, 6)) == draws(twin.spawn(6))
        assert draws(spawn_streams(root, 2)) == draws(twin.spawn(2))

    def test_unreadable_entropy_spawns_as_numpy(self):
        """Entropy numpy accepts but the one-pass path does not read."""
        for entropy in ([[1, 2], 3], np.arange(5, dtype=np.uint32)):
            root = np.random.default_rng(np.random.SeedSequence(entropy))
            twin = np.random.default_rng(np.random.SeedSequence(entropy))
            assert _states(spawn_streams(root, 3)) == _states(twin.spawn(3))

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
        seeded = np.random.SeedSequence(int(np.random.default_rng(3).integers(2**63)))
        assert _states(first) == _states(
            np.random.default_rng(child) for child in seeded.spawn(2)
        )
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
