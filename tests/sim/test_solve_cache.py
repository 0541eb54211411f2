"""Tests for steady-state solve memoization and engine observability."""

from dataclasses import replace

import numpy as np
import pytest

from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.obs import samples_text
from repro.sim.engine import ConvergenceError, SimulationEngine
from repro.sim.solve_cache import EngineStats, SolveCache, app_signature, solve_key
from repro.workloads.suite import get_application


@pytest.fixture
def cached_engine():
    return SimulationEngine(XEON_E5649, cache=SolveCache())


def _reference_signature(app):
    """The signature formula, recomputed on every call (the memo's oracle)."""
    return (
        float(app.base_cpi),
        float(app.accesses_per_instruction),
        float(app.mlp),
        float(app.reuse.compulsory),
        tuple(
            (float(c.working_set_bytes), float(c.weight), float(c.sharpness))
            for c in app.reuse.components
        ),
    )


class TestAppSignature:
    def test_identity_free(self):
        """Name, suite, and run length do not enter the rate computation."""
        canneal = get_application("canneal")
        assert app_signature(canneal) == app_signature(canneal.scaled(2.0))

    def test_distinguishes_behaviour(self):
        assert app_signature(get_application("canneal")) != app_signature(
            get_application("cg")
        )

    def test_memo_equals_the_formula_and_is_kept(self):
        for name in ("canneal", "cg", "ep"):
            app = get_application(name)
            first = app_signature(app)
            assert first == _reference_signature(app)
            assert app_signature(app) is first  # computed once per object

    def test_changed_copies_never_see_a_stale_memo(self):
        canneal = get_application("canneal")
        app_signature(canneal)  # memoize on the original first
        assert app_signature(canneal.scaled(2.0)) == app_signature(canneal)
        faster = replace(canneal, base_cpi=canneal.base_cpi * 0.5)
        assert app_signature(faster) != app_signature(canneal)
        assert app_signature(faster) == _reference_signature(faster)

    def test_memo_leaves_equality_and_hash_alone(self):
        canneal = get_application("canneal")
        twin = replace(canneal)
        app_signature(canneal)
        assert twin == canneal and hash(twin) == hash(canneal)


class TestSolveKey:
    def test_pstate_and_machine_in_key(self):
        apps = (get_application("canneal"),)
        fast = XEON_E5649.pstates.fastest
        slow = XEON_E5649.pstates.slowest
        assert solve_key("a", fast.frequency_hz, apps) != solve_key(
            "a", slow.frequency_hz, apps
        )
        assert solve_key("a", fast.frequency_hz, apps) != solve_key(
            "b", fast.frequency_hz, apps
        )

    def test_key_values_match_the_formula(self):
        """Keys of persisted snapshots stay valid: same tuple as ever."""
        apps = (get_application("canneal"), get_application("cg"))
        f = XEON_E5649.pstates.fastest.frequency_hz
        assert solve_key("a", f, apps, np.array([1.0, 2.0])) == (
            "a",
            float(f),
            tuple(_reference_signature(a) for a in apps),
            (1.0, 2.0),
        )

    def test_pinned_occupancies_in_key(self):
        apps = (get_application("canneal"),)
        f = XEON_E5649.pstates.fastest.frequency_hz
        assert solve_key("a", f, apps) != solve_key(
            "a", f, apps, np.array([1024.0])
        )


class TestSolveCache:
    def test_cached_solve_identical_to_fresh(self, cached_engine):
        apps = (get_application("canneal"), get_application("cg"))
        first = cached_engine.solve_steady_state(apps)
        again = cached_engine.solve_steady_state(apps)
        fresh = SimulationEngine(XEON_E5649).solve_steady_state(apps)
        for state in (again, fresh):
            assert np.array_equal(
                first.seconds_per_instruction, state.seconds_per_instruction
            )
            assert np.array_equal(first.miss_ratios, state.miss_ratios)
            assert np.array_equal(first.occupancies_bytes, state.occupancies_bytes)
            assert first.dram_latency_ns == state.dram_latency_ns
        assert cached_engine.stats.cache_hits == 1

    def test_hit_relabels_requested_apps(self, cached_engine):
        canneal = get_application("canneal")
        cached_engine.solve_steady_state((canneal,))
        longer = canneal.scaled(3.0)
        state = cached_engine.solve_steady_state((longer,))
        assert cached_engine.stats.cache_hits == 1
        assert state.apps == (longer,)

    def test_hit_with_the_same_labels_is_not_copied(self, cached_engine):
        canneal, cg = get_application("canneal"), get_application("cg")
        first = cached_engine.solve_steady_state((canneal, cg))
        # A new tuple of the same objects is the same label.
        assert cached_engine.solve_steady_state((canneal, cg)) is first
        # An equal but distinct object is relabelled: callers always get
        # back the objects they passed.
        twin = replace(cg)
        relabelled = cached_engine.solve_steady_state((canneal, twin))
        assert relabelled is not first
        assert relabelled.apps[1] is twin
        assert cached_engine.stats.cache_hits == 2

    def test_cached_run_times_identical(self, cached_engine):
        canneal = get_application("canneal")
        cg = get_application("cg")
        first = cached_engine.run(canneal, [cg] * 3)
        again = cached_engine.run(canneal, [cg] * 3)
        assert first.target.execution_time_s == again.target.execution_time_s
        assert cached_engine.stats.cache_hits == 1

    def test_pinned_occupancies_not_conflated(self, cached_engine):
        apps = (get_application("canneal"), get_application("cg"))
        shared = cached_engine.solve_steady_state(apps)
        cap = XEON_E5649.llc.size_bytes
        pinned = cached_engine.solve_steady_state(
            apps, fixed_occupancies=np.array([cap / 2, cap / 2])
        )
        assert cached_engine.stats.cache_hits == 0
        assert not np.array_equal(
            shared.occupancies_bytes, pinned.occupancies_bytes
        )

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        engine = SimulationEngine(XEON_E5649, cache=cache)
        a, b, c = (get_application(n) for n in ("canneal", "cg", "ep"))
        engine.solve_steady_state((a,))
        engine.solve_steady_state((b,))
        engine.solve_steady_state((a,))  # refresh a; b is now LRU
        engine.solve_steady_state((c,))  # evicts b
        assert len(cache) == 2
        engine.solve_steady_state((a,))
        assert engine.stats.cache_hits == 2
        engine.solve_steady_state((b,))  # must re-solve
        assert engine.stats.cache_hits == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            SolveCache(max_entries=0)

    def test_clear(self, cached_engine):
        cached_engine.solve_steady_state((get_application("canneal"),))
        cached_engine.cache.clear()
        assert len(cached_engine.cache) == 0


class TestEngineStats:
    def test_counts_and_histogram(self, cached_engine):
        canneal = get_application("canneal")
        cg = get_application("cg")
        cached_engine.run(canneal, [cg])
        cached_engine.run(canneal, [cg])
        stats = cached_engine.stats
        assert stats.solves == 1
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.requests == 2
        assert stats.cache_hit_rate == 0.5
        assert sum(stats.iteration_counts.values()) == 1

    def test_uncached_engine_counts_solves(self):
        engine = SimulationEngine(XEON_E5649)
        engine.baseline(get_application("ep"))
        assert engine.stats.solves == 1
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_hit_rate == 0.0

    def test_convergence_failures_recorded(self):
        engine = SimulationEngine(XEON_E5649, max_iterations=1)
        with pytest.raises(ConvergenceError):
            engine.baseline(get_application("canneal"))
        assert engine.stats.convergence_failures == 1
        assert engine.stats.solves == 0

    def test_merge_and_reset(self):
        a = EngineStats(solves=2, cache_hits=1, iteration_counts={10: 2})
        b = EngineStats(
            solves=1, cache_misses=3, convergence_failures=1,
            iteration_counts={10: 1, 80: 1},
        )
        a.merge(b)
        assert a.solves == 3
        assert a.cache_hits == 1
        assert a.cache_misses == 3
        assert a.convergence_failures == 1
        assert a.iteration_counts == {10: 3, 80: 1}

    def test_summary_mentions_key_counters(self, cached_engine):
        cached_engine.baseline(get_application("ep"))
        text = samples_text(cached_engine.stats.render_prometheus())
        lines = text.splitlines()
        assert "repro_engine_solves_total 1" in lines
        assert "repro_engine_cache_hits_total 0" in lines
        assert "repro_engine_solve_iterations_count 1" in lines

    def test_cache_shared_across_engines(self):
        cache = SolveCache()
        first = SimulationEngine(XEON_E5649, cache=cache)
        second = SimulationEngine(XEON_E5649, cache=cache)
        first.baseline(get_application("ep"))
        second.baseline(get_application("ep"))
        assert second.stats.cache_hits == 1

    def test_different_machines_never_conflate(self):
        cache = SolveCache()
        six = SimulationEngine(XEON_E5649, cache=cache)
        twelve = SimulationEngine(XEON_E5_2697V2, cache=cache)
        six.baseline(get_application("canneal"))
        twelve.baseline(get_application("canneal"))
        assert twelve.stats.cache_hits == 0
        assert twelve.stats.solves == 1
