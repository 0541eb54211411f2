"""Cross-validation: the steady-state engine vs trace-driven ground truth.

The central substrate claim of DESIGN.md: the rate-proportional occupancy
equilibrium that :class:`~repro.sim.engine.SimulationEngine` solves
predicts what actually emerges when interleaved synthetic traces share a
real (simulated) set-associative LRU cache (`repro.sim.tracesim`).

The engine runs a validation-scale machine around the test's cache, and
its apps stall little (few LLC accesses per instruction, high MLP), so
each app's realized access rate tracks the trace's interleave weight.
"""

import numpy as np
import pytest

from repro.cache.reuse import ReuseProfile
from repro.machine.processor import CacheGeometry, DRAMConfig, MulticoreProcessor
from repro.machine.pstates import PStateLadder
from repro.sim.engine import SimulationEngine
from repro.sim.tracesim import TraceCompetitor, simulate_trace_sharing
from repro.workloads.app import ApplicationSpec

KB = 1024.0


@pytest.fixture(scope="module")
def geometry():
    # 256 KB shared cache, validation scale.
    return CacheGeometry(size_bytes=256 * 1024, line_bytes=64, associativity=8)


@pytest.fixture(scope="module")
def engine(geometry):
    return SimulationEngine(
        MulticoreProcessor(
            name="validation-2core",
            num_cores=2,
            llc=geometry,
            dram=DRAMConfig(idle_latency_ns=95.0, peak_bandwidth_gbs=14.0),
            pstates=PStateLadder.from_frequencies([2.5]),
        )
    )


def run_both(profiles_weights, geometry, engine, n_refs=300_000, seed=11):
    """Run the trace simulation and the engine on the same setup."""
    rng = np.random.default_rng(seed)
    tcs = [
        TraceCompetitor(f"app{i}", p, w) for i, (p, w) in enumerate(profiles_weights)
    ]
    measured = simulate_trace_sharing(tcs, geometry, n_refs, rng)
    state = engine.solve_steady_state(
        [
            ApplicationSpec(f"app{i}", "validation", 1e9, 1.0, 0.002 * w, p, mlp=16.0)
            for i, (p, w) in enumerate(profiles_weights)
        ]
    )
    return measured, state


class TestAgreement:
    def test_two_equal_streams(self, geometry, engine):
        p = ReuseProfile.single(96 * KB, compulsory=0.02)
        measured, state = run_both([(p, 1.0), (p, 1.0)], geometry, engine)
        np.testing.assert_allclose(
            measured.miss_ratios, state.miss_ratios, atol=0.10
        )

    def test_aggressor_vs_victim_miss_ratios(self, geometry, engine):
        victim = ReuseProfile.single(64 * KB, compulsory=0.01)
        aggressor = ReuseProfile.single(1024 * KB, compulsory=0.02)
        measured, state = run_both(
            [(victim, 1.0), (aggressor, 3.0)], geometry, engine
        )
        # Both models agree the victim suffers and the aggressor streams.
        np.testing.assert_allclose(
            measured.miss_ratios, state.miss_ratios, atol=0.12
        )

    def test_victim_degrades_with_aggressor_pressure_in_both_models(
        self, geometry, engine
    ):
        victim = ReuseProfile.single(64 * KB, compulsory=0.01)
        aggressor = ReuseProfile.single(1024 * KB, compulsory=0.02)
        measured_mrs, engine_mrs = [], []
        for weight in (0.5, 2.0, 8.0):
            measured, state = run_both(
                [(victim, 1.0), (aggressor, weight)], geometry, engine,
                n_refs=200_000,
            )
            measured_mrs.append(measured.miss_ratios[0])
            engine_mrs.append(state.miss_ratios[0])
        # Monotone degradation of the victim, in both worlds.
        assert measured_mrs[0] <= measured_mrs[-1] + 0.02
        assert engine_mrs[0] <= engine_mrs[-1] + 1e-9

    def test_occupancy_split_direction_matches(self, geometry, engine):
        small = ReuseProfile.single(48 * KB, compulsory=0.01)
        big = ReuseProfile.single(512 * KB, compulsory=0.01)
        measured, state = run_both([(small, 1.0), (big, 1.0)], geometry, engine)
        # The big/high-miss stream holds more of the cache in both models.
        assert measured.occupancies_bytes[1] > measured.occupancies_bytes[0]
        assert state.occupancies_bytes[1] > state.occupancies_bytes[0]

    def test_solo_stream_matches_profile(self, geometry, engine):
        p = ReuseProfile.single(96 * KB, compulsory=0.02)
        measured, state = run_both([(p, 1.0)], geometry, engine)
        expected = float(p.miss_ratio(min(p.footprint_bytes, geometry.size_bytes)))
        assert measured.miss_ratios[0] == pytest.approx(expected, abs=0.08)
        assert state.miss_ratios[0] == pytest.approx(expected, rel=1e-6)
