"""Tests for the shared-cache occupancy split and the equilibrium it makes.

``TestWaterfill`` checks the capped proportional split itself;
``TestSolveSharedCache`` checks the occupancy equilibrium that
:meth:`~repro.sim.engine.SimulationEngine.solve_steady_state` iterates it
to.  The engine's apps stall little (few LLC accesses per instruction,
high MLP), so their LLC access rates keep the ratios the tests give them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.reuse import ReuseProfile
from repro.cache.sharing import waterfill_floats
from repro.machine.processor import CacheGeometry, DRAMConfig, MulticoreProcessor
from repro.machine.pstates import PStateLadder
from repro.sim.engine import SimulationEngine
from repro.workloads.app import ApplicationSpec

MB = 1024.0 * 1024.0


class TestWaterfill:
    def test_proportional_when_unconstrained(self):
        alloc = waterfill_floats([1.0, 3.0], [100.0, 100.0], 40.0)
        np.testing.assert_allclose(alloc, [10.0, 30.0])

    def test_caps_at_demand_and_redistributes(self):
        alloc = waterfill_floats([1.0, 1.0], [5.0, 100.0], 40.0)
        np.testing.assert_allclose(alloc, [5.0, 35.0])

    def test_never_exceeds_capacity(self):
        alloc = waterfill_floats([2.0, 5.0, 1.0], [10.0, 10.0, 10.0], 12.0)
        assert sum(alloc) <= 12.0 + 1e-9
        assert all(a <= 10.0 + 1e-9 for a in alloc)

    def test_zero_pressure_splits_evenly(self):
        alloc = waterfill_floats([0.0, 0.0], [100.0, 100.0], 10.0)
        np.testing.assert_allclose(alloc, [5.0, 5.0])

    def test_all_demand_satisfiable(self):
        alloc = waterfill_floats([1.0, 1.0], [3.0, 4.0], 100.0)
        np.testing.assert_allclose(alloc, [3.0, 4.0])

    @given(
        n=st.integers(min_value=1, max_value=6),
        cap=st.floats(min_value=1.0, max_value=1000.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60)
    def test_property_feasible_allocation(self, n, cap, seed):
        rng = np.random.default_rng(seed)
        pressure = rng.uniform(0.0, 10.0, n)
        demand = rng.uniform(0.1, 500.0, n)
        alloc = np.array(
            waterfill_floats(pressure.tolist(), demand.tolist(), cap)
        )
        assert np.all(alloc >= -1e-9)
        assert np.all(alloc <= demand + 1e-6)
        assert alloc.sum() <= cap + 1e-6
        # Capacity is exhausted unless all demand is satisfied.
        if demand.sum() > cap:
            assert alloc.sum() == pytest.approx(cap, rel=1e-6)


def solve(profiles_rates, capacity_bytes: float):
    """Engine steady state of apps sharing a ``capacity_bytes`` LLC.

    Each app's LLC accesses per instruction are proportional to its given
    relative access rate (the largest gets 0.01).
    """
    size = int(capacity_bytes) // 1024 * 1024
    engine = SimulationEngine(
        MulticoreProcessor(
            name="sharing-8core",
            num_cores=8,
            llc=CacheGeometry(size_bytes=size, associativity=16),
            dram=DRAMConfig(),
            pstates=PStateLadder.from_frequencies([2.5]),
        )
    )
    top = max(rate for _p, rate in profiles_rates)
    return engine.solve_steady_state(
        [
            ApplicationSpec(f"app{i}", "TEST", 1e9, 1.0, 0.01 * rate / top, p, mlp=16.0)
            for i, (p, rate) in enumerate(profiles_rates)
        ]
    )


class TestSolveSharedCache:
    def test_single_app_gets_min_footprint_capacity(self, small_profile):
        state = solve([(small_profile, 1e6)], 10 * MB)
        assert state.occupancies_bytes[0] == pytest.approx(
            min(small_profile.footprint_bytes, 10 * MB)
        )
        assert state.miss_ratios[0] == pytest.approx(
            float(small_profile.miss_ratio(state.occupancies_bytes[0])), rel=1e-6
        )

    def test_everything_fits_no_competition(self):
        p = ReuseProfile.single(64 * 1024)
        state = solve([(p, 1e6), (p, 1e6)], 10 * MB)
        assert state.occupancies_bytes.tolist() == [p.footprint_bytes] * 2

    def test_identical_competitors_split_evenly(self):
        p = ReuseProfile.single(8 * MB)  # a 22 MB footprint: two overflow
        state = solve([(p, 1e6), (p, 1e6)], 10 * MB)
        occ = state.occupancies_bytes
        assert occ[0] == occ[1]
        assert occ.sum() == pytest.approx(10 * MB, rel=1e-9)

    def test_higher_rate_wins_capacity(self):
        p = ReuseProfile.single(8 * MB)
        state = solve([(p, 1e7), (p, 1e6)], 10 * MB)
        assert state.occupancies_bytes[0] > state.occupancies_bytes[1]

    def test_adding_competitors_raises_target_misses(self):
        target = ReuseProfile.single(6 * MB)
        aggressor = ReuseProfile.single(64 * MB)
        prev = None
        for n in range(0, 4):
            state = solve([(target, 1e6)] + [(aggressor, 1e7)] * n, 12 * MB)
            mr = state.miss_ratios[0]
            if prev is not None:
                assert mr >= prev - 1e-9
            prev = mr

    def test_occupancies_within_capacity(self, small_profile):
        state = solve([(small_profile, 10 ** (5 + i)) for i in range(5)], 256 * 1024)
        assert state.occupancies_bytes.sum() <= 256 * 1024 * (1 + 1e-6)
        assert np.all(state.occupancies_bytes >= 0.0)

    @given(
        rates=st.lists(
            st.floats(min_value=1e3, max_value=1e9), min_size=2, max_size=6
        ),
        cap_mb=st.floats(min_value=1.0, max_value=32.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_fixed_point_feasible(self, rates, cap_mb):
        p = ReuseProfile.mixture([(2 * MB, 0.5), (16 * MB, 0.5)], compulsory=0.01)
        state = solve([(p, r) for r in rates], cap_mb * MB)
        assert state.occupancies_bytes.sum() <= cap_mb * MB * (1 + 1e-6)
        assert np.all(state.miss_ratios >= 0.0)
        assert np.all(state.miss_ratios <= 1.0)
