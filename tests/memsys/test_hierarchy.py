"""The memory hierarchy as the steady-state engine composes it.

A shared LLC in front of contended DRAM: the engine's miss traffic loads
the DRAM model, the miss bandwidth it reports is what its rates and miss
ratios imply, and each LLC access stalls the core for the exposed hit
latency or the DRAM latency spread over the overlapping misses.  The
stall formula is also checked at converged states of the suite's mixes
in ``tests/sim/test_steady_state.py``.
"""

import numpy as np
import pytest

from repro.cache.reuse import ReuseProfile
from repro.machine import XEON_E5649
from repro.sim.engine import SimulationEngine
from repro.workloads.app import ApplicationSpec

MB = 1024.0 * 1024.0


def app(profile: ReuseProfile, api: float, mlp: float = 2.0) -> ApplicationSpec:
    return ApplicationSpec("app", "TEST", 1e10, 1.0, api, profile, mlp=mlp)


class TestSolve:
    def test_single_quiet_app(self, engine_6core):
        p = ReuseProfile.single(1 * MB, compulsory=0.01)
        state = engine_6core.solve_steady_state([app(p, 1e-4)])
        assert state.dram_utilization < 0.01
        assert state.dram_latency_ns == pytest.approx(
            XEON_E5649.dram.idle_latency_ns, rel=0.05
        )

    def test_heavy_traffic_loads_dram(self, engine_6core):
        p = ReuseProfile.single(500 * MB, compulsory=0.02)
        quiet = engine_6core.solve_steady_state([app(p, 1e-3)])
        loud = engine_6core.solve_steady_state([app(p, 0.05)] * 3)
        assert loud.dram_utilization > quiet.dram_utilization
        assert loud.dram_latency_ns > quiet.dram_latency_ns

    def test_bandwidth_accounting(self, engine_6core):
        p = ReuseProfile.single(500 * MB)
        state = engine_6core.solve_steady_state([app(p, 0.01)])
        rate = 0.01 / state.seconds_per_instruction[0]
        expected = rate * state.miss_ratios[0] * XEON_E5649.llc.line_bytes
        assert state.miss_bandwidth_bytes_per_s == pytest.approx(expected)


class TestStallPerAccess:
    """One app alone at a pinned LLC occupancy, so its miss ratio is set
    by the occupancy; the engine converges far below the asserted
    tolerance, so its tpi is the stall formula's fixed point."""

    PROFILE = ReuseProfile.single(2 * MB)
    API = 0.02

    @pytest.fixture(scope="class")
    def engine(self):
        return SimulationEngine(XEON_E5649, rel_tolerance=1e-12)

    def solve(self, engine, occupancy, mlp=1.0):
        spec = app(self.PROFILE, self.API, mlp=mlp)
        return engine.solve_steady_state([spec], fixed_occupancies=[occupancy])

    @staticmethod
    def stall_ns_per_access(state):
        """tpi less the compute time, per LLC access, in ns."""
        spec = state.apps[0]
        compute = spec.base_cpi / state.pstate.frequency_hz
        memory = state.seconds_per_instruction[0] - compute
        return memory / spec.accesses_per_instruction * 1e9

    def test_zero_miss_ratio_pays_hit_exposure_only(self, engine):
        # No occupancy takes the miss ratio to 0, so take the misses'
        # DRAM time out: what is left is the hits' exposed latency alone.
        state = self.solve(engine, self.PROFILE.footprint_bytes)
        m = state.miss_ratios[0]
        assert 0.0 < m < 0.1
        hit_stall = self.stall_ns_per_access(state) - m * state.dram_latency_ns
        expected = XEON_E5649.llc.hit_latency_ns * 0.3
        assert hit_stall / (1.0 - m) == pytest.approx(expected)

    def test_full_miss_ratio_pays_dram(self, engine):
        state = self.solve(engine, 0.0, mlp=1.0)
        assert state.miss_ratios[0] == 1.0
        assert self.stall_ns_per_access(state) == pytest.approx(
            state.dram_latency_ns
        )

    def test_mlp_divides_miss_cost(self, engine):
        s1 = self.solve(engine, 0.0, mlp=1.0)
        s2 = self.solve(engine, 0.0, mlp=2.0)
        # Halving the stall lowers the DRAM load, so compare the miss
        # cost per ns of the latency each state saw.
        c1 = self.stall_ns_per_access(s1) / s1.dram_latency_ns
        c2 = self.stall_ns_per_access(s2) / s2.dram_latency_ns
        assert c2 == pytest.approx(c1 / 2.0)

    def test_monotone_in_miss_ratio(self, engine):
        occupancies = np.linspace(self.PROFILE.footprint_bytes, 0.0, 11)
        states = [self.solve(engine, o) for o in occupancies]
        ms = np.array([s.miss_ratios[0] for s in states])
        stalls = np.array([self.stall_ns_per_access(s) for s in states])
        assert np.all(np.diff(ms) > 0)
        assert np.all(np.diff(stalls) > 0)
