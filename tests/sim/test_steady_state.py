"""Direct tests of the engine's public steady-state solver."""

import numpy as np
import pytest

from repro.cache.reuse import ReuseProfile
from repro.cache.sharing import waterfill_floats
from repro.machine import XEON_E5649
from repro.sim import SimulationEngine
from repro.sim.engine import HIT_EXPOSURE, PRESSURE_FLOOR
from repro.workloads import all_applications
from repro.workloads.app import ApplicationSpec
from repro.workloads.suite import get_application

from .test_batched_engine import assert_states_identical


class TestSolveSteadyState:
    def test_arrays_aligned_with_apps(self, engine_6core):
        apps = (get_application("canneal"), get_application("cg"),
                get_application("ep"))
        state = engine_6core.solve_steady_state(apps)
        n = len(apps)
        assert state.apps == apps
        assert state.seconds_per_instruction.shape == (n,)
        assert state.miss_ratios.shape == (n,)
        assert state.occupancies_bytes.shape == (n,)

    def test_default_pstate_is_fastest(self, engine_6core):
        state = engine_6core.solve_steady_state((get_application("ep"),))
        assert state.pstate is engine_6core.processor.pstates.fastest

    def test_instructions_per_second_inverse(self, engine_6core):
        state = engine_6core.solve_steady_state(
            (get_application("canneal"), get_application("cg"))
        )
        np.testing.assert_allclose(
            state.instructions_per_second * state.seconds_per_instruction,
            1.0,
        )

    def test_matches_run_times(self, engine_6core):
        """run() is a thin wrapper: time = instructions * tpi."""
        canneal, cg = get_application("canneal"), get_application("cg")
        state = engine_6core.solve_steady_state((canneal, cg, cg))
        run = engine_6core.run(canneal, [cg, cg])
        assert run.target.execution_time_s == pytest.approx(
            canneal.instructions * float(state.seconds_per_instruction[0])
        )

    def test_bandwidth_consistency(self, engine_6core):
        apps = (get_application("cg"), get_application("cg"))
        state = engine_6core.solve_steady_state(apps)
        api = np.array([a.accesses_per_instruction for a in apps])
        expected = float(
            (api / state.seconds_per_instruction * state.miss_ratios).sum()
        ) * engine_6core.processor.llc.line_bytes
        assert state.miss_bandwidth_bytes_per_s == pytest.approx(expected)

    def test_validation(self, engine_6core):
        with pytest.raises(ValueError, match="at least one"):
            engine_6core.solve_steady_state(())
        too_many = tuple([get_application("ep")] * 7)
        with pytest.raises(ValueError, match="exceed"):
            engine_6core.solve_steady_state(too_many)

    def test_pinned_occupancies_respected(self, engine_6core):
        apps = (get_application("canneal"), get_application("cg"))
        cap = engine_6core.processor.llc.size_bytes
        pinned = np.array([0.7 * cap, 0.3 * cap])
        state = engine_6core.solve_steady_state(
            apps, fixed_occupancies=pinned
        )
        for occ, alloc, app in zip(state.occupancies_bytes, pinned, apps):
            assert occ == pytest.approx(min(alloc, app.footprint_bytes))

    def test_pinned_validation(self, engine_6core):
        apps = (get_application("ep"),)
        cap = engine_6core.processor.llc.size_bytes
        with pytest.raises(ValueError, match="one occupancy"):
            engine_6core.solve_steady_state(
                apps, fixed_occupancies=np.zeros(2)
            )
        with pytest.raises(ValueError, match="at most the LLC"):
            engine_6core.solve_steady_state(
                apps, fixed_occupancies=np.array([2.0 * cap])
            )
        with pytest.raises(ValueError, match="non-negative"):
            engine_6core.solve_steady_state(
                apps, fixed_occupancies=np.array([-1.0])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pinned_rejects_non_finite(self, engine_6core, bad):
        """NaN slips past the sign and sum checks (every comparison with
        it is false) and would stall the solve until its iteration cap;
        it must fail up front, naming the input."""
        apps = (get_application("canneal"), get_application("cg"))
        with pytest.raises(ValueError, match="fixed_occupancies must be finite"):
            engine_6core.solve_steady_state(
                apps, fixed_occupancies=np.array([1e6, bad])
            )

    def test_underflowing_base_cpi_rejected(self, engine_6core):
        """A base CPI so small that ``base_cpi / f`` underflows to zero
        would divide by zero in the solve; it must fail up front."""
        from dataclasses import replace

        tiny = replace(get_application("cg"), base_cpi=1e-320)
        with pytest.raises(ValueError, match="base_cpi 1e-320 of 'cg'"):
            engine_6core.solve_steady_state((get_application("ep"), tiny))

    def test_full_machine_allowed(self, engine_6core):
        """Unlike run() (target + max_co_located), the raw solver accepts
        up to num_cores applications — the scheduler's running set uses
        it with the target counted in."""
        apps = tuple([get_application("ep")] * 6)
        state = engine_6core.solve_steady_state(apps)
        assert state.miss_ratios.shape == (6,)


def _mixes(num_cores: int, count: int = 10):
    """Seeded mixes of the suite's apps, one to ``num_cores`` each."""
    rng = np.random.default_rng(0)
    apps = all_applications()
    for _ in range(count):
        n = int(rng.integers(1, num_cores + 1))
        yield [apps[i] for i in rng.integers(0, len(apps), n)]


@pytest.mark.parametrize("engine_name", ["engine_6core", "engine_12core"])
def test_converged_state_satisfies_the_fixed_point(request, engine_name):
    """Every tpi is the stall formula and every contended occupancy is
    the waterfill at the state's own rates, miss ratios and latency."""
    engine = request.getfixturevalue(engine_name)
    processor = engine.processor
    capacity = float(processor.llc.size_bytes)
    hit_ns = processor.llc.hit_latency_ns * HIT_EXPOSURE
    contended = 0
    for apps in _mixes(processor.num_cores):
        for pstate in (processor.pstates.fastest, processor.pstates.slowest):
            state = engine.solve_steady_state(apps, pstate)
            api = np.array([a.accesses_per_instruction for a in apps])
            cpi = np.array([a.base_cpi for a in apps])
            mlp = np.array([a.mlp for a in apps])
            m, lat = state.miss_ratios, state.dram_latency_ns
            tpi = cpi / pstate.frequency_hz + api * (
                (1.0 - m) * hit_ns + m * lat / mlp
            ) * 1e-9
            np.testing.assert_allclose(
                state.seconds_per_instruction, tpi, rtol=1e-5
            )
            demand = [min(a.footprint_bytes, capacity) for a in apps]
            if sum(demand) <= capacity:
                continue
            contended += 1
            rate = api / state.seconds_per_instruction
            pressure = rate * np.maximum(m, PRESSURE_FLOOR)
            np.testing.assert_allclose(
                state.occupancies_bytes,
                waterfill_floats(pressure.tolist(), demand, capacity),
                rtol=1e-5,
            )
    assert contended >= 10


def test_the_pressure_floor_sets_a_cache_resident_apps_share():
    """An app that almost never misses keeps the share the floor buys it.

    No suite application's contended miss ratio falls below the floor,
    so this one is synthetic: 99.999% of its accesses fit a 16 KiB
    working set, a 4 MiB tail takes the other 1e-5, and none are
    compulsory.  Next to ``cg`` it misses about 1.3e-5 of its accesses,
    far below the 0.002 floor, so its occupancy is the waterfill at the
    floor's pressure, and the split checked here is the floor's value.
    """
    floor = 0.002
    resident = ApplicationSpec(
        name="resident",
        suite="synthetic",
        instructions=1e9,
        base_cpi=0.5,
        accesses_per_instruction=0.02,
        reuse=ReuseProfile.mixture([(16 * 1024, 0.99999, 6.0), (4 * 2**20, 1e-5)]),
    )
    apps = (resident, get_application("cg"))
    state = SimulationEngine(XEON_E5649).solve_steady_state(apps)
    (stacked,) = SimulationEngine(XEON_E5649).solve_steady_state_batched([apps])
    assert_states_identical(state, stacked)

    miss = state.miss_ratios
    assert miss[0] < floor / 100 < floor < miss[1]
    capacity = float(XEON_E5649.llc.size_bytes)
    demand = [min(a.footprint_bytes, capacity) for a in apps]
    assert sum(demand) > capacity  # the two compete
    rate = np.array([a.accesses_per_instruction for a in apps]) / (
        state.seconds_per_instruction
    )

    def split(pressure):
        return np.array(waterfill_floats(pressure.tolist(), demand, capacity))

    np.testing.assert_allclose(
        state.occupancies_bytes, split(rate * np.maximum(miss, floor)), rtol=1e-5
    )
    # Without the floor the resident app would hold a few KiB, not ~130.
    floorless = split(rate * miss)
    assert floorless[0] < state.occupancies_bytes[0] / 10
