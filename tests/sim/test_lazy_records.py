"""A run's co-runner records: built on first read, equal to the solve's.

``_finish_run`` builds only the target's ``AppRun``; a ``ColocationRun``
builds its co-runners' records from the steady state it keeps.  Every
record must equal one computed here, independently, from
``solve_steady_state`` on the same applications, whichever path (``run``,
``run_batch``, a phased target, an in-batch duplicate, a relabelled cache
hit) produced the run.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.cache.reuse import ReuseProfile
from repro.harness.collection import collect_training_data
from repro.machine import XEON_E5649
from repro.sim import AppRun, SimulationEngine, SolveCache
from repro.workloads import get_application
from repro.workloads.app import ApplicationPhase, PhasedApplication

MB = 1024 * 1024
SIGMA = 0.01


def oracle(apps, pstate):
    """The state and every app's noise-free record, from a fresh solve."""
    state = SimulationEngine(XEON_E5649).solve_steady_state(apps, pstate)
    records = []
    for i, app in enumerate(apps):
        tpi = float(state.seconds_per_instruction[i])
        miss = float(state.miss_ratios[i])
        accesses = float(app.instructions * app.accesses_per_instruction)
        records.append(
            AppRun(
                app=app,
                execution_time_s=float(app.instructions * tpi),
                instructions=app.instructions,
                llc_accesses=accesses,
                llc_misses=accesses * miss,
                miss_ratio=miss,
                occupancy_bytes=float(state.occupancies_bytes[i]),
                instructions_per_second=1.0 / tpi,
            )
        )
    return state, records


def noise(seed):
    return float(np.exp(np.random.default_rng(seed).normal(0.0, SIGMA)))


def assert_records_equal(got, want):
    assert got.app is want.app
    for f in fields(AppRun):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def assert_run_matches(run, apps, pstate, seed=None):
    """``run``'s records and machine state equal the oracle's."""
    state, records = oracle(apps, pstate)
    assert "co_runners" not in vars(run)
    assert len(run.co_runners) == len(apps) - 1
    assert run.runs[0] is run.target
    assert run.runs[1:] == run.co_runners
    for got, want in zip(run.co_runners, records[1:]):
        assert_records_equal(got, want)
    target, want = run.target, records[0]
    assert target.app is want.app
    for f in fields(AppRun):
        if f.name != "execution_time_s":
            assert getattr(target, f.name) == getattr(want, f.name), f.name
    scale = 1.0 if seed is None else noise(seed)
    assert target.execution_time_s == want.execution_time_s * scale
    assert run.processor_name == XEON_E5649.name
    assert run.frequency_ghz == pstate.frequency_ghz
    assert run.dram_utilization == state.dram_utilization
    assert run.dram_latency_ns == state.dram_latency_ns
    assert run.iterations == state.iterations


@pytest.fixture(scope="module")
def apps():
    names = ("cg", "ep", "sp", "canneal", "fluidanimate")
    return {name: get_application(name) for name in names}


def make_phased():
    mem = ApplicationPhase(
        0.5, 0.8, 0.02, ReuseProfile.single(200 * MB, compulsory=0.05), mlp=1.5
    )
    cpu = ApplicationPhase(0.5, 1.0, 1e-4, ReuseProfile.single(0.5 * MB), mlp=1.0)
    return PhasedApplication(
        name="phased", suite="TEST", instructions=2e11, phases=(mem, cpu)
    )


class TestRun:
    def test_records_equal_the_solve(self, apps):
        engine = SimulationEngine(XEON_E5649, noise_sigma=SIGMA)
        pstate = XEON_E5649.pstates[3]
        co = [apps["cg"], apps["ep"], apps["cg"]]
        run = engine.run(
            apps["canneal"], co, pstate=pstate, rng=np.random.default_rng(4)
        )
        assert_run_matches(run, (apps["canneal"], *co), pstate, seed=4)

    def test_solo_run_has_no_co_runners(self, apps):
        run = SimulationEngine(XEON_E5649).baseline(apps["sp"])
        assert run.co_runners == ()
        assert run.runs == (run.target,)

    @pytest.mark.parametrize("batched", [False, True], ids=["run", "run_batch"])
    def test_phased_target_keeps_its_last_phase(self, apps, batched):
        engine = SimulationEngine(XEON_E5649)
        phased = make_phased()
        pstate = XEON_E5649.pstates[1]
        co = (apps["cg"], apps["cg"])
        if batched:
            (run,) = engine.run_batch([(phased, co, pstate, None)])
        else:
            run = engine.run(phased, co, pstate=pstate)
        last = phased.phase_specs()[-1]
        state, records = oracle((last, *co), pstate)
        assert run.target.app == phased.aggregate()
        assert run.target.occupancy_bytes == records[0].occupancy_bytes
        assert run.runs[0] is run.target
        for got, want in zip(run.co_runners, records[1:], strict=True):
            assert_records_equal(got, want)
        assert run.frequency_ghz == pstate.frequency_ghz
        assert run.dram_latency_ns == state.dram_latency_ns
        assert run.iterations == state.iterations


class TestRunBatch:
    def test_records_equal_the_solve(self, apps):
        cache = SolveCache()
        engine = SimulationEngine(XEON_E5649, noise_sigma=SIGMA, cache=cache)
        sp, fluid, cg = apps["sp"], apps["fluidanimate"], apps["cg"]
        engine.run_batch([(sp, [fluid, fluid], None, None)])
        # Same behaviour, other run lengths: a cache hit that must be
        # relabelled with these objects.
        sp_long, fluid_long = sp.scaled(2.0), fluid.scaled(3.0)
        slow = XEON_E5649.pstates[4]
        items = [
            (cg, [apps["ep"], apps["ep"]], slow, np.random.default_rng(1)),
            (sp_long, [fluid_long, fluid_long], None, np.random.default_rng(2)),
            (cg, [apps["ep"], apps["ep"]], slow, np.random.default_rng(3)),
            (apps["canneal"], [cg] * 5, None, None),
        ]
        hits, dedupe = engine.stats.cache_hits, engine.stats.batch_dedupe_hits
        runs = engine.run_batch(items)
        assert engine.stats.cache_hits == hits + 1
        assert engine.stats.batch_dedupe_hits == dedupe + 1
        fastest = XEON_E5649.pstates.fastest
        expected = [
            ((cg, apps["ep"], apps["ep"]), slow, 1),
            ((sp_long, fluid_long, fluid_long), fastest, 2),
            ((cg, apps["ep"], apps["ep"]), slow, 3),
            ((apps["canneal"], *[cg] * 5), fastest, None),
        ]
        for run, (app_tuple, pstate, seed) in zip(runs, expected, strict=True):
            assert_run_matches(run, app_tuple, pstate, seed)
        assert runs[1].co_runners[0].instructions == fluid_long.instructions


class TestValueSemantics:
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_pickle_round_trip(self, apps, read_first):
        engine = SimulationEngine(XEON_E5649)
        co = [apps["cg"]] * 2
        run = engine.run(apps["sp"], co, rng=np.random.default_rng(7))
        if read_first:
            run.co_runners
        restored = pickle.loads(pickle.dumps(run))
        assert ("co_runners" in vars(restored)) == read_first
        _, records = oracle((apps["sp"], *co), XEON_E5649.pstates.fastest)
        assert restored.co_runners == tuple(records[1:])
        assert restored.runs[0] is restored.target
        assert restored.target == run.target
        assert restored == run

    def test_equality_compares_every_record(self, apps):
        engine = SimulationEngine(XEON_E5649)
        sp, cg = apps["sp"], apps["cg"]
        a = engine.run(sp, [cg, cg])
        b = engine.run(sp, [cg, cg])
        assert a == b
        assert hash(a) == hash(b)
        # Only a co-runner's record differs: its run length.
        c = engine.run(sp, [cg.scaled(2.0), cg])
        assert c.target == a.target
        assert c.co_runners[1] == a.co_runners[1]
        assert c != a
        assert a != engine.run(sp, [cg, cg], pstate=XEON_E5649.pstates[1])


def test_collection_builds_no_co_runner_record(apps, monkeypatch):
    """A sweep reads only targets, so no co-runner record may be built."""
    runs = []
    run_batch = SimulationEngine.run_batch

    def spy(self, items):
        out = run_batch(self, items)
        runs.extend(out)
        return out

    monkeypatch.setattr(SimulationEngine, "run_batch", spy)
    dataset = collect_training_data(
        SimulationEngine(XEON_E5649),
        targets=[apps["sp"], apps["canneal"]],
        co_apps=[apps["cg"]],
        counts=(1, 3),
    )
    # 3 apps x 6 P-states solo for the baselines, then the 24-cell sweep.
    assert len(runs) == 18 + len(dataset) == 42
    assert sum(len(run.state.apps) > 1 for run in runs) == 24
    assert not [
        run for run in runs if "co_runners" in vars(run) or "runs" in vars(run)
    ]
