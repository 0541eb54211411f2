"""Tests for the baseline placement policies on a batch.

A batch is a stream whose jobs all arrive at t = 0; the policy sees the
jobs in list order.
"""

import pytest

from repro.sched.cluster import (
    ClusterSimulator,
    first_fit_policy,
    least_loaded_policy,
)

from .conftest import batch, heaviest_first

JOBS = ["cg", "canneal", "sp", "ep", "fluidanimate", "blackscholes"]


@pytest.fixture(scope="module")
def machines(engine_6core, baselines_6core):
    """Two E5649s: engines and baseline tables keyed by machine name."""
    engines = {"m0": engine_6core, "m1": engine_6core}
    baselines = {"m0": baselines_6core, "m1": baselines_6core}
    return engines, baselines


def run(machines, policy, names):
    engines, baselines = machines
    return ClusterSimulator(engines, baselines, policy).run(batch(names))


class TestPlacement:
    def test_assign_and_capacity(self, machines):
        seen = []

        def recording(job, state):
            seen.append((dict(state.free_cores), dict(state.resident)))
            return first_fit_policy(job, state)

        run(machines, recording, JOBS[:2])
        (first_free, _), (free, resident) = seen
        assert sum(first_free.values()) == 12
        assert free == {"m0": 5, "m1": 6}
        assert [len(resident["m0"]), len(resident["m1"])] == [1, 0]

    def test_overfull_machine_rejected(self, machines):
        def stubborn(job, state):
            return "m0"

        with pytest.raises(ValueError, match="full machine"):
            run(machines, stubborn, JOBS + JOBS[:1])

    def test_needs_machines(self):
        with pytest.raises(ValueError, match="at least one machine"):
            ClusterSimulator({}, {}, first_fit_policy)


class TestRoundRobin:
    """Least-loaded deals a batch out across the machines."""

    def test_even_spread(self, machines):
        trace = run(machines, least_loaded_policy, JOBS)
        assert trace.by_machine() == {"m0": 3, "m1": 3}

    def test_skips_full_machines(
        self, engine_6core, engine_12core, baselines_6core, baselines_12core
    ):
        sim = ClusterSimulator(
            {"small": engine_6core, "big": engine_12core},
            {"small": baselines_6core, "big": baselines_12core},
            least_loaded_policy,
        )
        trace = sim.run(batch(JOBS * 3))  # 18 jobs, small machine holds 6
        assert trace.by_machine() == {"small": 6, "big": 12}
        assert all(r.wait_s == 0.0 for r in trace.records)


class TestPackFirst:
    """First-fit consolidates a batch onto as few machines as it can."""

    def test_fills_first_machine(self, machines):
        assert run(machines, first_fit_policy, JOBS).by_machine() == {"m0": 6}

    def test_overflow_to_next(self, machines):
        trace = run(machines, first_fit_policy, JOBS + JOBS[:2])
        assert trace.by_machine() == {"m0": 6, "m1": 2}


class TestSpreadByIntensity:
    """Least-loaded over the jobs sorted heaviest first."""

    def test_heaviest_jobs_split_across_machines(self, machines):
        order = heaviest_first(JOBS)
        trace = run(machines, least_loaded_policy, order)
        machine = {r.request.app.name: r.machine_name for r in trace.records}
        # The two most intense jobs (cg, canneal) land on different machines.
        assert {machine[n] for n in order[:2]} == {"m0", "m1"}

    def test_all_jobs_placed(self, machines):
        trace = run(machines, least_loaded_policy, heaviest_first(JOBS))
        assert len(trace.records) == len(JOBS)
