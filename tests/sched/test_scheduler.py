"""Tests for model-driven placement of a batch.

A batch is a stream whose jobs all arrive at t = 0; the model-driven
policy sees the jobs heaviest first, the baselines in list order.
"""

import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.sched.cluster import (
    ClusterSimulator,
    first_fit_policy,
    least_loaded_policy,
    model_driven_policy,
)
from repro.workloads.suite import get_application

from .conftest import batch, heaviest_first

JOBS = ["cg", "canneal", "mg", "ep", "blackscholes", "bodytrack"]


@pytest.fixture(scope="module")
def sched_env(engine_6core, baselines_6core, small_dataset):
    predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F, seed=0)
    predictor.fit(list(small_dataset))
    engines = {"m0": engine_6core, "m1": engine_6core}
    baselines = {"m0": baselines_6core, "m1": baselines_6core}
    model_driven = model_driven_policy(
        predictors={"m0": predictor, "m1": predictor},
        baselines=baselines,
        machines={"m0": XEON_E5649, "m1": XEON_E5649},
    )
    return engines, baselines, model_driven


def run(sched_env, policy, names):
    engines, baselines, _model = sched_env
    return ClusterSimulator(engines, baselines, policy).run(batch(names))


class TestEvaluatePlacement:
    """The trace a batch run reports."""

    def test_outcome_structure(self, sched_env):
        trace = run(sched_env, least_loaded_policy, JOBS)
        assert len(trace.records) == len(JOBS)
        assert set(trace.by_machine()) == {"m0", "m1"}
        assert trace.mean_slowdown >= 1.0
        assert max(r.slowdown for r in trace.records) >= trace.mean_slowdown
        assert trace.makespan_s > 0.0

    def test_empty_machine_allowed(self, sched_env):
        trace = run(sched_env, first_fit_policy, JOBS[:2])
        assert len(trace.records) == 2
        assert trace.by_machine() == {"m0": 2}

    def test_solo_jobs_have_unit_slowdown(self, sched_env):
        trace = run(sched_env, least_loaded_policy, ["canneal"])
        assert trace.records[0].slowdown == pytest.approx(1.0, rel=1e-6)


class TestInterferenceAware:
    """The model-driven policy over the jobs sorted heaviest first."""

    def test_places_all_jobs(self, sched_env):
        model = sched_env[2]
        trace = run(sched_env, model, heaviest_first(JOBS))
        assert len(trace.records) == len(JOBS)

    def test_respects_capacity(self, sched_env):
        model = sched_env[2]
        trace = run(sched_env, model, heaviest_first(JOBS * 2))
        assert trace.by_machine() == {"m0": 6, "m1": 6}
        assert all(r.wait_s == 0.0 for r in trace.records)

    def test_separates_memory_hogs(self, sched_env):
        """With two machines, the model-driven policy splits the Class I
        aggressors instead of stacking them."""
        model = sched_env[2]
        names = heaviest_first(["cg", "canneal", "ep", "blackscholes"])
        trace = run(sched_env, model, names)
        machine = {r.request.app.name: r.machine_name for r in trace.records}
        assert machine["cg"] != machine["canneal"]

    def test_beats_first_fit(self, sched_env):
        """The paper's motivation: model-driven placement reduces the
        measured mean slowdown versus naive consolidation."""
        model = sched_env[2]
        aware = run(sched_env, model, heaviest_first(JOBS))
        packed = run(sched_env, first_fit_policy, JOBS)
        assert aware.mean_slowdown < packed.mean_slowdown


class TestHeterogeneousCluster:
    def test_mixed_machine_types(
        self, engine_6core, engine_12core, baselines_6core, baselines_12core,
        small_dataset,
    ):
        """The policy spans machines of different types, each with its
        own engine, baselines, and trained predictor."""
        from repro.harness.collection import collect_training_data

        dataset_12 = collect_training_data(
            engine_12core,
            baselines=baselines_12core,
            targets=[get_application(n) for n in ("canneal", "sp", "ep")],
            co_apps=[get_application("cg")],
            counts=(1, 5, 11),
        )
        pred_6 = PerformancePredictor(ModelKind.LINEAR, FeatureSet.D, seed=0)
        pred_6.fit(list(small_dataset))
        pred_12 = PerformancePredictor(ModelKind.LINEAR, FeatureSet.D, seed=0)
        pred_12.fit(list(dataset_12))

        small, big = XEON_E5649.name, XEON_E5_2697V2.name
        baselines = {small: baselines_6core, big: baselines_12core}
        policy = model_driven_policy(
            predictors={small: pred_6, big: pred_12},
            baselines=baselines,
            machines={small: XEON_E5649, big: XEON_E5_2697V2},
        )
        sim = ClusterSimulator(
            {small: engine_6core, big: engine_12core}, baselines, policy
        )
        names = ["cg", "canneal", "mg", "sp", "ep", "blackscholes",
                 "fluidanimate", "lu"]
        trace = sim.run(batch(heaviest_first(names)))
        assert len(trace.records) == len(names)
        assert trace.mean_slowdown >= 1.0
        assert max(r.slowdown for r in trace.records) < 2.0
