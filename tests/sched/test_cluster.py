"""Tests for the online cluster simulator."""

import numpy as np
import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.machine import XEON_E5649
from repro.sched.cluster import (
    ClusterSimulator,
    JobRequest,
    first_fit_policy,
    least_loaded_policy,
    model_driven_policy,
    run_colocated,
)
from repro.workloads.suite import get_application


@pytest.fixture(scope="module")
def cluster(engine_6core, baselines_6core):
    engines = {"m0": engine_6core, "m1": engine_6core}
    baselines = {"m0": baselines_6core, "m1": baselines_6core}
    return engines, baselines


def make_jobs(names, spacing_s=10.0):
    return [
        JobRequest(app=get_application(n), arrival_s=i * spacing_s, job_id=i)
        for i, n in enumerate(names)
    ]


class TestJobRecord:
    def test_derived_metrics(self):
        req = JobRequest(app=get_application("ep"), arrival_s=5.0, job_id=1)
        from repro.sched.cluster import JobRecord

        rec = JobRecord(
            request=req, machine_name="m0", start_s=8.0, end_s=208.0,
            baseline_s=100.0,
        )
        assert rec.wait_s == pytest.approx(3.0)
        assert rec.run_s == pytest.approx(200.0)
        assert rec.slowdown == pytest.approx(2.0)
        assert rec.response_s == pytest.approx(203.0)

    def test_negative_arrival_rejected(self):
        for arrival_s in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                JobRequest(app=get_application("ep"), arrival_s=arrival_s)


class TestClusterSimulator:
    def test_all_jobs_complete(self, cluster):
        engines, baselines = cluster
        sim = ClusterSimulator(engines, baselines, least_loaded_policy)
        jobs = make_jobs(["cg", "canneal", "sp", "ep"])
        trace = sim.run(jobs)
        assert len(trace.records) == 4
        assert {r.request.job_id for r in trace.records} == {0, 1, 2, 3}

    def test_records_sorted_by_job_id(self, cluster):
        engines, baselines = cluster
        sim = ClusterSimulator(engines, baselines, first_fit_policy)
        trace = sim.run(make_jobs(["ep", "cg", "sp"]))
        ids = [r.request.job_id for r in trace.records]
        assert ids == sorted(ids)

    def test_single_job_matches_baseline(self, cluster):
        engines, baselines = cluster
        sim = ClusterSimulator(engines, baselines, first_fit_policy)
        trace = sim.run([JobRequest(app=get_application("canneal"), arrival_s=0.0)])
        rec = trace.records[0]
        assert rec.slowdown == pytest.approx(1.0, rel=1e-6)
        assert rec.wait_s == 0.0

    def test_timeline_sanity(self, cluster):
        engines, baselines = cluster
        sim = ClusterSimulator(engines, baselines, least_loaded_policy)
        trace = sim.run(make_jobs(["cg", "canneal", "sp", "ep"], spacing_s=25.0))
        for rec in trace.records:
            assert rec.start_s >= rec.request.arrival_s - 1e-9
            assert rec.end_s > rec.start_s
            assert rec.end_s <= trace.makespan_s + 1e-9
        assert trace.makespan_s == pytest.approx(
            max(r.end_s for r in trace.records)
        )

    def test_contention_stretches_concurrent_jobs(self, cluster):
        engines, baselines = cluster
        # Everything arrives at once on one machine: heavy co-location.
        sim = ClusterSimulator(
            {"m0": engines["m0"]}, {"m0": baselines["m0"]}, first_fit_policy
        )
        jobs = make_jobs(["cg", "canneal", "mg", "sp"], spacing_s=0.0)
        trace = sim.run(jobs)
        assert trace.mean_slowdown > 1.1

    def test_queueing_when_cluster_full(self, engine_6core, baselines_6core):
        """With one 6-core machine and 7 simultaneous jobs, one must wait."""
        sim = ClusterSimulator(
            {"m0": engine_6core}, {"m0": baselines_6core}, first_fit_policy
        )
        jobs = make_jobs(["ep"] * 7, spacing_s=0.0)
        trace = sim.run(jobs)
        waits = [r.wait_s for r in trace.records]
        assert sum(w > 1.0 for w in waits) == 1
        assert len(trace.records) == 7

    def test_late_arrivals_wait_for_nothing(self, cluster):
        engines, baselines = cluster
        sim = ClusterSimulator(engines, baselines, least_loaded_policy)
        jobs = make_jobs(["ep", "ep"], spacing_s=1000.0)  # far apart
        trace = sim.run(jobs)
        assert all(r.wait_s == pytest.approx(0.0) for r in trace.records)
        # Second job ran alone: unit slowdown.
        assert trace.records[1].slowdown == pytest.approx(1.0, rel=1e-6)

    def test_by_machine_counts(self, cluster):
        engines, baselines = cluster
        sim = ClusterSimulator(engines, baselines, least_loaded_policy)
        trace = sim.run(make_jobs(["ep"] * 4, spacing_s=0.0))
        counts = trace.by_machine()
        assert sum(counts.values()) == 4
        assert set(counts) <= {"m0", "m1"}

    def test_validation(self, cluster):
        engines, baselines = cluster
        with pytest.raises(ValueError, match="at least one machine"):
            ClusterSimulator({}, {}, first_fit_policy)
        with pytest.raises(ValueError, match="baselines missing"):
            ClusterSimulator(engines, {"m0": baselines["m0"]}, first_fit_policy)
        sim = ClusterSimulator(engines, baselines, first_fit_policy)
        with pytest.raises(ValueError, match="at least one job"):
            sim.run([])

    def test_bad_policy_detected(self, cluster):
        engines, baselines = cluster

        def rogue(job, state):
            return "mars"

        sim = ClusterSimulator(engines, baselines, rogue)
        with pytest.raises(ValueError, match="unknown machine"):
            sim.run(make_jobs(["ep"]))


class TestRunColocated:
    """One target beside co-runners that restart or leave when they finish."""

    def test_solo_matches_engine(self, engine_6core):
        app = get_application("canneal")
        steady = engine_6core.baseline(app).target.execution_time_s
        for restart in (True, False):
            assert run_colocated(
                engine_6core, app, restart=restart
            ) == pytest.approx(steady, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.25, 0.1])
    def test_restarting_co_runners_match_engine(self, engine_6core, scale):
        """With the paper's restart protocol, pressure is constant and the
        event-driven result equals the steady-state one."""
        canneal = get_application("canneal")
        co = [get_application("cg").scaled(scale)] * 3
        steady = engine_6core.run(canneal, co).target.execution_time_s
        restart = run_colocated(engine_6core, canneal, co, restart=True)
        assert restart == pytest.approx(steady, rel=1e-12)

    def test_short_departing_co_runners_speed_up_target(self, engine_6core):
        """Once short co-runner jobs finish and leave, the target runs at
        baseline speed — final time sits between baseline and steady."""
        canneal = get_application("canneal")
        short_cg = [get_application("cg").scaled(0.15)] * 3
        baseline = engine_6core.baseline(canneal).target.execution_time_s
        steady = engine_6core.run(canneal, short_cg).target.execution_time_s
        departed = run_colocated(engine_6core, canneal, short_cg, restart=False)
        assert baseline < departed < steady

    def test_too_many_co_runners_rejected(self, engine_6core):
        with pytest.raises(ValueError, match="at most 5"):
            run_colocated(
                engine_6core,
                get_application("ep"),
                [get_application("cg")] * 6,
                restart=True,
            )

    def test_event_budget_guard(self, engine_6core, monkeypatch):
        # The short co-runners finish first, so one event cannot finish
        # the target.
        monkeypatch.setattr("repro.sched.cluster._COLOCATED_MAX_EVENTS", 1)
        with pytest.raises(RuntimeError, match="did not finish"):
            run_colocated(
                engine_6core,
                get_application("canneal"),
                [get_application("cg").scaled(0.1)] * 3,
                restart=True,
            )


class TestModelDrivenPolicy:
    def test_beats_first_fit_on_mean_slowdown(
        self, cluster, small_dataset, engine_6core
    ):
        engines, baselines = cluster
        predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F, seed=0)
        predictor.fit(list(small_dataset))
        policy = model_driven_policy(
            predictors={"m0": predictor, "m1": predictor},
            baselines=baselines,
            machines={"m0": XEON_E5649, "m1": XEON_E5649},
        )
        # A bursty stream: memory hogs arrive together.
        names = ["cg", "canneal", "mg", "sp", "ep", "blackscholes",
                 "fluidanimate", "lu"]
        jobs = make_jobs(names, spacing_s=5.0)
        aware = ClusterSimulator(engines, baselines, policy).run(jobs)
        naive = ClusterSimulator(engines, baselines, first_fit_policy).run(jobs)
        assert aware.mean_slowdown < naive.mean_slowdown


class TestEdgeCases:
    """Full-cluster behavior, degenerate streams, trace invariants."""

    @pytest.fixture(scope="class")
    def policies(self, small_dataset, baselines_6core, engine_6core):
        predictor = PerformancePredictor(
            ModelKind.LINEAR, FeatureSet.F, seed=3
        ).fit(list(small_dataset))
        model = model_driven_policy(
            {"m0": predictor},
            {"m0": baselines_6core},
            {"m0": engine_6core.processor},
        )
        return {
            "first-fit": first_fit_policy,
            "least-loaded": least_loaded_policy,
            "model": model,
        }

    @pytest.mark.parametrize("name", ["first-fit", "least-loaded", "model"])
    def test_full_cluster_defers_placement(self, name, policies):
        """Every policy returns None when no machine has a free core."""
        from repro.sched.cluster import ClusterState

        full = ClusterState(
            now_s=0.0,
            resident={"m0": tuple([get_application("ep")] * 6)},
            free_cores={"m0": 0},
        )
        assert policies[name](get_application("cg"), full) is None

    @pytest.mark.parametrize("name", ["first-fit", "least-loaded", "model"])
    def test_oversubscribed_stream_queues_and_completes(
        self, name, policies, engine_6core, baselines_6core
    ):
        """8 simultaneous jobs on 6 cores: 2 queue, all complete."""
        sim = ClusterSimulator(
            {"m0": engine_6core}, {"m0": baselines_6core}, policies[name]
        )
        jobs = [
            JobRequest(app=get_application("ep"), arrival_s=0.0, job_id=i)
            for i in range(8)
        ]
        trace = sim.run(jobs)
        assert len(trace.records) == 8
        waited = [r for r in trace.records if r.wait_s > 0.0]
        assert len(waited) == 2

    def test_zero_job_stream_rejected(self, engine_6core, baselines_6core):
        sim = ClusterSimulator(
            {"m0": engine_6core}, {"m0": baselines_6core}, first_fit_policy
        )
        with pytest.raises(ValueError, match="at least one job"):
            sim.run([])

    def test_no_job_starts_before_arrival(
        self, engine_6core, baselines_6core
    ):
        sim = ClusterSimulator(
            {"m0": engine_6core}, {"m0": baselines_6core}, least_loaded_policy
        )
        jobs = make_jobs(["cg", "sp", "canneal", "ep", "mg", "lu"], spacing_s=3.0)
        trace = sim.run(jobs)
        for rec in trace.records:
            assert rec.start_s >= rec.request.arrival_s
            assert rec.end_s > rec.start_s

    @pytest.mark.parametrize("name", ["first-fit", "least-loaded"])
    def test_occupancy_never_exceeds_core_count(
        self, name, policies, engine_6core, baselines_6core
    ):
        """Reconstructed concurrency per machine stays within num_cores."""
        sim = ClusterSimulator(
            {"m0": engine_6core, "m1": engine_6core},
            {"m0": baselines_6core, "m1": baselines_6core},
            policies[name],
        )
        jobs = [
            JobRequest(
                app=get_application(n), arrival_s=float(i), job_id=i
            )
            for i, n in enumerate(
                ["ep", "cg", "sp", "mg", "lu", "ft", "canneal", "bodytrack"] * 2
            )
        ]
        trace = sim.run(jobs)
        assert len(trace.records) == len(jobs)
        cores = engine_6core.processor.num_cores
        for machine in ("m0", "m1"):
            intervals = [
                (r.start_s, r.end_s)
                for r in trace.records
                if r.machine_name == machine
            ]
            edges = sorted({t for pair in intervals for t in pair})
            for t in edges:
                # Occupancy on [t, next edge): count intervals covering t.
                occupancy = sum(
                    1 for s, e in intervals if s <= t < e
                )
                assert occupancy <= cores
