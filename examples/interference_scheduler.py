"""Interference-aware scheduling: the paper's motivating application.

Section I: accurate co-location degradation predictions "may lead to
system performance improvement by more fully utilizing hardware and
thereby increasing opportunities for server consolidation".

This example schedules a batch of nine jobs onto two 6-core Xeons with
four policies — first-fit consolidation, least-loaded spreading, and
least-loaded and the model-driven interference-aware policy over the jobs
sorted heaviest first — then measures each placement's *true* outcome on
the event-driven cluster simulator.  A batch is a job stream whose jobs
all arrive at t = 0; co-runners depart as they finish.

Run with:  python examples/interference_scheduler.py
"""

import numpy as np

from repro.core import FeatureSet, ModelKind, PerformancePredictor
from repro.harness import collect_baselines, collect_training_data
from repro.machine import XEON_E5649
from repro.sched import (
    ClusterSimulator,
    JobRequest,
    first_fit_policy,
    least_loaded_policy,
    model_driven_policy,
)
from repro.sim import SimulationEngine
from repro.workloads import all_applications, get_application


def main() -> None:
    machine = XEON_E5649
    engine = SimulationEngine(machine)
    print(f"Cluster: 2x {machine.name} ({2 * machine.num_cores} cores total)\n")

    # One predictor per machine type, trained once from its Table V data.
    print("Training the co-location performance model...")
    baselines = collect_baselines(engine, all_applications())
    dataset = collect_training_data(
        engine, baselines=baselines, rng=np.random.default_rng(0)
    )
    predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F, seed=0)
    predictor.fit(list(dataset))
    print(f"  trained on {len(dataset)} observations\n")

    # A mixed batch with a little slack (9 jobs on 12 cores): memory hogs,
    # middleweights, and CPU-bound jobs.
    job_names = [
        "cg", "canneal", "mg",            # Class I
        "sp",                             # Class II
        "fluidanimate", "lu",             # Class III
        "ep", "blackscholes", "bodytrack",  # Class IV
    ]
    jobs = [get_application(n) for n in job_names]
    print(f"Batch: {len(jobs)} jobs: {', '.join(job_names)}\n")

    # Memory-intensive jobs are the hardest to co-locate, so the informed
    # policies see them first.
    llc_bytes = float(machine.llc.size_bytes)
    heaviest_first = sorted(
        jobs, key=lambda a: a.solo_memory_intensity(llc_bytes), reverse=True
    )

    names = ["node0", "node1"]
    engines = {n: engine for n in names}
    tables = {n: baselines for n in names}
    model_driven = model_driven_policy(
        predictors={n: predictor for n in names},
        baselines=tables,
        machines={n: machine for n in names},
    )
    rows = {
        "first-fit (consolidate)": (first_fit_policy, jobs),
        "least-loaded (spread)": (least_loaded_policy, jobs),
        "least-loaded, heaviest first": (least_loaded_policy, heaviest_first),
        "interference-aware (model)": (model_driven, heaviest_first),
    }

    print(f"{'policy':28s} {'mean slowdown':>14s} {'worst':>7s} {'makespan':>10s}")
    results = {}
    for label, (policy, order) in rows.items():
        batch = [
            JobRequest(app=app, arrival_s=0.0, job_id=i)
            for i, app in enumerate(order)
        ]
        trace = ClusterSimulator(engines, tables, policy).run(batch)
        results[label] = trace
        worst = max(r.slowdown for r in trace.records)
        print(
            f"{label:28s} {trace.mean_slowdown:13.3f}x "
            f"{worst:6.2f}x {trace.makespan_s:9.1f}s"
        )

    aware = results["interference-aware (model)"]
    packed = results["first-fit (consolidate)"]
    gain = (packed.mean_slowdown - aware.mean_slowdown) / packed.mean_slowdown
    print(
        f"\nModel-driven placement cuts mean slowdown by "
        f"{100 * gain:.1f}% versus naive consolidation."
    )


if __name__ == "__main__":
    main()
