"""Ablation — the steady-state assumption vs departing co-runners.

The paper's harness keeps co-located pressure constant by restarting
co-runners, which the analytic engine models as steady state.  This bench
quantifies when that abstraction is exact (restart protocol) and how far
it drifts when finished co-runners instead *leave* the machine (a batch
scheduler's reality) — the regime boundary a model user should know.  Both
columns come from the scheduler's event-driven running set, which
re-solves rates only when a co-runner finishes.
"""

from repro.reporting.tables import render_table
from repro.sched.cluster import run_colocated
from repro.workloads.suite import get_application


def test_ablation_steady_state_assumption(benchmark, ctx, emit):
    engine = ctx.engine("e5649")
    canneal = get_application("canneal")

    rows = []
    for scale in (1.0, 0.5, 0.25, 0.1):
        short_cg = get_application("cg").scaled(scale)
        steady = engine.run(canneal, [short_cg] * 3).target.execution_time_s
        restart = run_colocated(engine, canneal, [short_cg] * 3, restart=True)
        depart = run_colocated(engine, canneal, [short_cg] * 3, restart=False)
        rows.append(
            [
                scale,
                steady,
                restart,
                depart,
                100.0 * (steady - depart) / depart,
            ]
        )

    benchmark.pedantic(
        lambda: run_colocated(
            engine, canneal, [get_application("cg").scaled(0.25)] * 3,
            restart=False,
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "ablation_timesliced",
        render_table(
            [
                "co-runner length (x cg)",
                "steady-state (s)",
                "restart (s)",
                "depart (s)",
                "steady overestimates depart by (%)",
            ],
            rows,
            title="Ablation: steady-state assumption vs co-runner departures (canneal + 3x cg, E5649)",
        ),
    )
    # Restart protocol: steady state is exact at every job length.
    for row in rows:
        assert abs(row[1] - row[2]) / row[1] < 1e-6
    # Departures: the shorter the co-runners, the larger the steady-state
    # overestimate — monotone in job length.
    overestimates = [row[4] for row in rows]
    assert all(a <= b + 1e-9 for a, b in zip(overestimates, overestimates[1:]))
    assert overestimates[0] < 1e-6  # full-length cg outlives canneal
    assert overestimates[-1] > 5.0  # short jobs leave real headroom
