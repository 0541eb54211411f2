"""Ablation — analytic engine vs trace-driven simulation.

DESIGN.md's two-level simulation claim, quantified: the analytic
steady-state engine (serial and batched, which must agree bit-exactly)
and the trace-driven shared-cache simulator agree on miss ratios under
contention, while the analytic engine is orders of magnitude faster —
which is what makes the full Table V sweep tractable.  The timed
quantity is one uncached engine solve; ``test_ablation_trace_sim_cost``
times one trace run.
"""

import numpy as np

from repro.cache.reuse import ReuseProfile
from repro.machine.processor import (
    CacheGeometry,
    DRAMConfig,
    MulticoreProcessor,
)
from repro.machine.pstates import PStateLadder
from repro.reporting.tables import render_table
from repro.sim import SimulationEngine, SolveRequest
from repro.sim.tracesim import TraceCompetitor, simulate_trace_sharing
from repro.workloads.app import ApplicationSpec

KB = 1024


def _setup():
    geometry = CacheGeometry(size_bytes=256 * KB, line_bytes=64, associativity=8)
    victim = ReuseProfile.single(64 * KB, compulsory=0.01)
    aggressor = ReuseProfile.single(1024 * KB, compulsory=0.02)
    return geometry, victim, aggressor


def _engine_for(geometry):
    """A 2-core machine around the ablation's cache geometry."""
    processor = MulticoreProcessor(
        name="ablation-2core",
        num_cores=2,
        llc=geometry,
        dram=DRAMConfig(idle_latency_ns=95.0, peak_bandwidth_gbs=14.0),
        pstates=PStateLadder.from_frequencies([2.5]),
    )
    return SimulationEngine(processor)


def _specs(victim, aggressor, weight):
    """Victim/aggressor pair whose access-rate ratio mirrors ``weight``.

    The trace simulator interleaves references at a *fixed* rate ratio, so
    the engine specs keep memory stalls a small fraction of execution time
    (low accesses-per-instruction, high MLP): both apps then run near
    their base CPI and the engine's realized access-rate ratio stays at
    ``weight`` instead of drifting as the aggressor slows under misses.
    """
    base = 0.002
    return (
        ApplicationSpec("victim", "ablation", 1e9, 1.0, base, victim, mlp=16.0),
        ApplicationSpec(
            "aggressor", "ablation", 1e9, 1.0, base * weight, aggressor, mlp=16.0
        ),
    )


def test_ablation_analytic_vs_trace_agreement(benchmark, emit):
    geometry, victim, aggressor = _setup()
    weights = (0.5, 1.0, 2.0, 4.0)
    engine_serial = _engine_for(geometry)
    engine_batched = _engine_for(geometry)
    serial_states = [
        engine_serial.solve_steady_state(_specs(victim, aggressor, w))
        for w in weights
    ]
    batched_states = engine_batched.solve_steady_state_batched(
        [SolveRequest(apps=_specs(victim, aggressor, w)) for w in weights]
    )
    rows = []
    for weight, serial_state, batched_state in zip(
        weights, serial_states, batched_states
    ):
        rng = np.random.default_rng(17)
        measured = simulate_trace_sharing(
            [
                TraceCompetitor("victim", victim, 1.0),
                TraceCompetitor("aggressor", aggressor, weight),
            ],
            geometry,
            200_000,
            rng,
        )
        # The batched engine must not merely agree with the trace — it
        # must reproduce the serial engine bit for bit.
        assert np.array_equal(
            serial_state.miss_ratios, batched_state.miss_ratios
        )
        assert serial_state.iterations == batched_state.iterations
        rows.append(
            [
                weight,
                measured.miss_ratios[0],
                float(serial_state.miss_ratios[0]),
                float(batched_state.miss_ratios[0]),
                abs(measured.miss_ratios[0] - float(serial_state.miss_ratios[0])),
            ]
        )
    # The timed quantity: one uncached engine solve (the hot path of data
    # collection) — compare against the trace cost below.
    specs = _specs(victim, aggressor, 2.0)
    benchmark(lambda: engine_serial.solve_steady_state(specs))
    emit(
        "ablation_engine_agreement",
        render_table(
            [
                "aggressor weight",
                "victim miss ratio (trace)",
                "victim miss ratio (engine serial)",
                "victim miss ratio (engine batched)",
                "abs diff (engine)",
            ],
            rows,
            title="Ablation: analytic engine vs trace-driven ground truth",
        ),
    )
    assert all(r[4] < 0.12 for r in rows)
    # Bit-identity across the whole sweep: serial == batched exactly.
    assert all(r[2] == r[3] for r in rows)


def test_ablation_trace_sim_cost(benchmark):
    """The trace simulator's per-experiment cost (why it is not the bulk
    data-collection engine)."""
    geometry, victim, aggressor = _setup()

    def run_trace():
        rng = np.random.default_rng(3)
        return simulate_trace_sharing(
            [
                TraceCompetitor("victim", victim, 1.0),
                TraceCompetitor("aggressor", aggressor, 2.0),
            ],
            geometry,
            50_000,
            rng,
        )

    result = benchmark.pedantic(run_trace, rounds=3, iterations=1)
    assert result.total_references == 50_000
