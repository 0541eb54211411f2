"""Microbenchmarks — the substrate's hot paths.

Not a paper artifact; guards the property the harness depends on: one
analytic co-location solve must stay in the low-millisecond range so the
full Table V sweep (thousands of runs) completes in seconds — and, with
the stacked (batched) steady-state solver or a warm
:class:`~repro.sim.solve_cache.SolveCache`, in a small fraction of that.

Each run appends its throughput numbers to ``results/BENCH_engine.json``
(scenarios/s, batched-vs-serial speedup, the bit-identity verdict) so CI
can archive the trajectory alongside the other BENCH files.

Set ``REPRO_SMOKE=1`` for the reduced configuration used by
``make bench-smoke`` (a routine throughput-regression check).
"""

import os
import time

import numpy as np

from repro.harness.baselines import collect_baselines
from repro.harness.collection import collect_training_data, setup_for
from repro.harness.parallel import spawn_streams
from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.obs import samples_text
from repro.sim import SimulationEngine, SolveCache, SolveRequest
from repro.workloads.suite import all_applications, get_application

_SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

#: Minimum batched-over-serial collection speedup.  The full-shape sweep
#: clears 5x comfortably; the smoke shape has smaller batches (less
#: vectorization to amortize the Python loop against), so CI gets a floor.
MIN_BATCH_SPEEDUP = 2.0 if _SMOKE else 5.0

#: Minimum speedup of the serial fixed point over the stacked solver on
#: one scenario, the premise of routing single solves to the serial one.
MIN_SINGLE_SOLVE_SPEEDUP = 2.0


def test_engine_solo_solve(benchmark, ctx):
    engine = ctx.engine("e5649")
    app = get_application("canneal")
    run = benchmark(lambda: engine.baseline(app))
    assert run.target.execution_time_s > 0


def test_engine_full_colocation_solve(benchmark, ctx):
    engine = ctx.engine("e5-2697v2")
    canneal = get_application("canneal")
    cg = get_application("cg")
    run = benchmark(lambda: engine.run(canneal, [cg] * 11))
    assert len(run.runs) == 12


def test_model_fit_linear(benchmark, ctx):
    from repro.core.feature_sets import FeatureSet
    from repro.core.features import feature_matrix
    from repro.core.linear import LinearModel

    X, y = feature_matrix(list(ctx.dataset("e5649")), FeatureSet.F.features)
    model = benchmark(lambda: LinearModel().fit(X, y))
    assert model.is_fitted


def test_model_fit_neural(benchmark, ctx):
    from repro.core.feature_sets import FeatureSet
    from repro.core.features import feature_matrix
    from repro.core.neural import NeuralNetworkModel

    X, y = feature_matrix(list(ctx.dataset("e5649")), FeatureSet.F.features)
    model = benchmark.pedantic(
        lambda: NeuralNetworkModel(hidden_units=20, n_restarts=1).fit(
            X, y, rng=np.random.default_rng(0)
        ),
        rounds=3,
        iterations=1,
    )
    assert model.is_fitted


def _table5_kwargs():
    """A Table V sweep: full-shape by default, reduced under REPRO_SMOKE."""
    target_names = ("canneal", "ep") if _SMOKE else ("canneal", "sp", "fluidanimate", "ep")
    counts = (1, 3) if _SMOKE else (1, 2, 3, 4, 5)
    return dict(
        targets=[get_application(n) for n in target_names],
        co_apps=[get_application(n) for n in ("cg", "ep")],
        counts=counts,
    )


def _per_scenario_times(engine, *, targets, co_apps, counts):
    """The Table V nest as one ``engine.run`` per scenario.

    This is the single-solve path the scheduler takes.  Each scenario
    draws its noise from the child stream ``collect_training_data`` gives
    it, so the times equal the collected dataset's.
    """
    scenarios = [
        (target, co_app, count, pstate)
        for pstate in engine.processor.pstates
        for target in targets
        for co_app in co_apps
        for count in counts
    ]
    streams = spawn_streams(np.random.default_rng(2015), len(scenarios))
    return [
        engine.run(
            target, [co_app] * count, pstate=pstate, rng=stream
        ).target.execution_time_s
        for (target, co_app, count, pstate), stream in zip(scenarios, streams)
    ]


def test_table5_collection_warm_cache_speedup(benchmark):
    """A warm SolveCache must make the Table V sweep >= 3x faster,

    and serve *exactly* the times a cache-less engine produces (noise is
    applied outside the memoized solve).  Runs one solve per scenario on
    purpose: this bench guards the cache's speedup on the single-solve
    path, which the stacked solver's own cold-path speed would mask.
    """
    kwargs = _table5_kwargs()
    cached_engine = SimulationEngine(XEON_E5649, cache=SolveCache())

    start = time.perf_counter()
    cold = _per_scenario_times(SimulationEngine(XEON_E5649), **kwargs)
    cold_s = time.perf_counter() - start

    _per_scenario_times(cached_engine, **kwargs)  # warm up
    start = time.perf_counter()
    warm = _per_scenario_times(cached_engine, **kwargs)
    warm_s = time.perf_counter() - start

    assert warm == cold
    assert cached_engine.stats.cache_hit_rate > 0.4  # second sweep all hits
    assert cached_engine.stats.convergence_failures == 0
    assert cold_s >= 3.0 * warm_s, (
        f"warm cache too slow: cold {cold_s * 1e3:.1f} ms vs "
        f"warm {warm_s * 1e3:.1f} ms"
    )
    print(f"\ncold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms "
          f"({cold_s / warm_s:.1f}x)\n"
          + samples_text(cached_engine.stats.render_prometheus()))
    benchmark(lambda: _per_scenario_times(cached_engine, **kwargs))


def test_parallel_collection_matches_serial(benchmark):
    """workers=4 must return the bit-identical dataset, timed as a bench."""
    kwargs = _table5_kwargs()
    engine = SimulationEngine(XEON_E5649)
    apps = sorted(set(kwargs["targets"] + kwargs["co_apps"]), key=lambda a: a.name)
    baselines = collect_baselines(engine, apps)
    serial = collect_training_data(
        engine, baselines=baselines, rng=np.random.default_rng(2015), **kwargs
    )
    parallel = benchmark.pedantic(
        lambda: collect_training_data(
            engine, baselines=baselines, rng=np.random.default_rng(2015),
            workers=4, **kwargs
        ),
        rounds=1,
        iterations=1,
    )
    assert [o.actual_time_s for o in parallel] == [
        o.actual_time_s for o in serial
    ]


def test_batched_collection_speedup(benchmark, record):
    """Collection must beat one solve per scenario >= 5x (2x smoke) on a

    full-testbed sweep, while producing the bit-identical times.  Both
    engines start with fresh (cold) SolveCaches so the comparison measures
    the stacked solver against the single-scenario fixed point, not
    memoization.  Persists the numbers to ``results/BENCH_engine.json``.
    """
    kwargs = _table5_kwargs()
    apps = sorted(set(kwargs["targets"] + kwargs["co_apps"]), key=lambda a: a.name)
    baselines = collect_baselines(
        SimulationEngine(XEON_E5649, cache=SolveCache()), apps
    )

    def collect():
        engine = SimulationEngine(XEON_E5649, cache=SolveCache())
        start = time.perf_counter()
        dataset = collect_training_data(
            engine,
            baselines=baselines,
            rng=np.random.default_rng(2015),
            **kwargs,
        )
        return engine, dataset, time.perf_counter() - start

    start = time.perf_counter()
    serial_times = _per_scenario_times(
        SimulationEngine(XEON_E5649, cache=SolveCache()), **kwargs
    )
    serial_s = time.perf_counter() - start
    engine, batched_ds, batched_s = benchmark.pedantic(
        collect, rounds=1, iterations=1
    )

    batched_times = [o.actual_time_s for o in batched_ds]
    bit_identical = serial_times == batched_times
    assert bit_identical, "batched collection diverged from serial"
    speedup = serial_s / batched_s
    scenarios = len(batched_times)
    stats = engine.stats
    assert stats.batches > 0 and stats.batched_scenarios >= scenarios
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched collection only {speedup:.2f}x faster than serial "
        f"(need >= {MIN_BATCH_SPEEDUP}x): serial {serial_s * 1e3:.1f} ms, "
        f"batched {batched_s * 1e3:.1f} ms"
    )
    print(
        f"\nserial {serial_s * 1e3:.1f} ms ({scenarios / serial_s:.0f} "
        f"scenarios/s), batched {batched_s * 1e3:.1f} ms "
        f"({scenarios / batched_s:.0f} scenarios/s), speedup {speedup:.2f}x\n"
        + samples_text(stats.render_prometheus())
    )
    record(
        "BENCH_engine.json",
        collection_scenarios=scenarios,
        serial_collection_s=serial_s,
        batched_collection_s=batched_s,
        serial_scenarios_per_s=scenarios / serial_s,
        batched_scenarios_per_s=scenarios / batched_s,
        batched_speedup=speedup,
        bit_identical=bit_identical,
        batches=stats.batches,
        batch_dedupe_hits=stats.batch_dedupe_hits,
        frozen_iterations_saved=stats.frozen_iterations_saved,
        smoke=_SMOKE,
    )


def test_table5_12core_collection_ratio(benchmark, record):
    """The E5-2697v2 Table V sweep's stacked-over-serial ratio, recorded.

    Its rows put up to eleven copies of one co-app next to the target,
    which is where one stacked column per distinct application saves
    most.  The sweep is the full-shape targets and co-apps of
    :func:`test_batched_collection_speedup` at the machine's Table V
    counts (the smallest and largest under ``REPRO_SMOKE``).  No floor
    is asserted; the ratio and the bit-identity verdict go to
    ``results/BENCH_engine.json``.
    """
    kwargs = _table5_kwargs()
    counts = setup_for(XEON_E5_2697V2).co_location_counts
    kwargs["counts"] = (counts[0], counts[-1]) if _SMOKE else counts
    apps = sorted(set(kwargs["targets"] + kwargs["co_apps"]), key=lambda a: a.name)
    baselines = collect_baselines(
        SimulationEngine(XEON_E5_2697V2, cache=SolveCache()), apps
    )

    def collect():
        engine = SimulationEngine(XEON_E5_2697V2, cache=SolveCache())
        start = time.perf_counter()
        dataset = collect_training_data(
            engine,
            baselines=baselines,
            rng=np.random.default_rng(2015),
            **kwargs,
        )
        return dataset, time.perf_counter() - start

    start = time.perf_counter()
    serial_times = _per_scenario_times(
        SimulationEngine(XEON_E5_2697V2, cache=SolveCache()), **kwargs
    )
    serial_s = time.perf_counter() - start
    dataset, batched_s = benchmark.pedantic(collect, rounds=1, iterations=1)
    speedup = serial_s / batched_s
    print(
        f"\ne5-2697v2: {len(dataset)} scenarios, serial {serial_s * 1e3:.1f} ms, "
        f"batched {batched_s * 1e3:.1f} ms, speedup {speedup:.2f}x"
    )
    record(
        "BENCH_engine.json",
        e5_2697v2_collection_scenarios=len(dataset),
        e5_2697v2_serial_collection_s=serial_s,
        e5_2697v2_batched_collection_s=batched_s,
        e5_2697v2_batched_speedup=speedup,
        e5_2697v2_bit_identical=serial_times
        == [o.actual_time_s for o in dataset],
        smoke=_SMOKE,
    )


def _random_mixes(processor, count, seed):
    """Scheduler-shaped scenarios: 1..num_cores catalog apps, any P-state."""
    rng = np.random.default_rng(seed)
    catalog = all_applications()
    mixes = []
    for _ in range(count):
        n = int(rng.integers(1, processor.num_cores + 1))
        apps = tuple(catalog[i] for i in rng.integers(len(catalog), size=n))
        pstate = processor.pstates[int(rng.integers(len(processor.pstates)))]
        mixes.append((apps, pstate))
    return mixes


def _state_fields(state):
    return (
        state.iterations,
        state.seconds_per_instruction.tolist(),
        state.miss_ratios.tolist(),
        state.occupancies_bytes.tolist(),
        state.miss_bandwidth_bytes_per_s,
        state.dram_utilization,
        state.dram_latency_ns,
    )


def test_single_solve_cost(benchmark, record):
    """One scenario must cost >= 2x less on the serial fixed point than as

    a one-request stacked solve, with the bit-identical result.  This is
    why single-scenario callers (the scheduler, the fleet model) take the
    serial solver.  Neither engine has a cache, so every call solves.
    Persists ms per solve and us per iteration of both solvers to
    ``results/BENCH_engine.json``.
    """
    mixes = _random_mixes(XEON_E5649, 60 if _SMOKE else 300, seed=16)
    engine = SimulationEngine(XEON_E5649)

    def serial_pass():
        start = time.perf_counter()
        states = [engine.solve_steady_state(apps, pstate) for apps, pstate in mixes]
        return states, time.perf_counter() - start

    def stacked_pass():
        start = time.perf_counter()
        states = [
            engine.solve_steady_state_batched(
                [SolveRequest(apps=apps, pstate=pstate)]
            )[0]
            for apps, pstate in mixes
        ]
        return states, time.perf_counter() - start

    serial, serial_s = benchmark.pedantic(serial_pass, rounds=1, iterations=1)
    stacked, stacked_s = stacked_pass()
    bit_identical = [_state_fields(s) for s in serial] == [
        _state_fields(s) for s in stacked
    ]
    assert bit_identical, "serial and stacked solves diverged"
    iterations = sum(state.iterations for state in serial)
    speedup = stacked_s / serial_s
    assert speedup >= MIN_SINGLE_SOLVE_SPEEDUP, (
        f"serial solve only {speedup:.2f}x faster than a one-request stacked "
        f"solve (need >= {MIN_SINGLE_SOLVE_SPEEDUP}x): serial "
        f"{serial_s / len(mixes) * 1e3:.3f} ms, stacked "
        f"{stacked_s / len(mixes) * 1e3:.3f} ms per solve"
    )
    print(
        f"\n{len(mixes)} mixes, {iterations / len(mixes):.1f} iterations per "
        f"solve: serial {serial_s / len(mixes) * 1e3:.3f} ms "
        f"({serial_s / iterations * 1e6:.1f} us/iteration), stacked "
        f"{stacked_s / len(mixes) * 1e3:.3f} ms "
        f"({stacked_s / iterations * 1e6:.1f} us/iteration), {speedup:.2f}x"
    )
    record(
        "BENCH_engine.json",
        single_solve_mixes=len(mixes),
        single_solve_iterations=iterations,
        serial_single_solve_ms=serial_s / len(mixes) * 1e3,
        serial_us_per_iteration=serial_s / iterations * 1e6,
        stacked_single_solve_ms=stacked_s / len(mixes) * 1e3,
        stacked_us_per_iteration=stacked_s / iterations * 1e6,
        single_solve_speedup=speedup,
        single_solve_bit_identical=bit_identical,
    )
