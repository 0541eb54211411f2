"""Batched steady-state solver: bit-identity, cache integration, freezing.

The contract under test is exact: for every scenario, the batched solver
must reproduce the serial per-scenario solve *bit for bit* — same
iteration counts, same float64 values — because collected datasets must
not depend on whether (or how) scenarios were batched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.reuse import ProfileStack, ProfileTable, ReuseProfile, ordered_sum
from repro.cache.sharing import waterfill_batched, waterfill_floats
from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.sim import (
    BatchConvergenceError,
    ConvergenceError,
    SimulationEngine,
    SolveCache,
    SolveRequest,
)
from repro.workloads import all_applications, get_application


def assert_states_identical(serial, batched):
    assert serial.iterations == batched.iterations
    assert np.array_equal(
        serial.seconds_per_instruction, batched.seconds_per_instruction
    )
    assert np.array_equal(serial.miss_ratios, batched.miss_ratios)
    assert np.array_equal(serial.occupancies_bytes, batched.occupancies_bytes)
    assert serial.miss_bandwidth_bytes_per_s == batched.miss_bandwidth_bytes_per_s
    assert serial.dram_utilization == batched.dram_utilization
    assert serial.dram_latency_ns == batched.dram_latency_ns


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize(
    "processor,counts",
    [(XEON_E5649, (1, 3, 5)), (XEON_E5_2697V2, (1, 3, 5, 7, 9, 11))],
    ids=["e5649", "e5-2697v2"],
)
def test_batched_bit_identical_to_serial_table5_sweep(processor, counts):
    """Full Table V-style sweep: every app count, co-app, and P-state."""
    targets = [get_application(n) for n in ("canneal", "sp", "fluidanimate", "ep")]
    co_apps = [get_application(n) for n in ("cg", "ep")]
    requests = [
        SolveRequest(apps=(target,) + (co,) * count, pstate=pstate)
        for pstate in processor.pstates
        for target in targets
        for co in co_apps
        for count in counts
    ]
    serial_engine = SimulationEngine(processor)
    batch_engine = SimulationEngine(processor)
    serial = [serial_engine.solve_steady_state(r.apps, r.pstate) for r in requests]
    batched = batch_engine.solve_steady_state_batched(requests)
    assert len(batched) == len(requests)
    for a, b in zip(serial, batched):
        assert_states_identical(a, b)


def test_batched_mixed_widths_and_pstates_in_one_batch():
    """Solo, mid-width, and full-width scenarios at different P-states."""
    proc = XEON_E5649
    cg, ep, canneal = (get_application(n) for n in ("cg", "ep", "canneal"))
    slow, fast = proc.pstates[0], proc.pstates.fastest
    requests = [
        SolveRequest(apps=(canneal,), pstate=fast),
        SolveRequest(apps=(canneal, cg, cg, cg), pstate=slow),
        SolveRequest(apps=(ep, cg, cg, cg, cg, cg), pstate=fast),
        SolveRequest(apps=(cg, ep, ep), pstate=slow),
    ]
    serial = [
        SimulationEngine(proc).solve_steady_state(r.apps, r.pstate)
        for r in requests
    ]
    batched = SimulationEngine(proc).solve_steady_state_batched(requests)
    for a, b in zip(serial, batched):
        assert_states_identical(a, b)


def test_batched_pinned_occupancies_match_serial():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    cap = float(proc.llc.size_bytes)
    requests = [
        SolveRequest(apps=(cg, ep), fixed_occupancies=(cap / 2, cap / 4)),
        SolveRequest(apps=(cg, ep, ep)),
        SolveRequest(apps=(ep,), fixed_occupancies=(cap / 8,)),
    ]
    eng = SimulationEngine(proc)
    serial = [
        SimulationEngine(proc).solve_steady_state(
            r.apps,
            r.pstate,
            fixed_occupancies=(
                None
                if r.fixed_occupancies is None
                else np.asarray(r.fixed_occupancies, dtype=float)
            ),
        )
        for r in requests
    ]
    batched = eng.solve_steady_state_batched(requests)
    for a, b in zip(serial, batched):
        assert_states_identical(a, b)


@pytest.mark.parametrize(
    "processor", [XEON_E5649, XEON_E5_2697V2], ids=["e5649", "e5-2697v2"]
)
def test_serial_matches_stacked_on_random_mixed_co_runner_sets(processor):
    """The scheduler's shape: any mix of catalog apps, not N copies of one.

    Mixes of 1..num_cores apps are drawn with replacement from the
    catalog at random P-states, one in five with pinned occupancies; the
    serial solve must equal a one-request stacked solve on every field.
    """
    rng = np.random.default_rng(16)
    catalog = all_applications()
    capacity = float(processor.llc.size_bytes)
    serial_engine = SimulationEngine(processor)
    stacked_engine = SimulationEngine(processor)
    for _ in range(40):
        n = int(rng.integers(1, processor.num_cores + 1))
        apps = tuple(catalog[i] for i in rng.integers(len(catalog), size=n))
        pstate = processor.pstates[int(rng.integers(len(processor.pstates)))]
        fixed = None
        if rng.integers(5) == 0:
            share = rng.dirichlet(np.ones(n)) * rng.uniform(0.2, 1.0)
            fixed = tuple((share * capacity).tolist())
        serial = serial_engine.solve_steady_state(
            apps, pstate, fixed_occupancies=fixed
        )
        (stacked,) = stacked_engine.solve_steady_state_batched(
            [SolveRequest(apps=apps, pstate=pstate, fixed_occupancies=fixed)]
        )
        assert_states_identical(serial, stacked)


@pytest.mark.parametrize("slot", [1, 3])
def test_nan_base_cpi_in_a_co_runner_slot_never_converges(slot):
    """A NaN in any slot, not just the first, must fail the convergence test."""
    from dataclasses import replace as dc_replace

    cg, ep = get_application("cg"), get_application("ep")
    apps = [cg, ep, cg, ep]
    apps[slot] = dc_replace(apps[slot], base_cpi=float("nan"))
    engine = SimulationEngine(XEON_E5649)
    with pytest.raises(ConvergenceError, match="did not converge"):
        engine.solve_steady_state(tuple(apps))
    assert engine.stats.convergence_failures == 1


def test_batched_relabels_apps_and_pstate_per_member():
    """Dedupe members get their own apps/pstate back, not the solved twin's."""
    proc = XEON_E5649
    cg = get_application("cg")
    # Same behaviour, different identity: the solve key ignores names.
    from dataclasses import replace as dc_replace

    cg_alias = dc_replace(cg, name="cg-alias")
    requests = [SolveRequest(apps=(cg,)), SolveRequest(apps=(cg_alias,))]
    engine = SimulationEngine(proc)
    states = engine.solve_steady_state_batched(requests)
    assert states[0].apps[0].name == "cg"
    assert states[1].apps[0].name == "cg-alias"
    assert engine.stats.solves == 1
    assert engine.stats.batch_dedupe_hits == 1


def test_members_with_the_same_labels_share_the_solved_state():
    """Only a member whose apps or P-state differ gets a relabelled copy."""
    from dataclasses import replace as dc_replace

    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    cg_alias = dc_replace(cg, name="cg-alias")
    engine = SimulationEngine(proc, cache=SolveCache())
    requests = [(cg, ep), (cg, ep), (cg_alias, ep)]
    states = engine.solve_steady_state_batched(requests)
    assert states[1] is states[0]
    assert states[2] is not states[0]
    assert states[2].apps == (cg_alias, ep)
    assert_states_identical(states[0], states[2])
    # A later cache hit with the same labels is served without a copy.
    (again,) = engine.solve_steady_state_batched([(cg, ep)])
    assert again is states[0]


def test_bare_app_tuples_accepted_as_requests():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    engine = SimulationEngine(proc)
    states = engine.solve_steady_state_batched([(cg, ep), (ep,)])
    serial = SimulationEngine(proc).solve_steady_state((cg, ep))
    assert_states_identical(serial, states[0])
    assert states[1].pstate is proc.pstates.fastest


def test_empty_batch_returns_empty_list():
    engine = SimulationEngine(XEON_E5649)
    assert engine.solve_steady_state_batched([]) == []
    assert engine.stats.batches == 0


def test_batch_validation_names_offending_scenario():
    proc = XEON_E5649
    cg = get_application("cg")
    engine = SimulationEngine(proc)
    with pytest.raises(ValueError, match="batch scenario 1"):
        engine.solve_steady_state_batched(
            [SolveRequest(apps=(cg,)), SolveRequest(apps=())]
        )
    with pytest.raises(ValueError, match="batch scenario 0"):
        engine.solve_steady_state_batched(
            [SolveRequest(apps=(cg,) * (proc.num_cores + 1))]
        )
    with pytest.raises(ValueError, match="batch scenario 0.*occupancy"):
        engine.solve_steady_state_batched(
            [SolveRequest(apps=(cg,), fixed_occupancies=(1.0, 2.0))]
        )


def test_batch_rejects_non_finite_pinned_occupancies():
    cg = get_application("cg")
    engine = SimulationEngine(XEON_E5649)
    with pytest.raises(
        ValueError, match="batch scenario 1: fixed_occupancies must be finite"
    ):
        engine.solve_steady_state_batched(
            [
                SolveRequest(apps=(cg,)),
                SolveRequest(apps=(cg, cg), fixed_occupancies=(1e6, float("nan"))),
            ]
        )
    assert engine.stats.convergence_failures == 0


# -------------------------------------------------------- failure handling


def test_batch_convergence_error_names_scenario_and_keeps_good_states():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    good = SolveRequest(apps=(ep,))
    bad = SolveRequest(apps=(cg, ep, ep), pstate=proc.pstates[0])
    # Cap the iterations between the two scenarios' convergence points so
    # exactly one member of the batch fails.
    ref_engine = SimulationEngine(proc)
    good_iters = ref_engine.solve_steady_state(good.apps).iterations
    bad_iters = ref_engine.solve_steady_state(bad.apps, bad.pstate).iterations
    assert good_iters < bad_iters
    engine = SimulationEngine(proc, max_iterations=good_iters)
    with pytest.raises(BatchConvergenceError) as excinfo:
        engine.solve_steady_state_batched([good, bad])
    err = excinfo.value
    assert len(err.failures) == 1
    failure = err.failures[0]
    assert failure.index == 1
    assert failure.target == "cg"
    assert failure.co_runners == ("ep", "ep")
    assert failure.frequency_ghz == proc.pstates[0].frequency_ghz
    assert "cg" in str(err) and "batch index 1" in str(err)
    # The non-diverging scenario still produced a result.
    assert err.states[1] is None
    ref = SimulationEngine(proc, max_iterations=good_iters).solve_steady_state(
        good.apps
    )
    assert_states_identical(ref, err.states[0])
    assert engine.stats.convergence_failures == 1


# ------------------------------------------------------- cache integration


def test_cache_hits_served_without_entering_batch():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    engine = SimulationEngine(proc, cache=SolveCache())
    warm = engine.solve_steady_state((cg, ep))
    solves_before = engine.stats.solves
    states = engine.solve_steady_state_batched(
        [SolveRequest(apps=(cg, ep)), SolveRequest(apps=(ep,))]
    )
    # The warm scenario was a pure cache hit; only the cold one solved.
    assert engine.stats.solves == solves_before + 1
    assert engine.stats.cache_hits == 1
    assert_states_identical(warm, states[0])


def test_duplicate_keys_in_one_batch_are_solved_and_inserted_once():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    cache = SolveCache()
    engine = SimulationEngine(proc, cache=cache)
    requests = [
        SolveRequest(apps=(cg, ep)),
        SolveRequest(apps=(ep,)),
        SolveRequest(apps=(cg, ep)),
        SolveRequest(apps=(cg, ep)),
    ]
    states = engine.solve_steady_state_batched(requests)
    assert engine.stats.solves == 2  # two unique keys
    assert engine.stats.batch_dedupe_hits == 2
    assert engine.stats.cache_misses == 2  # one lookup per unique key
    assert len(cache) == 2  # each unique result inserted exactly once
    assert_states_identical(states[0], states[2])
    assert_states_identical(states[0], states[3])


def test_dedupe_works_without_a_cache():
    proc = XEON_E5649
    cg = get_application("cg")
    engine = SimulationEngine(proc)  # no cache
    states = engine.solve_steady_state_batched(
        [SolveRequest(apps=(cg,)), SolveRequest(apps=(cg,))]
    )
    assert engine.stats.solves == 1
    assert engine.stats.batch_dedupe_hits == 1
    assert_states_identical(states[0], states[1])


def test_warm_batch_does_zero_fixed_point_iterations():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    engine = SimulationEngine(proc, cache=SolveCache())
    requests = [SolveRequest(apps=(cg, ep)), SolveRequest(apps=(ep,))]
    cold = engine.solve_steady_state_batched(requests)
    solves = engine.stats.solves
    iteration_counts = dict(engine.stats.iteration_counts)
    warm = engine.solve_steady_state_batched(requests)
    assert engine.stats.solves == solves
    assert engine.stats.iteration_counts == iteration_counts
    assert engine.stats.cache_hits == 2
    for a, b in zip(cold, warm):
        assert_states_identical(a, b)


# --------------------------------------------------------- stats counters


def test_batched_stats_counters_and_summary():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    engine = SimulationEngine(proc)
    engine.solve_steady_state_batched(
        [
            SolveRequest(apps=(cg, ep, ep)),
            SolveRequest(apps=(ep,)),
            SolveRequest(apps=(ep,)),
        ]
    )
    stats = engine.stats
    assert stats.batches == 1
    assert stats.batched_scenarios == 3
    assert stats.batch_dedupe_hits == 1
    # The narrow solo solve converges before the 3-wide one: freezing saves
    # the difference in iterations.
    per_iter = sorted(stats.iteration_counts)
    assert stats.frozen_iterations_saved == max(per_iter) - min(per_iter)
    merged = type(stats)()
    merged.merge(stats)
    assert merged.batches == 1
    assert merged.frozen_iterations_saved == stats.frozen_iterations_saved


def test_batched_counters_rendered_in_metrics_exposition():
    proc = XEON_E5649
    engine = SimulationEngine(proc)
    engine.solve_steady_state_batched(
        [SolveRequest(apps=(get_application("ep"),))]
    )
    text = engine.stats.render_prometheus()
    assert "repro_engine_batches_total 1" in text
    assert "repro_engine_batched_scenarios_total 1" in text
    assert "repro_engine_batch_dedupe_hits_total 0" in text
    assert "repro_engine_frozen_iterations_saved_total 0" in text


# ------------------------------------------------- vectorized ingredients


def test_ordered_sum_invariant_under_zero_padding():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 5.0, size=7)
    padded = np.zeros((2, 12))
    padded[0, :7] = x
    padded[1, :7] = x[::-1]
    assert float(ordered_sum(x)) == float(ordered_sum(padded)[0])
    assert float(ordered_sum(x[::-1])) == float(ordered_sum(padded)[1])


def test_profile_stack_matches_profile_table_bitwise():
    rng = np.random.default_rng(5)
    apps = all_applications()
    rows = [
        [apps[i].reuse for i in rng.choice(len(apps), size=n, replace=True)]
        for n in (1, 3, 6)
    ]
    stack = ProfileStack(rows, pad_apps=6)
    occ = np.zeros((3, 6))
    for i, row in enumerate(rows):
        occ[i, : len(row)] = rng.uniform(0.0, 2**21, size=len(row))
    batched = stack.miss_ratio(occ)
    for i, row in enumerate(rows):
        serial = ProfileTable(row).miss_ratio_floats(occ[i, : len(row)].tolist())
        assert np.array_equal(serial, batched[i, : len(row)])
        # Pad columns are exactly zero-miss contributions.
        assert np.all(batched[i, len(row) :] == 0.0)


def test_waterfill_batched_matches_serial_bitwise():
    rng = np.random.default_rng(9)
    capacity = 12 * 2**20
    widths = (1, 2, 4, 6)
    a = max(widths)
    pressure = np.zeros((len(widths), a))
    demand = np.zeros((len(widths), a))
    slots = np.zeros((len(widths), a), dtype=int)
    for i, n in enumerate(widths):
        pressure[i, :n] = rng.uniform(0.0, 1.0, size=n)
        demand[i, :n] = rng.uniform(0.0, 1.5, size=n) * capacity
        slots[i, :n] = np.arange(1, n + 1)
    batched = waterfill_batched(pressure, demand, capacity, slots)
    for i, n in enumerate(widths):
        serial = waterfill_floats(
            pressure[i, :n].tolist(), demand[i, :n].tolist(), capacity
        )
        assert np.array_equal(serial, batched[i, :n])
        assert np.all(batched[i, n:] == 0.0)


def test_waterfill_batched_zero_pressure_even_split_excludes_pads():
    capacity = 1000.0
    pressure = np.zeros((1, 4))
    demand = np.array([[600.0, 600.0, 0.0, 0.0]])
    slots = np.array([[1, 2, 0, 0]])
    alloc = waterfill_batched(pressure, demand, capacity, slots)
    serial = waterfill_floats([0.0, 0.0], [600.0, 600.0], capacity)
    assert np.array_equal(alloc[0, :2], serial)
    assert np.all(alloc[0, 2:] == 0.0)


def test_waterfill_batched_shape_validation():
    slots = np.ones((2, 3), dtype=int)
    with pytest.raises(ValueError, match="matching"):
        waterfill_batched(np.zeros((2, 3)), np.zeros((2, 4)), 10.0, slots)
    with pytest.raises(ValueError, match="matching"):
        waterfill_batched(np.zeros(3), np.zeros(3), 10.0, slots)
    with pytest.raises(ValueError, match="slots"):
        waterfill_batched(np.zeros((2, 3)), np.zeros((2, 3)), 10.0, slots[:1])


def _waterfill_per_slot(pressure, demand, capacity, slots):
    """Each row of a column waterfill, and ``waterfill_floats`` over the
    row's per-slot values, both laid out per slot."""
    batched = waterfill_batched(pressure, demand, capacity, slots)
    capacity = np.broadcast_to(capacity, (len(slots),))
    for s, row in enumerate(slots):
        columns = row[row > 0] - 1
        serial = waterfill_floats(
            pressure[s, columns].tolist(), demand[s, columns].tolist(), capacity[s]
        )
        unread = np.setdiff1d(np.arange(pressure.shape[1]), columns)
        yield serial, batched[s, columns].tolist(), batched[s, unread]


def test_waterfill_batched_columns_match_serial_per_slot():
    """Rows that clip in round 1, never clip, need three rounds, or have
    no pressure (even split), in one call with per-row capacities."""
    pressure = np.array(
        [
            [1.0, 1.0, 1.0],  # column 1 clips in round 1, then done
            [1.0, 2.0, 3.0],  # everything fits its share: one round
            [1.0, 1.0, 1.0],  # one column clips per round: three rounds
            [0.0, 0.0, 0.0],  # no pressure: even split over five slots
            [0.3, 0.7, 0.0],  # a column no slot reads
        ]
    )
    demand = np.array(
        [
            [1.0, 50.0, 50.0],
            [90.0, 90.0, 90.0],
            [1.0, 2.8, 100.0],
            [50.0, 50.0, 50.0],
            [5.0, 50.0, 7.0],
        ]
    )
    capacity = np.array([12.0, 12.0, 10.0, 10.0, 20.0])
    slots = np.array(
        [
            [1, 2, 1, 3, 2, 0],
            [3, 1, 2, 0, 0, 0],
            [1, 2, 3, 3, 0, 0],
            [2, 2, 1, 3, 2, 0],
            [1, 2, 2, 1, 0, 0],
        ]
    )
    rows = list(_waterfill_per_slot(pressure, demand, capacity, slots))
    for serial, batched, unread in rows:
        assert batched == serial
        assert np.all(unread == 0.0)
    assert rows[2][1] == pytest.approx([1.0, 2.8, 3.1, 3.1])
    assert rows[3][1] == [2.0] * 5


@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.integers(1, 3), min_size=1, max_size=8),
            st.lists(st.just(0.0) | st.floats(1e-3, 4.0), min_size=3, max_size=3),
            st.lists(st.floats(0.0, 60.0), min_size=3, max_size=3),
            st.floats(0.0, 100.0),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_waterfill_batched_columns_match_serial(rows):
    slots = np.zeros((len(rows), 8), dtype=int)
    for s, (row, _, _, _) in enumerate(rows):
        slots[s, : len(row)] = row
    pressure = np.array([p for _, p, _, _ in rows])
    demand = np.array([d for _, _, d, _ in rows])
    capacity = np.array([c for _, _, _, c in rows])
    for serial, batched, unread in _waterfill_per_slot(
        pressure, demand, capacity, slots
    ):
        assert batched == serial
        assert np.all(unread == 0.0)


def _serial_states(processor, requests):
    engine = SimulationEngine(processor)
    return [
        engine.solve_steady_state(
            r.apps,
            r.pstate,
            fixed_occupancies=(
                None
                if r.fixed_occupancies is None
                else np.asarray(r.fixed_occupancies, dtype=float)
            ),
        )
        for r in requests
    ]


@pytest.mark.parametrize(
    "processor", [XEON_E5649, XEON_E5_2697V2], ids=["e5649", "e5-2697v2"]
)
def test_stacked_columns_match_serial_on_repeats_and_pinned_copies(processor):
    """Repeats in scattered slot orders, a target that is also the
    co-runner, every width, and pinned copies of one app that hold
    different occupancies, all in one batch."""
    cg, ep, canneal, sp = (get_application(n) for n in ("cg", "ep", "canneal", "sp"))
    cap = float(processor.llc.size_bytes)
    slow, fast = processor.pstates.slowest, processor.pstates.fastest
    pool = (cg, ep, canneal, sp)
    requests = [
        SolveRequest(apps=(canneal, cg, canneal, ep, cg), pstate=fast),
        SolveRequest(apps=(cg,) * 6, pstate=slow),
        SolveRequest(apps=(cg,) * processor.num_cores, pstate=fast),
        SolveRequest(apps=(ep, sp, sp, ep, cg, sp), pstate=slow),
        SolveRequest(
            apps=(cg, ep, cg), fixed_occupancies=(cap / 4, cap / 8, cap / 2)
        ),
        SolveRequest(
            apps=(canneal, canneal), pstate=slow, fixed_occupancies=(cap / 3, cap / 6)
        ),
    ]
    requests += [
        SolveRequest(
            apps=tuple(pool[(n + j * j) % 3] for j in range(n)),
            pstate=processor.pstates[n % len(processor.pstates)],
        )
        for n in range(1, processor.num_cores + 1)
    ]
    stacked = SimulationEngine(processor).solve_steady_state_batched(requests)
    for serial, state in zip(_serial_states(processor, requests), stacked):
        assert_states_identical(serial, state)
    pinned = stacked[4].occupancies_bytes
    assert pinned[0] != pinned[2]


@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.integers(0, 2), min_size=1, max_size=6),
            st.integers(0, 5),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=20, deadline=None)
def test_property_stacked_columns_match_serial(rows):
    """Batches of repeated apps, pinned or not, at any P-state."""
    processor = XEON_E5649
    pool = tuple(get_application(n) for n in ("cg", "ep", "canneal"))
    cap = float(processor.llc.size_bytes)
    requests = []
    for picks, pstate, pin in rows:
        apps = tuple(pool[i] for i in picks)
        fixed = None
        if pin:
            # Copies of one app pin different occupancies, under cap / 2.
            n = len(apps)
            fixed = tuple(cap * (k + 1) / (2 * n * n) for k in range(n))
        requests.append(
            SolveRequest(
                apps=apps, pstate=processor.pstates[pstate], fixed_occupancies=fixed
            )
        )
    stacked = SimulationEngine(processor).solve_steady_state_batched(requests)
    for serial, state in zip(_serial_states(processor, requests), stacked):
        assert_states_identical(serial, state)


def test_dram_model_accepts_per_scenario_bandwidth_vectors():
    from repro.memsys.dram import DRAMModel

    proc = XEON_E5649
    model = DRAMModel(proc.dram)
    demands = np.array([0.0, 1e9, 5e9, 2e10])
    vec_util = model.utilization(demands)
    vec_lat = model.effective_latency_ns(demands)
    for i, d in enumerate(demands):
        assert float(model.utilization(float(d))) == vec_util[i]
        assert float(model.effective_latency_ns(float(d))) == vec_lat[i]


# -------------------------------------------------------------- run_batch


def test_run_batch_matches_run_with_noise():
    proc = XEON_E5649
    cg, ep = get_application("cg"), get_application("ep")
    items = [
        (cg, [ep, ep], None, np.random.default_rng(1)),
        (ep, [], proc.pstates[0], np.random.default_rng(2)),
        (ep, [cg], None, None),
    ]
    batched = SimulationEngine(proc).run_batch(items)
    serial_engine = SimulationEngine(proc)
    serial = [
        serial_engine.run(cg, [ep, ep], rng=np.random.default_rng(1)),
        serial_engine.run(ep, [], pstate=proc.pstates[0], rng=np.random.default_rng(2)),
        serial_engine.run(ep, [cg]),
    ]
    for a, b in zip(serial, batched):
        assert a.target.execution_time_s == b.target.execution_time_s
        assert a.frequency_ghz == b.frequency_ghz
        for ra, rb in zip(a.runs, b.runs):
            assert ra.execution_time_s == rb.execution_time_s
            assert ra.llc_misses == rb.llc_misses
            assert ra.occupancy_bytes == rb.occupancy_bytes
