"""Analytic steady-state co-location execution engine.

This is the fast substrate used for bulk data collection: it computes, for
one multicore processor at one P-state running a *target* application
co-located with any mix of co-runners, the steady-state execution rate of
every application and from it the target's execution time and counter
values.

The model couples three mutually-dependent quantities in one fixed point:

* per-application **throughput** (instructions/second) — depends on memory
  stalls;
* shared-LLC **occupancies** — depend on every application's insertion
  (miss) rate, which depends on throughput and occupancy;
* the loaded **DRAM latency** — depends on the aggregate miss bandwidth,
  which depends on throughput and miss ratios.

Each iteration evaluates all miss ratios through a
:class:`~repro.cache.reuse.ProfileTable`, splits the LLC with the
rate-proportional waterfill of :mod:`repro.cache.sharing`, loads DRAM
through :class:`~repro.memsys.dram.DRAMModel` and applies the stall
formula (see :data:`HIT_EXPOSURE`).  Damped iteration converges in a few
dozen steps.  The trace-driven simulator (:mod:`repro.sim.tracesim`)
checks the resulting shared-cache equilibrium.  One scenario is solved
on Python floats; a sweep is solved as one stacked fixed point over
numpy arrays, bit-identical to solving its scenarios one by one.

Co-runners are modeled as *continuously running*: the paper's test harness
restarts co-located applications so that pressure on the target stays
constant for the target's whole run — steady state is exactly the right
abstraction.  Measurement noise is a seeded multiplicative perturbation
applied to reported times only (the paper reports ~quarter-percent spread
across repetitions).
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from ..cache.reuse import (
    ProfileStack,
    ProfileTable,
    SlotLayout,
    distinct_columns,
    distinct_index,
)
from ..cache.sharing import waterfill_batched, waterfill_floats
from ..machine.pstates import PState
from ..machine.processor import MulticoreProcessor
from ..memsys.dram import DRAMModel
from ..obs.trace import get_tracer
from ..workloads.app import ApplicationSpec, PhasedApplication
from .solve_cache import GLOBAL_ENGINE_STATS, EngineStats, SolveCache, solve_key

__all__ = [
    "AppRun",
    "BatchConvergenceError",
    "BatchFailure",
    "ColocationRun",
    "ConvergenceError",
    "SimulationEngine",
    "SolveRequest",
    "SteadyState",
]

#: Exposed fraction of the LLC hit latency: out-of-order cores hide the
#: rest.  A hit costs ``HIT_EXPOSURE`` times the hit latency and a miss
#: the loaded DRAM latency over the app's memory-level parallelism.
HIT_EXPOSURE = 0.3

#: Insertion-pressure floor of the occupancy waterfill, per unit access
#: rate: even a cache-resident app streams cold misses through the LLC,
#: so its share never collapses to zero.
PRESSURE_FLOOR = 0.002


class ConvergenceError(RuntimeError):
    """Raised when the steady-state fixed point fails to converge."""


@dataclass(frozen=True)
class SolveRequest:
    """One scenario of a batched steady-state solve.

    Mirrors the arguments of :meth:`SimulationEngine.solve_steady_state`:
    the co-located applications (target first by convention), an optional
    P-state (defaults to the fastest), and optional pinned occupancies.
    """

    apps: tuple[ApplicationSpec, ...]
    pstate: PState | None = None
    fixed_occupancies: tuple[float, ...] | None = None


@dataclass(frozen=True)
class BatchFailure:
    """Identity of one scenario that failed to converge in a batch."""

    index: int
    target: str
    co_runners: tuple[str, ...]
    frequency_ghz: float

    def describe(self) -> str:
        """Human-readable scenario identity, e.g. for error messages."""
        counts = Counter(self.co_runners)
        co = (
            " + ".join(f"{n}x {name!r}" for name, n in counts.items())
            or "no co-runners"
        )
        return (
            f"[batch index {self.index}] target {self.target!r} with {co} "
            f"at {self.frequency_ghz:g} GHz"
        )


class BatchConvergenceError(ConvergenceError):
    """One or more scenarios of a batched solve failed to converge.

    Unlike the serial :class:`ConvergenceError`, a batch failure is
    partial: every *other* scenario still converged and its result is
    available in :attr:`states` (``None`` at the failing indices).

    Attributes
    ----------
    failures:
        One :class:`BatchFailure` per failing scenario, identifying the
        target, co-runner multiset, frequency, and batch index.
    states:
        Per-scenario results in request order; ``None`` where the
        scenario failed.
    """

    def __init__(
        self,
        message: str,
        failures: list[BatchFailure],
        states: list["SteadyState | None"],
    ) -> None:
        super().__init__(message)
        self.failures = failures
        self.states = states


@dataclass(frozen=True)
class SteadyState:
    """Instantaneous steady-state rates for one set of co-located apps.

    All arrays are indexed like ``apps``.  This is rate information only —
    how long anything runs (and hence counter totals) is the caller's
    concern, which is what lets the scheduler's running set reuse it for
    workloads whose membership changes over time.
    """

    apps: tuple[ApplicationSpec, ...]
    pstate: PState
    seconds_per_instruction: np.ndarray
    miss_ratios: np.ndarray
    occupancies_bytes: np.ndarray
    miss_bandwidth_bytes_per_s: float
    dram_utilization: float
    dram_latency_ns: float
    iterations: int

    @property
    def instructions_per_second(self) -> np.ndarray:
        """Per-application steady-state throughput."""
        return 1.0 / self.seconds_per_instruction


@dataclass(frozen=True)
class AppRun:
    """Steady-state result for one application in a co-location.

    Counter-style totals (instructions, accesses, misses) are reported for
    one complete run of the application at its steady-state rate.
    """

    app: ApplicationSpec
    execution_time_s: float
    instructions: float
    llc_accesses: float
    llc_misses: float
    miss_ratio: float
    occupancy_bytes: float
    instructions_per_second: float

    @property
    def memory_intensity(self) -> float:
        """LLC misses per instruction under this co-location."""
        return self.llc_misses / self.instructions if self.instructions else 0.0

    @property
    def ca_per_ins(self) -> float:
        """LLC accesses per instruction (the paper's CA/INS feature)."""
        return self.llc_accesses / self.instructions if self.instructions else 0.0

    @property
    def cm_per_ca(self) -> float:
        """LLC misses per access (the paper's CM/CA feature)."""
        return self.llc_misses / self.llc_accesses if self.llc_accesses else 0.0


@dataclass(frozen=True, eq=False)
class ColocationRun:
    """Result of simulating one co-location scenario.

    ``runs[0]`` is the target application; the rest are co-runners in the
    order given.  Machine-level state is included for analysis/debugging.

    Only the target's record is built with the run: a sweep reads nothing
    else.  The co-runners' records are built from :attr:`state` on first
    read and kept on the instance.  Equality compares every record and
    the machine-level values.
    """

    processor_name: str
    target: AppRun
    #: The steady state the records come from (the last phase's, for a
    #: phased target).
    state: SteadyState = field(repr=False)

    @cached_property
    def co_runners(self) -> tuple[AppRun, ...]:
        """All co-located applications' runs."""
        return tuple(_app_run(self.state, i) for i in range(1, len(self.state.apps)))

    @cached_property
    def runs(self) -> tuple[AppRun, ...]:
        """The target's run, then the co-runners'."""
        return (self.target,) + self.co_runners

    @property
    def frequency_ghz(self) -> float:
        """Operating frequency of the run."""
        return self.state.pstate.frequency_ghz

    @property
    def dram_utilization(self) -> float:
        """Steady-state DRAM utilization."""
        return self.state.dram_utilization

    @property
    def dram_latency_ns(self) -> float:
        """Steady-state loaded DRAM latency."""
        return self.state.dram_latency_ns

    @property
    def iterations(self) -> int:
        """Fixed-point iterations of the steady-state solve."""
        return self.state.iterations

    def _key(self) -> tuple:
        return (
            self.processor_name,
            self.frequency_ghz,
            self.runs,
            self.dram_utilization,
            self.dram_latency_ns,
            self.iterations,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _app_run(state: SteadyState, i: int, noise: float = 1.0) -> AppRun:
    """``state.apps[i]``'s record for one complete run at its steady rate.

    ``noise`` scales the reported time (the measurement noise of a
    target).  Counter totals follow from the rates; ``.item`` hands back
    Python floats, which multiply exactly as float64 scalars do.
    """
    app = state.apps[i]
    tpi = state.seconds_per_instruction.item(i)
    miss = state.miss_ratios.item(i)
    accesses = float(app.instructions * app.accesses_per_instruction)
    return AppRun(
        app=app,
        execution_time_s=float(app.instructions * tpi) * noise,
        instructions=app.instructions,
        llc_accesses=accesses,
        llc_misses=accesses * miss,
        miss_ratio=miss,
        occupancy_bytes=state.occupancies_bytes.item(i),
        instructions_per_second=1.0 / tpi,
    )


def _relabel(
    state: SteadyState, apps: tuple[ApplicationSpec, ...], pstate: PState
) -> SteadyState:
    """``state`` labelled with the requested ``apps`` and ``pstate``.

    The solve keys on behaviour only, so a cache hit or in-batch
    duplicate may carry other application or P-state objects (other
    names, run lengths); only then is a relabelled copy made, so a caller
    always gets back the very objects it passed.  ``apps`` has as many
    entries as ``state.apps``: their solve keys matched.
    """
    if state.pstate is pstate and all(map(operator.is_, state.apps, apps)):
        return state
    return replace(state, apps=apps, pstate=pstate)


class SimulationEngine:
    """Analytic co-location simulator for one multicore processor."""

    def __init__(
        self,
        processor: MulticoreProcessor,
        *,
        noise_sigma: float = 0.01,
        max_iterations: int = 600,
        rel_tolerance: float = 1e-7,
        damping: float = 0.5,
        cache: SolveCache | None = None,
    ) -> None:
        if noise_sigma < 0.0:
            raise ValueError("noise sigma must be non-negative")
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        self.processor = processor
        self.dram = DRAMModel(processor.dram)
        self.noise_sigma = noise_sigma
        self.max_iterations = max_iterations
        self.rel_tolerance = rel_tolerance
        self.damping = damping
        #: Optional memo of steady-state solves; caching is exact because
        #: measurement noise is applied outside the solve.
        self.cache = cache
        #: Running solve/cache/convergence counters (see :class:`EngineStats`).
        self.stats = EngineStats()

    # ------------------------------------------------------------------ API

    def run(
        self,
        target: ApplicationSpec | PhasedApplication,
        co_runners: list[ApplicationSpec] | tuple[ApplicationSpec, ...] = (),
        *,
        pstate: PState | None = None,
        rng: np.random.Generator | None = None,
        fixed_occupancies: np.ndarray | None = None,
    ) -> ColocationRun:
        """Simulate ``target`` co-located with ``co_runners``.

        Parameters
        ----------
        target:
            The application whose execution time is measured.  A
            :class:`PhasedApplication` is simulated phase by phase (each
            phase reaches its own steady state) and the results summed.
        co_runners:
            Applications occupying the other cores (continuously running).
            Phased co-runners are folded to their aggregate behaviour — a
            restarting co-runner's pressure time-averages over its phases,
            which is exactly what the aggregate encodes.
        pstate:
            Operating P-state; defaults to the fastest.
        rng:
            When given, multiplicative measurement noise is applied to the
            reported execution time; omit for the noise-free prediction.
        fixed_occupancies:
            When given (one byte count per application, target first),
            LLC occupancies are pinned instead of competed for — a
            way-partitioned cache (see :mod:`repro.cache.partition`).
            DRAM bandwidth remains shared.  Not supported for phased
            targets.
        """
        co_runners = [
            c.aggregate() if isinstance(c, PhasedApplication) else c
            for c in co_runners
        ]
        self.processor.validate_co_location_count(len(co_runners))
        if pstate is None:
            pstate = self.processor.pstates.fastest
        if isinstance(target, PhasedApplication):
            if fixed_occupancies is not None:
                raise ValueError(
                    "fixed occupancies are not supported for phased targets"
                )
            return self._run_phased(target, tuple(co_runners), pstate, rng)
        return self._run_steady(
            target, tuple(co_runners), pstate, rng, fixed_occupancies
        )

    def baseline(
        self,
        app: ApplicationSpec | PhasedApplication,
        *,
        pstate: PState | None = None,
        rng: np.random.Generator | None = None,
    ) -> ColocationRun:
        """Solo (no co-location) run — the paper's baseline measurement."""
        return self.run(app, (), pstate=pstate, rng=rng)

    # ------------------------------------------------------------ internals

    def _run_phased(
        self,
        target: PhasedApplication,
        co_runners: tuple[ApplicationSpec, ...],
        pstate: PState,
        rng: np.random.Generator | None,
    ) -> ColocationRun:
        total_time = 0.0
        tot_ins = tot_acc = tot_miss = 0.0
        state = run = None
        for phase_spec in target.phase_specs():
            state = self.solve_steady_state((phase_spec,) + co_runners, pstate)
            run = _app_run(state, 0)
            total_time += run.execution_time_s
            tot_ins += run.instructions
            tot_acc += run.llc_accesses
            tot_miss += run.llc_misses
        if state is None:
            raise ValueError(
                f"phased application {target.name!r} yielded no phases to "
                f"simulate"
            )
        if rng is not None and self.noise_sigma > 0.0:
            total_time *= float(np.exp(rng.normal(0.0, self.noise_sigma)))
        target_run = AppRun(
            app=target.aggregate(),
            execution_time_s=total_time,
            instructions=tot_ins,
            llc_accesses=tot_acc,
            llc_misses=tot_miss,
            miss_ratio=tot_miss / tot_acc if tot_acc else 0.0,
            occupancy_bytes=run.occupancy_bytes,
            instructions_per_second=tot_ins / total_time if total_time else 0.0,
        )
        return ColocationRun(self.processor.name, target_run, state)

    def solve_steady_state(
        self,
        apps: tuple[ApplicationSpec, ...] | list[ApplicationSpec],
        pstate: PState | None = None,
        *,
        fixed_occupancies: np.ndarray | None = None,
    ) -> "SteadyState":
        """Solve the joint throughput/occupancy/DRAM fixed point.

        The low-level entry point used by :meth:`run` and by the
        scheduler's event-driven running set
        (:class:`repro.sched.fleet.RunningSet`): given the set of
        applications currently on the machine, returns every
        application's steady-state rate and the memory-system state, with
        no notion of run length or noise.

        When the engine has a :class:`SolveCache`, solves are memoized on
        ``(processor, frequency, per-app behaviour, pinned occupancies)``
        and repeated scenarios are served from the cache bit-exactly.
        Every call is tallied in :attr:`stats` and in the process-wide
        :data:`~repro.sim.solve_cache.GLOBAL_ENGINE_STATS`; when tracing
        is enabled each call becomes an ``engine.solve`` span.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_steady_state(apps, pstate, fixed_occupancies)
        hits_before = self.stats.cache_hits
        with tracer.span("engine.solve", processor=self.processor.name) as span:
            state = self._solve_steady_state(apps, pstate, fixed_occupancies)
            span.set(
                apps=len(state.apps),
                cache_hit=self.stats.cache_hits > hits_before,
                iterations=state.iterations,
                frequency_ghz=state.pstate.frequency_ghz,
            )
            return state

    def _solve_steady_state(
        self,
        apps: tuple[ApplicationSpec, ...] | list[ApplicationSpec],
        pstate: PState | None,
        fixed_occupancies: np.ndarray | None,
    ) -> "SteadyState":
        apps = tuple(apps)
        if not apps:
            raise ValueError("need at least one application")
        if len(apps) > self.processor.num_cores:
            raise ValueError(
                f"{len(apps)} applications exceed the "
                f"{self.processor.num_cores} cores of {self.processor.name}"
            )
        if pstate is None:
            pstate = self.processor.pstates.fastest
        alloc = None
        if fixed_occupancies is not None:
            alloc = self._pinned_occupancies(fixed_occupancies, len(apps))

        key = None
        if self.cache is not None:
            key = solve_key(self.processor.name, pstate.frequency_hz, apps, alloc)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.record_hit()
                GLOBAL_ENGINE_STATS.record_hit()
                return _relabel(cached, apps, pstate)
            self.stats.record_miss()
            GLOBAL_ENGINE_STATS.record_miss()
        try:
            state = self._solve_fixed_point(apps, pstate, alloc)
        except ConvergenceError:
            self.stats.record_failure()
            GLOBAL_ENGINE_STATS.record_failure()
            raise
        self.stats.record_solve(state.iterations)
        GLOBAL_ENGINE_STATS.record_solve(state.iterations)
        if key is not None:
            if self.cache.put(key, state):
                self.stats.record_eviction()
                GLOBAL_ENGINE_STATS.record_eviction()
        return state

    def _solve_fixed_point(
        self,
        apps: tuple[ApplicationSpec, ...],
        pstate: PState,
        alloc: np.ndarray | None,
    ) -> "SteadyState":
        """One scenario's fixed point, on Python floats.

        A scenario holds at most a dozen applications, so numpy's
        per-call overhead would cost far more than the arithmetic.  Every
        per-app quantity is a list of floats, and every step is an IEEE
        basic operation in the order the stacked solver evaluates it
        elementwise, which keeps the two bit-identical.  The one numpy
        call per iteration is the reuse mixture's power inside
        :meth:`~repro.cache.reuse.ProfileTable.miss_ratio_floats`.  The
        convergence test asks every delta to be below the tolerance, so a
        NaN anywhere never reads as converged.
        """
        f_hz = pstate.frequency_hz
        capacity = float(self.processor.llc.size_bytes)
        line = float(self.processor.llc.line_bytes)
        hit_ns = self.processor.llc.hit_latency_ns * HIT_EXPOSURE
        tol = self.rel_tolerance
        latency_ns = self.dram.effective_latency_ns

        api = [float(a.accesses_per_instruction) for a in apps]
        mlp = [float(a.mlp) for a in apps]
        base = [float(a.base_cpi) / f_hz for a in apps]  # compute-only tpi
        for app, b in zip(apps, base):
            # Python raises on a zero divisor where numpy returned inf; a
            # normal (not underflowed) base keeps every tpi positive.
            if b < sys.float_info.min:
                raise ValueError(
                    f"base_cpi {app.base_cpi!r} of {app.name!r} is too small "
                    f"to simulate at {pstate.frequency_ghz:g} GHz"
                )
        table = ProfileTable([a.reuse for a in apps])
        demand = [min(fp, capacity) for fp in table.footprints.tolist()]
        # Initial iterate: footprint-proportional occupancy, stall-free speed.
        pinned = alloc is not None
        if pinned:
            # An application cannot make use of more cache than it touches.
            occ = [min(x, d) for x, d in zip(alloc.tolist(), demand)]
            fits = True  # no competition: occupancies never move
        else:
            total = 0.0
            for d in demand:
                total += d
            fits = total <= capacity
            occ = demand if fits else waterfill_floats(demand, demand, capacity)
        tpi = base  # seconds per instruction
        damp = self.damping
        iterations = 0
        converged = False
        with np.errstate(over="ignore"):
            for iterations in range(1, self.max_iterations + 1):
                # The waterfill's demand clipping makes the occupancy map
                # piecewise: near a clipping boundary the undamped
                # iteration can limit-cycle.  Decaying the damping breaks
                # such cycles while leaving well-behaved cases (which
                # converge long before this) untouched.
                if iterations % 100 == 0:
                    damp *= 0.5
                keep = 1.0 - damp
                # LLC accesses per second per app.
                rate = [a / t for a, t in zip(api, tpi)]
                miss = table.miss_ratio_floats(occ)
                if pinned:
                    occ_new = occ
                elif fits:
                    occ_new = demand
                else:
                    pressure = [
                        r * max(m, PRESSURE_FLOOR) for r, m in zip(rate, miss)
                    ]
                    target = waterfill_floats(pressure, demand, capacity)
                    occ_new = [keep * o + damp * t for o, t in zip(occ, target)]
                bandwidth = 0.0
                for r, m in zip(rate, miss):
                    bandwidth += r * m
                lat_ns = latency_ns(bandwidth * line)
                # Compute time plus, per access, the exposed hit or the
                # miss latency spread over the overlapping misses (ns).
                tpi_new = [
                    keep * t
                    + damp * (b + a * ((1.0 - m) * hit_ns + m * (lat_ns / ml)) * 1e-9)
                    for t, b, a, m, ml in zip(tpi, base, api, miss, mlp)
                ]
                done = all(
                    abs(new - old) / capacity < tol for new, old in zip(occ_new, occ)
                ) and all(abs(new - old) / old < tol for new, old in zip(tpi_new, tpi))
                occ, tpi = occ_new, tpi_new
                if done:
                    converged = True
                    break
            if not converged:
                raise ConvergenceError(
                    f"steady state did not converge in {self.max_iterations} "
                    f"iterations for {[a.name for a in apps]} on "
                    f"{self.processor.name}"
                )
            miss = table.miss_ratio_floats(occ)
        bandwidth = 0.0
        for a, t, m in zip(api, tpi, miss):
            bandwidth += a / t * m
        bandwidth *= line
        return SteadyState(
            apps=apps,
            pstate=pstate,
            seconds_per_instruction=np.array(tpi),
            miss_ratios=np.array(miss),
            occupancies_bytes=np.array(occ),
            miss_bandwidth_bytes_per_s=bandwidth,
            dram_utilization=self.dram.utilization(bandwidth),
            dram_latency_ns=latency_ns(bandwidth),
            iterations=iterations,
        )

    def _run_steady(
        self,
        target: ApplicationSpec,
        co_runners: tuple[ApplicationSpec, ...],
        pstate: PState,
        rng: np.random.Generator | None,
        fixed_occupancies: np.ndarray | None = None,
    ) -> ColocationRun:
        apps = (target,) + co_runners
        state = self.solve_steady_state(
            apps, pstate, fixed_occupancies=fixed_occupancies
        )
        return self._finish_run(state, rng)

    def _finish_run(
        self, state: SteadyState, rng: np.random.Generator | None
    ) -> ColocationRun:
        """Turn a steady state into a :class:`ColocationRun`.

        Measurement noise (the only stochastic step) is applied to the
        target's reported time here, *outside* the solve — which is what
        makes caching and batching exact.  The co-runners' records are
        left to the run, which builds them when they are first read.
        """
        noise = 1.0
        if rng is not None and self.noise_sigma > 0.0:
            noise = float(np.exp(rng.normal(0.0, self.noise_sigma)))
        return ColocationRun(self.processor.name, _app_run(state, 0, noise), state)

    # ------------------------------------------------------- batched solves

    def run_batch(
        self,
        items: Sequence[tuple],
    ) -> list[ColocationRun]:
        """Simulate many co-location scenarios with one stacked solve.

        ``items`` holds ``(target, co_runners, pstate, rng)`` tuples with
        the same meaning as the arguments of :meth:`run` (``pstate`` and
        ``rng`` may be ``None``).  Results come back in request order and
        are bit-identical to calling :meth:`run` once per item: steady
        states are advanced as one batch (phased targets fall back to the
        per-phase serial path), and measurement noise is drawn from each
        item's own ``rng`` after the solve, so batching cannot change a
        dataset.
        """
        normalized = []
        for target, co_runners, pstate, rng in items:
            co = tuple(
                c.aggregate() if isinstance(c, PhasedApplication) else c
                for c in co_runners
            )
            self.processor.validate_co_location_count(len(co))
            if pstate is None:
                pstate = self.processor.pstates.fastest
            normalized.append((target, co, pstate, rng))
        results: list[ColocationRun | None] = [None] * len(normalized)
        requests: list[SolveRequest] = []
        steady: list[int] = []
        for i, (target, co, pstate, rng) in enumerate(normalized):
            if isinstance(target, PhasedApplication):
                results[i] = self._run_phased(target, co, pstate, rng)
            else:
                steady.append(i)
                requests.append(SolveRequest(apps=(target,) + co, pstate=pstate))
        if requests:
            states = self.solve_steady_state_batched(requests)
            for i, state in zip(steady, states):
                results[i] = self._finish_run(state, normalized[i][3])
        return results

    def solve_steady_state_batched(
        self,
        requests: Sequence[
            "SolveRequest | tuple[ApplicationSpec, ...] | list[ApplicationSpec]"
        ],
    ) -> list["SteadyState"]:
        """Solve many steady states as one stacked fixed point.

        Each request is a :class:`SolveRequest` (or a bare app tuple, which
        means "fastest P-state, no pinning").  Results are bit-identical to
        calling :meth:`solve_steady_state` once per request — both paths
        share the elementwise update rules and the sequential reduction
        discipline of :func:`~repro.cache.reuse.ordered_sum` — but the
        batch advances all scenarios together over ``(S, W)`` arrays, one
        column per distinct application of each scenario, so the
        per-iteration cost is a handful of vectorized operations instead
        of a Python-level loop per scenario.

        Cache integration: hits are served before the batch forms,
        repeated :func:`~repro.sim.solve_cache.solve_key` values within
        one batch are solved once (an *in-batch dedupe hit* relabels the
        shared solve per member), and each unique miss is inserted into
        the cache exactly once.  Scenarios that converge early freeze
        (drop out of the stacked update) while the rest keep iterating.

        Raises :class:`BatchConvergenceError` naming every scenario that
        fails to converge; the error's ``states`` carries the results of
        the scenarios that did converge.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_steady_state_batched(requests)
        hits_before = self.stats.cache_hits
        solves_before = self.stats.solves
        dedupe_before = self.stats.batch_dedupe_hits
        with tracer.span(
            "engine.solve_batch", processor=self.processor.name
        ) as span:
            states = self._solve_steady_state_batched(requests)
            span.set(
                scenarios=len(states),
                cache_hits=self.stats.cache_hits - hits_before,
                dedupe_hits=self.stats.batch_dedupe_hits - dedupe_before,
                solves=self.stats.solves - solves_before,
            )
            return states

    def _normalize_request(
        self, request, index: int
    ) -> tuple[tuple[ApplicationSpec, ...], PState, np.ndarray | None]:
        if isinstance(request, SolveRequest):
            apps = tuple(request.apps)
            pstate = request.pstate
            fixed = request.fixed_occupancies
        else:
            apps, pstate, fixed = tuple(request), None, None
        if not apps:
            raise ValueError(
                f"batch scenario {index}: need at least one application"
            )
        if len(apps) > self.processor.num_cores:
            raise ValueError(
                f"batch scenario {index}: {len(apps)} applications exceed "
                f"the {self.processor.num_cores} cores of {self.processor.name}"
            )
        if pstate is None:
            pstate = self.processor.pstates.fastest
        alloc = None
        if fixed is not None:
            alloc = self._pinned_occupancies(
                fixed, len(apps), f"batch scenario {index}: "
            )
        return apps, pstate, alloc

    def _pinned_occupancies(
        self,
        fixed_occupancies: np.ndarray | Sequence[float],
        num_apps: int,
        context: str = "",
    ) -> np.ndarray:
        """``fixed_occupancies`` as floats, or a ``ValueError`` naming it.

        One byte count per application, each finite and non-negative,
        summing to at most the LLC capacity.  A NaN would pass the sign
        and sum tests (every comparison with NaN is false) and then stall
        the solve until its iteration cap, so non-finite values are
        rejected first.  ``context`` prefixes the message (the batched
        solver names the scenario).
        """
        alloc = np.asarray(fixed_occupancies, dtype=float)
        if alloc.shape != (num_apps,):
            raise ValueError(
                f"{context}fixed_occupancies: need one occupancy per "
                f"application, got shape {alloc.shape}"
            )
        if not np.all(np.isfinite(alloc)):
            raise ValueError(
                f"{context}fixed_occupancies must be finite, got "
                f"{alloc.tolist()}"
            )
        capacity = float(self.processor.llc.size_bytes)
        if np.any(alloc < 0.0) or alloc.sum() > capacity * (1 + 1e-9):
            raise ValueError(
                f"{context}fixed_occupancies must be non-negative and sum "
                f"to at most the LLC capacity"
            )
        return alloc

    def _solve_steady_state_batched(self, requests) -> list["SteadyState"]:
        entries = [
            self._normalize_request(request, i)
            for i, request in enumerate(requests)
        ]
        if not entries:
            return []
        results: list[SteadyState | None] = [None] * len(entries)
        keys = [
            solve_key(self.processor.name, pstate.frequency_hz, apps, alloc)
            for apps, pstate, alloc in entries
        ]
        # Pass 1 — serve cache hits and collapse in-batch duplicates.  The
        # solve is a pure function of the key, so deduplication is exact
        # even on an engine without a cache.
        pending: dict[tuple, list[int]] = {}
        order: list[tuple] = []
        dedupe_hits = 0
        for i, key in enumerate(keys):
            members = pending.get(key)
            if members is not None:
                members.append(i)
                dedupe_hits += 1
                continue
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    self.stats.record_hit()
                    GLOBAL_ENGINE_STATS.record_hit()
                    apps, pstate, _ = entries[i]
                    results[i] = _relabel(cached, apps, pstate)
                    continue
                self.stats.record_miss()
                GLOBAL_ENGINE_STATS.record_miss()
            pending[key] = [i]
            order.append(key)
        # Pass 2 — one stacked solve over the unique misses.
        iterations_saved = 0
        failures: list[BatchFailure] = []
        if order:
            unique = [entries[pending[key][0]] for key in order]
            states, iterations_saved = self._solve_fixed_point_batched(unique)
            for key, state in zip(order, states):
                members = pending[key]
                if state is None:
                    self.stats.record_failure()
                    GLOBAL_ENGINE_STATS.record_failure()
                    for i in members:
                        apps, pstate, _ = entries[i]
                        failures.append(
                            BatchFailure(
                                index=i,
                                target=apps[0].name,
                                co_runners=tuple(a.name for a in apps[1:]),
                                frequency_ghz=pstate.frequency_ghz,
                            )
                        )
                    continue
                self.stats.record_solve(state.iterations)
                GLOBAL_ENGINE_STATS.record_solve(state.iterations)
                if self.cache is not None:
                    if self.cache.put(key, state):
                        self.stats.record_eviction()
                        GLOBAL_ENGINE_STATS.record_eviction()
                for i in members:
                    apps, pstate, _ = entries[i]
                    results[i] = _relabel(state, apps, pstate)
        self.stats.record_batch(len(entries), dedupe_hits, iterations_saved)
        GLOBAL_ENGINE_STATS.record_batch(
            len(entries), dedupe_hits, iterations_saved
        )
        if failures:
            failures.sort(key=lambda f: f.index)
            detail = "; ".join(f.describe() for f in failures)
            raise BatchConvergenceError(
                f"steady state did not converge in {self.max_iterations} "
                f"iterations for {len(failures)} of {len(entries)} batched "
                f"scenarios on {self.processor.name}: {detail}",
                failures=failures,
                states=results,
            )
        return results

    def _solve_fixed_point_batched(
        self,
        entries: list[tuple[tuple[ApplicationSpec, ...], PState, np.ndarray | None]],
    ) -> tuple[list["SteadyState | None"], int]:
        """Advance ``S`` scenarios as one stacked fixed point.

        The stack holds one column per distinct application of each
        scenario, ``(S, W)``, not one per core slot: a Table V row of a
        target and eleven copies of one co-app is two columns.  Copies of
        one application object start from the same constants and the same
        occupancy, and every per-application step is elementwise IEEE
        arithmetic, so they would hold bit-equal values at every
        iteration; one column computes that value once.  Pinned rows are
        the exception (copies may hold different pinned occupancies) and
        keep one column per slot.  Rows with fewer columns than ``W`` are
        padded with inert columns (``cpi=1, api=0, mlp=1``, zero-weight
        reuse mixtures) that no slot reads.

        A :class:`~repro.cache.reuse.SlotLayout` maps each row's ``A``
        slots back to their columns.  Every cross-application sum (the
        compete test, the waterfill's total and slack, the bandwidth)
        reads the column values through it and adds them slot by slot
        from ``+0.0`` (:func:`~repro.cache.reuse.ordered_sum`), in the
        order the serial solver adds them; the order-free reductions (the
        convergence deltas' maxima) run on the columns.  Each row's
        trajectory is therefore bit-identical to the serial solver's, and
        its reported arrays are gathered per slot.

        Per-app constants are read once per distinct application object
        into a table whose row 0 is the inert pad, and one gather through
        the :func:`~repro.cache.reuse.distinct_columns` of a
        :func:`~repro.cache.reuse.distinct_index` lays them out as
        ``(S, W)``.  Converged rows freeze: they leave the live set and
        stop paying for iterations (the savings are tallied for
        :class:`EngineStats`).  The live rows' constants and slot layout
        are re-gathered only on iterations where some rows freeze.
        """
        s = len(entries)
        a = max(len(apps) for apps, _, _ in entries)
        capacity = float(self.processor.llc.size_bytes)
        line = float(self.processor.llc.line_bytes)
        hit_ns = self.processor.llc.hit_latency_ns * HIT_EXPOSURE

        distinct, index = distinct_index([apps for apps, _, _ in entries], a)
        pinned = np.array([alloc is not None for _, _, alloc in entries])
        columns, slots = distinct_columns(index, pinned)
        layout = SlotLayout(slots, columns.shape[1])
        cpi = np.array([1.0] + [x.base_cpi for x in distinct])[columns]
        api = np.array([0.0] + [x.accesses_per_instruction for x in distinct])[columns]
        mlp = np.array([1.0] + [x.mlp for x in distinct])[columns]
        stack = ProfileStack.gather([x.reuse for x in distinct], columns)
        demand = np.minimum(stack.footprints, capacity)
        f_hz = np.array([pstate.frequency_hz for _, pstate, _ in entries])[:, None]

        # A pinned row has one column per slot, in slot order.
        fixed = np.zeros(demand.shape)
        for i in np.flatnonzero(pinned):
            apps, _, alloc = entries[i]
            fixed[i, : len(apps)] = np.minimum(alloc, demand[i, : len(apps)])
        # Row policies, mirroring the serial branches: pinned rows never
        # move, rows whose demand fits keep occupancy == demand (so, like
        # pinned rows, they never move from their initial iterate), the
        # rest compete through the waterfill.
        compete = ~np.where(pinned, True, layout.sum(demand) <= capacity)

        occ = np.where(pinned[:, None], fixed, demand)
        if compete.any():
            rows = np.flatnonzero(compete)
            occ[rows] = waterfill_batched(
                demand[rows], demand[rows], capacity, slots[rows]
            )
        base_tpi = cpi / f_hz  # compute-only seconds per instruction
        tpi = base_tpi.copy()
        damp = self.damping
        iters = np.zeros(s, dtype=int)
        last_it = 0

        # The live set, compacted whenever rows freeze: ``live`` maps live
        # rows back to scenarios, the ``*_l`` arrays hold their state and
        # constants, and ``comp`` indexes the competing rows among them.
        live = np.arange(s)
        occ_l, tpi_l = occ.copy(), tpi.copy()
        api_l, base_l, mlp_l, stack_l, layout_l = api, base_tpi, mlp, stack, layout
        comp = np.flatnonzero(compete)
        demand_c, slots_c = demand[comp], slots[comp]
        for it in range(1, self.max_iterations + 1):
            if not live.size:
                break
            last_it = it
            if it % 100 == 0:
                damp *= 0.5
            rate = api_l / tpi_l
            miss = stack_l.miss_ratio(occ_l)
            occ_new = occ_l
            if comp.size:
                pressure = rate.take(comp, axis=0) * np.maximum(
                    miss.take(comp, axis=0), PRESSURE_FLOOR
                )
                target = waterfill_batched(pressure, demand_c, capacity, slots_c)
                occ_new = occ_l.copy()
                occ_new[comp] = (
                    (1.0 - damp) * occ_l.take(comp, axis=0) + damp * target
                )
            bandwidth = layout_l.sum(rate * miss) * line
            lat_ns = np.asarray(
                self.dram.effective_latency_ns(bandwidth), dtype=float
            )
            stall_ns = (1.0 - miss) * hit_ns + miss * (lat_ns[:, None] / mlp_l)
            tpi_new = (1.0 - damp) * tpi_l + damp * (
                base_l + api_l * stall_ns * 1e-9
            )
            occ_delta = np.abs(occ_new - occ_l).max(axis=1) / capacity
            tpi_delta = (np.abs(tpi_new - tpi_l) / tpi_l).max(axis=1)
            occ_l, tpi_l = occ_new, tpi_new
            done = (occ_delta < self.rel_tolerance) & (
                tpi_delta < self.rel_tolerance
            )
            if done.any():
                frozen = np.flatnonzero(done)
                rows = live[frozen]
                occ[rows] = occ_l.take(frozen, axis=0)
                tpi[rows] = tpi_l.take(frozen, axis=0)
                iters[rows] = it
                keep = np.flatnonzero(~done)
                live = live[keep]
                occ_l, tpi_l, api_l, base_l, mlp_l = (
                    x.take(keep, axis=0)
                    for x in (occ_l, tpi_l, api_l, base_l, mlp_l)
                )
                stack_l = stack_l.subset(keep)
                layout_l = layout_l.subset(keep)
                comp = np.flatnonzero(compete[live])
                demand_c = demand.take(live[comp], axis=0)
                slots_c = slots.take(live[comp], axis=0)
        # Rows still live did not converge; keep their last iterate.
        occ[live] = occ_l
        tpi[live] = tpi_l

        converged = np.ones(s, dtype=bool)
        converged[live] = False
        iterations_saved = int(np.sum(last_it - iters[converged]))
        miss = stack.miss_ratio(occ)
        bandwidth = layout.sum(api / tpi * miss) * line
        rho = np.asarray(self.dram.utilization(bandwidth), dtype=float)
        lat_ns = np.asarray(self.dram.effective_latency_ns(bandwidth), dtype=float)
        tpi, miss, occ = layout.gather(tpi), layout.gather(miss), layout.gather(occ)
        states: list[SteadyState | None] = []
        for i, (apps, pstate, _), ok, bw, util, lat, its in zip(
            range(s), entries, converged.tolist(), bandwidth.tolist(),
            rho.tolist(), lat_ns.tolist(), iters.tolist(),
        ):
            if not ok:
                states.append(None)
                continue
            n = len(apps)
            states.append(
                SteadyState(
                    apps=apps,
                    pstate=pstate,
                    seconds_per_instruction=tpi[i, :n].copy(),
                    miss_ratios=miss[i, :n].copy(),
                    occupancies_bytes=occ[i, :n].copy(),
                    miss_bandwidth_bytes_per_s=bw,
                    dram_utilization=util,
                    dram_latency_ns=lat,
                    iterations=its,
                )
            )
        return states, iterations_saved
