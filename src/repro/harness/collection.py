"""Training data collection (paper, Section IV-B3 and Table V).

Implements the paper's loop nest::

    for each multicore processor:
        for each frequency:
            for each target application:
                for each co-located application:
                    for each num. of co-locations:
                        get_exec_time_of_target()

Eleven targets are each co-located with multiple copies of the four
training co-location applications (cg, sp, fluidanimate, ep — one per
memory intensity class), at every P-state, for each machine's co-location
counts.  The counts sample the co-location space *uniformly* — the paper
contrasts this with the mostly-random selection of [DwF12]; a random
sampler with the same budget is provided for that ablation.

Every scenario in the nest is independent, so collection accepts a
``workers=N`` fan-out (see :mod:`repro.harness.parallel`).  Measurement
noise for each scenario comes from its own child RNG spawned from the
caller's root generator and keyed by scenario index, which makes the
collected dataset bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.features import observation_from_profiles
from ..machine.processor import PROCESSOR_CATALOG, MulticoreProcessor
from ..machine.pstates import PState
from ..obs.trace import get_tracer
from ..sim.engine import SimulationEngine
from ..workloads.app import ApplicationSpec
from ..workloads.suite import TRAINING_CO_APP_NAMES, all_applications, get_application
from .baselines import BaselineTable, collect_baselines
from .datasets import ObservationDataset
from .parallel import map_scenario_batches, spawn_streams

__all__ = [
    "TrainingSetup",
    "setup_for",
    "collect_training_data",
    "collect_random_training_data",
    "TRAINING_SETUPS",
]


@dataclass(frozen=True)
class TrainingSetup:
    """One machine's row of Table V."""

    processor_key: str
    co_location_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.co_location_counts:
            raise ValueError("need at least one co-location count")
        if any(c < 1 for c in self.co_location_counts):
            raise ValueError("co-location counts must be >= 1")
        if list(self.co_location_counts) != sorted(set(self.co_location_counts)):
            raise ValueError("co-location counts must be strictly increasing")


#: Table V: per-machine co-location counts.  The 6-core machine exercises
#: every count up to its 5 free cores; the 12-core machine samples its 11
#: free cores sparsely (evenly spread, per Section IV-B3) to keep the test
#: count tractable.
TRAINING_SETUPS: dict[str, TrainingSetup] = {
    "e5649": TrainingSetup("e5649", (1, 2, 3, 4, 5)),
    "e5-2697v2": TrainingSetup("e5-2697v2", (1, 3, 5, 7, 9, 11)),
}


def setup_for(processor: MulticoreProcessor) -> TrainingSetup:
    """The Table V setup matching a catalog machine.

    Machines outside the catalog get the 6-core-style treatment: all
    counts from 1 to their free-core maximum, capped at 8 counts by even
    subsampling.
    """
    for key, setup in TRAINING_SETUPS.items():
        catalog_entry = PROCESSOR_CATALOG.get(key)
        if catalog_entry is not None and (
            catalog_entry is processor or catalog_entry.name == processor.name
        ):
            return setup
    max_count = processor.max_co_located
    counts = list(range(1, max_count + 1))
    if len(counts) > 8:
        idx = np.linspace(0, len(counts) - 1, 8).round().astype(int)
        counts = [counts[i] for i in idx]
    return TrainingSetup(processor.name.lower(), tuple(counts))


def _run_scenario_batch(engine: SimulationEngine, payloads) -> list[float]:
    """Many Table V cells at once through the stacked steady-state solver.

    Produces exactly the same times as one ``engine.run`` per payload: each
    scenario's noise comes from its own child RNG, and the stacked solve is
    bit-identical to the single-scenario fixed point.
    """
    items = [
        (target, [co_app] * count, pstate, rng)
        for target, co_app, count, pstate, rng in payloads
    ]
    tracer = get_tracer()
    if not tracer.enabled:
        runs = engine.run_batch(items)
        return [run.target.execution_time_s for run in runs]
    with tracer.span("collect.scenario_batch", scenarios=len(items)):
        runs = engine.run_batch(items)
        return [run.target.execution_time_s for run in runs]


def _scenario_payloads(
    scenarios: list[tuple[ApplicationSpec, ApplicationSpec, int, PState]],
    rng: np.random.Generator,
) -> list:
    """Attach one SeedSequence-spawned child RNG per scenario.

    The child is keyed by the scenario's index, so noise draws depend only
    on which scenario is run — never on loop order or worker placement.
    """
    streams = spawn_streams(rng, len(scenarios))
    return [
        scenario + (stream,) for scenario, stream in zip(scenarios, streams)
    ]


def _sweep_apps(
    targets: list[ApplicationSpec] | None,
    co_apps: list[ApplicationSpec] | None,
) -> tuple[list[ApplicationSpec], list[ApplicationSpec]]:
    """A sweep's targets and co-apps, defaults filled in.

    Empty lists and an application named twice are rejected: a repeated
    target or co-app would collect its scenarios twice (or, drawn at
    random, weigh double).
    """
    targets = list(targets) if targets is not None else list(all_applications())
    co_apps = (
        list(co_apps)
        if co_apps is not None
        else [get_application(n) for n in TRAINING_CO_APP_NAMES]
    )
    for name, apps in (("targets", targets), ("co_apps", co_apps)):
        if not apps:
            raise ValueError(f"{name}: need at least one application")
        names = [app.name for app in apps]
        if len(set(names)) < len(names):
            raise ValueError(
                f"{name}: each application may appear only once, got {names}"
            )
    return targets, co_apps


def _collect(
    engine: SimulationEngine,
    baselines: BaselineTable,
    scenarios: list[tuple[ApplicationSpec, ApplicationSpec, int, PState]],
    rng: np.random.Generator,
    workers: int,
    **span_attrs,
) -> ObservationDataset:
    """Run ``(target, co_app, count, pstate)`` scenarios into a dataset.

    The one observation loop behind both samplers.  The ``collect.dataset``
    span covers the whole build, observations included, so a trace shows
    where a sweep's time goes outside the solver too.
    """
    with get_tracer().span(
        "collect.dataset",
        processor=engine.processor.name,
        scenarios=len(scenarios),
        workers=workers,
        **span_attrs,
    ):
        payloads = _scenario_payloads(scenarios, rng)
        times = map_scenario_batches(
            engine, _run_scenario_batch, payloads, workers=workers
        )
        dataset = ObservationDataset(processor_name=engine.processor.name)
        for (target, co_app, count, pstate), time_s in zip(scenarios, times):
            dataset.add(
                observation_from_profiles(
                    baselines.get(target.name, pstate.frequency_ghz),
                    [baselines.get(co_app.name, pstate.frequency_ghz)] * count,
                    time_s,
                )
            )
    return dataset


def collect_training_data(
    engine: SimulationEngine,
    *,
    baselines: BaselineTable | None = None,
    targets: list[ApplicationSpec] | None = None,
    co_apps: list[ApplicationSpec] | None = None,
    counts: tuple[int, ...] | None = None,
    frequencies_ghz: tuple[float, ...] | None = None,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> ObservationDataset:
    """Collect one machine's full Table V training dataset.

    Parameters
    ----------
    engine:
        Simulator for the machine under test.
    baselines:
        Pre-collected baseline table (collected fresh when omitted).
    targets:
        Target applications, each named once; default all eleven of
        Table III.
    co_apps:
        Co-location applications, each named once; default the four
        training co-apps.
    counts:
        Homogeneous co-location counts, each at least 1 and given once, in
        any order; default the machine's Table V row.
    frequencies_ghz:
        Restrict the sweep to these P-states (default: the machine's full
        ladder).  Each frequency must match a catalog P-state exactly, and
        no two may match the same one; experiment suites use this to
        declare per-case P-state subsets.
    rng:
        Root of the measurement-noise streams (seeded default).  Each
        scenario gets its own child generator spawned from this root, so
        the dataset is identical for any ``workers`` setting.
    workers:
        Worker processes for the sweep; 1 (the default) runs serially.
    """
    targets, co_apps = _sweep_apps(targets, co_apps)
    if counts is None:
        counts = setup_for(engine.processor).co_location_counts
    counts = tuple(counts)
    if not counts:
        raise ValueError("counts: need at least one co-location count")
    if any(count < 1 for count in counts):
        raise ValueError(f"counts: co-location counts must be >= 1, got {counts}")
    if len(set(counts)) < len(counts):
        raise ValueError(
            f"counts: each co-location count may appear only once, got {counts}"
        )
    for count in counts:
        engine.processor.validate_co_location_count(count)
    if frequencies_ghz is None:
        pstates = list(engine.processor.pstates)
    else:
        try:
            pstates = [
                engine.processor.pstates.at_frequency(f)
                for f in frequencies_ghz
            ]
        except Exception as exc:
            raise ValueError(str(exc)) from None
        if not pstates:
            raise ValueError("need at least one P-state frequency")
        if len(set(pstates)) < len(pstates):
            raise ValueError(
                "frequencies_ghz: each P-state may appear only once, got "
                f"{list(frequencies_ghz)}"
            )
    if rng is None:
        rng = np.random.default_rng(2015)
    if baselines is None:
        baselines = collect_baselines(
            engine,
            sorted(set(targets + co_apps), key=lambda a: a.name),
            workers=workers,
        )

    scenarios = [
        (target, co_app, count, pstate)
        for pstate in pstates
        for target in targets
        for co_app in co_apps
        for count in counts
    ]
    return _collect(engine, baselines, scenarios, rng, workers)


def collect_random_training_data(
    engine: SimulationEngine,
    budget: int,
    *,
    baselines: BaselineTable | None = None,
    targets: list[ApplicationSpec] | None = None,
    co_apps: list[ApplicationSpec] | None = None,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> ObservationDataset:
    """[DwF12]-style randomly sampled training data with a fixed budget.

    Each of the ``budget`` observations picks a random P-state, target,
    co-app, and co-location count (uniform over 1..max free cores).  Used
    by the sampling ablation bench to compare against the paper's uniform
    coverage with the *same* number of runs.

    Scenario *selection* draws come sequentially from ``rng``; each
    selected scenario's measurement noise then comes from its own spawned
    child stream, so ``workers > 1`` reproduces the serial dataset
    exactly.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    targets, co_apps = _sweep_apps(targets, co_apps)
    if rng is None:
        rng = np.random.default_rng(2015)
    if baselines is None:
        baselines = collect_baselines(
            engine,
            sorted(set(targets + co_apps), key=lambda a: a.name),
            workers=workers,
        )

    pstates = list(engine.processor.pstates)
    max_count = engine.processor.max_co_located
    scenarios = []
    for _ in range(budget):
        pstate = pstates[rng.integers(len(pstates))]
        target = targets[rng.integers(len(targets))]
        co_app = co_apps[rng.integers(len(co_apps))]
        count = int(rng.integers(1, max_count + 1))
        scenarios.append((target, co_app, count, pstate))
    return _collect(engine, baselines, scenarios, rng, workers, sampling="random")
