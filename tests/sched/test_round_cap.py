"""A scheduling round takes no more jobs than the fleet has free cores.

Each placement fills a free core, and the jobs a round places are a
prefix of those it takes, so capping the take at the free-core count
must leave every placement unchanged while the rows scored for jobs the
round would put back disappear.  The reference below keeps the earlier
rule (take ``round_size`` jobs, put the unplaced back) and the tests
compare job records with it field by field.

The rounds are driven directly on a fresh event loop (no HTTP, no
scheduler thread), so both services see the same arrivals before the
same round and the comparison is exact.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.harness.baselines import collect_baselines
from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.sched.fleet import FleetState, MachineConfig
from repro.sched.queue import job_stream
from repro.sched.service import LocalScorer, SchedulerService
from repro.sim import SimulationEngine
from repro.sim.solve_cache import SolveCache
from repro.workloads import all_applications, get_application


class _TakeRoundSize(SchedulerService):
    """Reference: every round takes ``round_size`` jobs, puts back the rest."""

    async def _step(self) -> bool:
        progressed = False
        placed = 0
        jobs = self.queue.take(self.round_size)
        if jobs:
            placed = await self._place_round(jobs)
            progressed = placed > 0
        self._rounds += 1
        if (
            self.migrate_threshold is not None
            and self.scorer is not None
            and self.running.count
            and self._rounds % self.migrate_every == 0
        ):
            if await self._migrate_once():
                progressed = True
        if self.running.count and (self.queue.pending == 0 or placed == 0):
            if self._advance_once():
                progressed = True
        return progressed


class _RowLog:
    """Scorer wrapper: logs each call's rows, free cores and candidates."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.service: SchedulerService | None = None
        self.calls: list[tuple[int, int, int]] = []

    def predict_rows(self, rows):
        fleet = self.service.fleet  # the loop waits on this call: no writes
        candidates = fleet.candidates(self.service.max_candidates).size
        self.calls.append((len(rows), int(fleet.free_cores.sum()), candidates))
        return self.inner.predict_rows(rows)


@pytest.fixture(scope="module")
def baselines(baselines_6core, engine_12core):
    return {
        XEON_E5649.name: baselines_6core,
        XEON_E5_2697V2.name: collect_baselines(engine_12core, all_applications()),
    }


@pytest.fixture(scope="module")
def engines():
    """One engine per processor over a shared (exact) solve cache."""
    cache = SolveCache()
    return {
        proc.name: SimulationEngine(proc, cache=cache)
        for proc in (XEON_E5649, XEON_E5_2697V2)
    }


def _blocks(seed: int) -> list[MachineConfig]:
    """Seeded fleet: one block (either machine) or both, in either order."""
    rng = np.random.default_rng(seed)
    procs = [(XEON_E5649, XEON_E5_2697V2)[seed % 4 // 2]]
    if seed % 2:
        procs.append(XEON_E5_2697V2 if procs[0] is XEON_E5649 else XEON_E5649)
    return [
        MachineConfig(proc, count=int(rng.integers(1, 4)), name_prefix=f"b{i}")
        for i, proc in enumerate(procs)
    ]


def _arrivals(seed: int, n_jobs: int) -> list[list[str]]:
    """A seeded stream cut into per-round arrival batches (some empty)."""
    rng = np.random.default_rng(seed + 100)
    names = [
        app.name
        for app, _t in job_stream(list(all_applications()), n_jobs, seed=seed)
    ]
    batches = [names[: n_jobs // 2]]  # a burst that queues, then a trickle
    rest = names[n_jobs // 2 :]
    while rest:
        k = int(rng.integers(0, 6))
        batches.append(rest[:k])
        rest = rest[k:]
    return batches


def _run(cls, seed, baselines, engines, scorer=None, **kwargs):
    blocks = _blocks(seed)
    fleet = FleetState(blocks)
    service = cls(
        fleet,
        baselines,
        scorer=scorer,
        engines=[engines[cfg.processor.name] for cfg in blocks],
        **kwargs,
    )
    if isinstance(scorer, _RowLog):
        scorer.service = service
    arrivals = _arrivals(seed, 2 * fleet.total_cores + 7)

    async def drive():
        for rounds in range(100_000):
            if rounds < len(arrivals):
                for name in arrivals[rounds]:
                    service.queue.submit(get_application(name), service.now_s)
            elif not (service.queue.pending or service.running.count):
                return
            await service._step()
        raise AssertionError("the stream never finished")

    asyncio.run(drive())
    jobs = sorted(service.queue.jobs(), key=lambda job: job.id)
    return [
        (j.id, j.node, j.placed_s, j.completed_s, j.predicted_slowdown)
        for j in jobs
    ]


GRID = [
    (policy, round_size, max_candidates)
    for policy in ("model", "first-fit", "least-loaded")
    for round_size in (1, 3, 32)
    for max_candidates in ((1, 2, 8) if policy == "model" else (8,))
]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(("policy", "round_size", "max_candidates"), GRID)
def test_placements_match_the_take_round_size_rule(
    seed, policy, round_size, max_candidates, baselines, engines,
    sched_predictor,
):
    scorer = LocalScorer(sched_predictor) if policy == "model" else None
    kwargs = dict(
        policy=policy, round_size=round_size, max_candidates=max_candidates
    )
    expected = _run(_TakeRoundSize, seed, baselines, engines, scorer, **kwargs)
    actual = _run(SchedulerService, seed, baselines, engines, scorer, **kwargs)
    assert all(record[3] is not None for record in actual)  # all completed
    assert actual == expected


@pytest.mark.parametrize("round_size", [3, 32])
def test_saturated_rounds_score_only_jobs_with_free_cores(
    round_size, baselines, engines, sched_predictor
):
    max_candidates = 8
    scorer = _RowLog(LocalScorer(sched_predictor))
    _run(
        SchedulerService, 0, baselines, engines, scorer,
        policy="model", round_size=round_size, max_candidates=max_candidates,
    )
    assert any(free < round_size for _rows, free, _c in scorer.calls)
    for rows, free, candidates in scorer.calls:
        assert candidates <= max_candidates
        assert rows <= min(round_size, free) * candidates
