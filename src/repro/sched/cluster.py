"""Online cluster simulation: jobs arriving over time.

Real clusters receive a *stream* of jobs.  This module simulates that
stream event-by-event on top of the analytic engine: between events every
machine's resident jobs progress at their current steady-state rates
(re-solved whenever membership changes, by
:class:`~repro.sched.fleet.RunningSet`), jobs that finish free their
cores, and arriving or queued jobs are placed by a pluggable policy.

:func:`run_colocated` runs the same physics on one machine for one target
whose co-runners either restart when they finish (the paper's protocol,
which the engine's steady state models exactly) or leave — the case a
scheduler faces and the steady-state models cannot see.

Policies are online: they see one job and the current cluster state, and
return a machine (or ``None`` to leave the job queued).  The
model-driven policy consults trained predictors exactly as the paper
envisions — using only baseline profiles, never the simulator.

A batch is a stream whose jobs all arrive at t = 0: give every
:class:`JobRequest` ``arrival_s=0.0`` and ``job_id`` in the order the
policy should see the jobs (the queue is drained in ``job_id`` order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..core.methodology import PerformancePredictor
from ..harness.baselines import BaselineTable
from ..machine.processor import MulticoreProcessor
from ..sim.engine import SimulationEngine
from ..workloads.app import ApplicationSpec
from .fleet import FleetState, RunningSet

__all__ = [
    "JobRequest",
    "JobRecord",
    "ClusterState",
    "ClusterTrace",
    "ClusterSimulator",
    "first_fit_policy",
    "least_loaded_policy",
    "model_driven_policy",
    "run_colocated",
]

#: Event budget of one :func:`run_colocated` call, as in
#: :meth:`ClusterSimulator.run`: a restarting co-runner of near-zero
#: length would otherwise spin forever.
_COLOCATED_MAX_EVENTS = 100_000


@dataclass(frozen=True)
class JobRequest:
    """One job submission."""

    app: ApplicationSpec
    arrival_s: float
    job_id: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_s < np.inf:
            raise ValueError(
                f"arrival time must be finite and non-negative, "
                f"got {self.arrival_s!r}"
            )


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one completed job."""

    request: JobRequest
    machine_name: str
    start_s: float
    end_s: float
    baseline_s: float

    @property
    def wait_s(self) -> float:
        """Queueing delay before the job started."""
        return self.start_s - self.request.arrival_s

    @property
    def run_s(self) -> float:
        """Wall time on the machine."""
        return self.end_s - self.start_s

    @property
    def slowdown(self) -> float:
        """Execution stretch from interference (run time over solo time)."""
        return self.run_s / self.baseline_s

    @property
    def response_s(self) -> float:
        """Arrival-to-completion latency (wait + run)."""
        return self.end_s - self.request.arrival_s


@dataclass
class ClusterState:
    """What a placement policy may inspect at decision time."""

    now_s: float
    resident: dict[str, tuple[ApplicationSpec, ...]]
    free_cores: dict[str, int]


class PlacementPolicy(Protocol):
    """Online placement decision."""

    def __call__(
        self, job: ApplicationSpec, state: ClusterState
    ) -> str | None: ...


@dataclass(frozen=True)
class ClusterTrace:
    """Result of one cluster simulation."""

    records: tuple[JobRecord, ...]
    makespan_s: float

    @property
    def mean_slowdown(self) -> float:
        """Average execution stretch across completed jobs."""
        return float(np.mean([r.slowdown for r in self.records]))

    @property
    def mean_response_s(self) -> float:
        """Average arrival-to-completion latency."""
        return float(np.mean([r.response_s for r in self.records]))

    @property
    def mean_wait_s(self) -> float:
        """Average queueing delay."""
        return float(np.mean([r.wait_s for r in self.records]))

    def by_machine(self) -> dict[str, int]:
        """Completed-job counts per machine."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.machine_name] = out.get(r.machine_name, 0) + 1
        return out


# ----------------------------------------------------------------- policies


def first_fit_policy(job: ApplicationSpec, state: ClusterState) -> str | None:
    """Place on the first machine with a free core (consolidating)."""
    for name, free in state.free_cores.items():
        if free > 0:
            return name
    return None


def least_loaded_policy(job: ApplicationSpec, state: ClusterState) -> str | None:
    """Place on the machine with the most free cores (spreading)."""
    best, best_free = None, 0
    for name, free in state.free_cores.items():
        if free > best_free:
            best, best_free = name, free
    return best


def model_driven_policy(
    predictors: dict[str, PerformancePredictor],
    baselines: dict[str, BaselineTable],
    machines: dict[str, MulticoreProcessor],
) -> PlacementPolicy:
    """Greedy interference-aware online policy.

    Scores every machine with a free core by the *predicted* marginal
    slowdown of adding the job — the job's own predicted stretch plus the
    predicted worsening of the residents — and picks the minimum.
    """

    def profile(name: str, app: ApplicationSpec):
        fmax = machines[name].pstates.fastest.frequency_ghz
        return baselines[name].get(app.name, fmax)

    def group_cost(name: str, group: list[ApplicationSpec]) -> float:
        if not group:
            return 0.0
        predictor = predictors[name]
        total = 0.0
        for i, app in enumerate(group):
            co = [profile(name, a) for j, a in enumerate(group) if j != i]
            if co:
                total += predictor.predict_slowdown(profile(name, app), co)
            else:
                total += 1.0
        return total

    def policy(job: ApplicationSpec, state: ClusterState) -> str | None:
        best, best_cost = None, np.inf
        for name, free in state.free_cores.items():
            if free <= 0:
                continue
            group = list(state.resident[name])
            cost = group_cost(name, group + [job]) - group_cost(name, group)
            if cost < best_cost:
                best, best_cost = name, cost
        return best

    return policy


# ---------------------------------------------------------------- simulator


def run_colocated(
    engine: SimulationEngine,
    target: ApplicationSpec,
    co_runners: Sequence[ApplicationSpec] = (),
    *,
    restart: bool,
) -> float:
    """The target's execution time beside co-runners that finish.

    All applications start together on one machine at its fastest
    P-state.  A co-runner that finishes restarts at once when ``restart``
    is true, so pressure stays constant and the result is the engine's
    steady state; otherwise it leaves and frees its core, and the target
    speeds up.  Rates are re-solved only when membership changes.
    """
    engine.processor.validate_co_location_count(len(co_runners))
    running = RunningSet(
        FleetState.single_nodes([("node", engine.processor)]), [engine]
    )
    for job_id, app in enumerate((target, *co_runners)):
        running.add(job_id, app, 0, 0.0)
    now = 0.0
    for _ in range(_COLOCATED_MAX_EVENTS):
        next_time = running.next_completion(now)
        running.advance_to(next_time, now)
        now = next_time
        for done in running.pop_finished():
            if done.job_id == 0:
                return now
            if restart:
                running.add(done.job_id, done.app, 0, now)
    raise RuntimeError(
        f"target {target.name!r} did not finish within "
        f"{_COLOCATED_MAX_EVENTS} events"
    )


class ClusterSimulator:
    """Event-driven multi-machine co-location simulator.

    Parameters
    ----------
    engines:
        One engine per machine, keyed by a unique machine name; identical
        machines share one engine under different keys (a server's
        sockets use :attr:`repro.machine.Server.socket_names`).
    baselines:
        Per-machine baseline tables (for slowdown normalization).
    policy:
        Online placement policy; jobs it declines (or that find no free
        core) wait in a FIFO queue and are re-offered on every completion.
    """

    def __init__(
        self,
        engines: dict[str, SimulationEngine],
        baselines: dict[str, BaselineTable],
        policy: PlacementPolicy,
    ) -> None:
        if not engines:
            raise ValueError("need at least one machine")
        missing = set(engines) - set(baselines)
        if missing:
            raise ValueError(f"baselines missing for machines: {sorted(missing)}")
        self.engines = dict(engines)
        self.baselines = dict(baselines)
        self.policy = policy

    # ------------------------------------------------------------ helpers

    def _state(
        self, now: float, fleet: FleetState, running: RunningSet
    ) -> ClusterState:
        resident = {
            name: tuple(j.app for j in running.jobs_on(i))
            for i, name in enumerate(fleet.names)
        }
        free = {
            name: int(fleet.free_cores[i])
            for i, name in enumerate(fleet.names)
        }
        return ClusterState(now_s=now, resident=resident, free_cores=free)

    def _stats(
        self, machine_name: str, app: ApplicationSpec
    ) -> tuple[float, float, float]:
        fmax = self.engines[machine_name].processor.pstates.fastest.frequency_ghz
        base = self.baselines[machine_name].get(app.name, fmax)
        return (base.memory_intensity, base.cm_per_ca, base.ca_per_ins)

    def _baseline_s(self, machine_name: str, app: ApplicationSpec) -> float:
        fmax = self.engines[machine_name].processor.pstates.fastest.frequency_ghz
        return self.baselines[machine_name].get(app.name, fmax).wall_time_s

    # ---------------------------------------------------------------- run

    def run(self, jobs: list[JobRequest], *, max_events: int = 100_000) -> ClusterTrace:
        """Simulate one job stream to completion.

        Events are arrivals and job completions; between consecutive
        events, every machine's membership is constant, so its rates are
        one steady-state solve.  Raises when the event budget is exhausted
        (a pathological policy that never places anything).
        """
        if not jobs:
            raise ValueError("need at least one job")
        pending = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
        arrivals = list(reversed(pending))  # pop() = earliest
        queue: list[JobRequest] = []
        fleet = FleetState.single_nodes(
            [(name, engine.processor) for name, engine in self.engines.items()]
        )
        running = RunningSet(fleet, [self.engines[n] for n in fleet.names])
        requests: dict[int, JobRequest] = {}
        records: list[JobRecord] = []
        placed_seq = iter(range(len(pending)))
        now = 0.0

        def try_place(job: JobRequest) -> bool:
            state = self._state(now, fleet, running)
            choice = self.policy(job.app, state)
            if choice is None:
                return False
            if choice not in state.free_cores:
                raise ValueError(f"policy chose unknown machine {choice!r}")
            if state.free_cores[choice] <= 0:
                raise ValueError(
                    f"policy placed a job on full machine {choice!r}"
                )
            key = next(placed_seq)
            requests[key] = job
            running.add(
                key,
                job.app,
                fleet.index_of(choice),
                now,
                stats=self._stats(choice, job.app),
            )
            return True

        for _ in range(max_events):
            if not arrivals and not queue and running.count == 0:
                break
            next_completion = running.next_completion(now)
            next_arrival = arrivals[-1].arrival_s if arrivals else np.inf
            next_time = min(next_completion, next_arrival)
            if not np.isfinite(next_time):
                raise RuntimeError(
                    "deadlock: jobs queued but nothing is running or arriving"
                )

            # Advance all running jobs to the event time.
            running.advance_to(next_time, now)
            now = next_time

            # Handle completions (all jobs that reached zero).
            finished = running.pop_finished()
            for done in finished:
                name = fleet.node_name(done.node)
                records.append(
                    JobRecord(
                        request=requests.pop(done.job_id),
                        machine_name=name,
                        start_s=done.start_s,
                        end_s=now,
                        baseline_s=self._baseline_s(name, done.app),
                    )
                )

            # Handle the arrival landing exactly now.
            while arrivals and arrivals[-1].arrival_s <= now + 1e-12:
                queue.append(arrivals.pop())

            # Drain the queue FIFO as far as the policy allows.
            if finished or queue:
                still_waiting: list[JobRequest] = []
                for job in queue:
                    if not try_place(job):
                        still_waiting.append(job)
                queue = still_waiting
        else:
            raise RuntimeError(f"exceeded {max_events} events")

        return ClusterTrace(
            records=tuple(sorted(records, key=lambda r: r.request.job_id)),
            makespan_s=now,
        )
