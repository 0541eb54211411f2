"""Online degradation-aware cluster scheduler service.

The consumer side of the paper's Section VI vision, run at fleet scale:
jobs are submitted over HTTP, an event-driven loop places them across a
simulated fleet (thousands of nodes held as vectorized
:class:`~repro.sched.fleet.FleetState` arrays), and every placement
decision is scored by the *prediction tier* — one batched
``POST /v1/predict`` per scheduling round, so the serving micro-batcher
sees ``round × candidates`` rows at once instead of per-node chatter.

Time is virtual: the fleet's physics (the same
:class:`~repro.sched.fleet.RunningSet` core the cluster simulator uses)
advances to the next completion whenever the queue is empty or no
placement is possible, so the loop runs as fast as decisions can be
made.  The scheduler optionally migrates the worst-regret running job
(threshold-triggered) and runs the :mod:`repro.sched.governor` DVFS
policy on every placement.

Reuses the serving plumbing end to end: :class:`HttpServerBase` drain
protocol, ``/metrics`` (merged obs registry), ``X-Request-Id``, tracing.

Endpoints::

    POST /v1/jobs        {"app": "cg"} | {"app": "cg", "count": 3}
                         | {"apps": ["cg", "ep"]}  -> {"ids": [...]}
                         (at most MAX_SUBMIT_JOBS jobs per request)
    GET  /v1/jobs        queue/fleet counts (+ ?status= id listing)
    GET  /v1/jobs/<id>   one job's full lifecycle record
    GET  /v1/cluster     fleet occupancy + scheduler state
    GET  /healthz, GET /metrics
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import deque

import numpy as np

from ..core.features import FEATURE_NAMES, Feature, feature_row
from ..core.feature_sets import features_for
from ..energy.power import PowerModel
from ..harness.baselines import BaselineTable
from ..obs.registry import Exposition
from ..obs.trace import get_tracer
from ..serve.client import PredictionClient
from ..serve.http import HTTPError, HttpServerBase, Request, ServerThreadBase
from ..serve.metrics import LatencyHistogram
from ..sim.engine import SimulationEngine
from ..sim.solve_cache import SolveCache
from ..workloads.app import ApplicationSpec
from ..workloads.suite import get_application
from .fleet import FleetState, RunningSet
from .governor import GovernorObjective, select_pstate
from .queue import Job, JobQueue, JobStatus

__all__ = [
    "DEGRADATION_BUCKETS",
    "LocalScorer",
    "RemoteScorer",
    "SchedMetrics",
    "SchedulerClient",
    "SchedulerService",
    "SchedulerThread",
]

POLICIES = ("model", "first-fit", "least-loaded")

#: Most jobs one ``POST /v1/jobs`` may submit, in either form.  Each
#: accepted job costs a queue entry, so an unbounded ``count`` would let
#: one request exhaust memory.
MAX_SUBMIT_JOBS = 65_536

#: Degradation histograms cover slowdowns (>= 1.0 in the common case).
DEGRADATION_BUCKETS = (1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)

#: After a round in which a scorer call failed, the loop waits before the
#: next round: this long after the first failed round, doubling with each
#: consecutive one up to the cap.
RETRY_BACKOFF_S = 0.01
RETRY_BACKOFF_MAX_S = 1.0


class SchedMetrics:
    """Scheduler-semantics counters exported as ``repro_sched_*``.

    Single-threaded like :class:`~repro.serve.metrics.ServingMetrics`:
    only the scheduler loop mutates it; ``/metrics`` reads a snapshot.
    """

    def __init__(self) -> None:
        self.jobs_submitted = 0
        self.placements = 0
        self.migrations = 0
        self.completions = 0
        self.requeued = 0
        self.predict_batches = 0
        self.predict_rows = 0
        #: Scorer calls that raised (prediction tier down or erroring).
        self.predict_errors = 0
        #: Wall latency of one scheduling round (includes the batched
        #: predict round-trip when the model policy is active).
        self.decision_latency = LatencyHistogram()
        self.predicted_degradation = LatencyHistogram(
            buckets=DEGRADATION_BUCKETS
        )
        self.realized_degradation = LatencyHistogram(
            buckets=DEGRADATION_BUCKETS
        )
        #: Sum/count of (realized - predicted) over completed jobs that
        #: had a model prediction; the gauge is the running mean.
        self.regret_sum = 0.0
        self.regret_count = 0
        self.last_regret = 0.0

    def record_completion(
        self, realized: float, predicted: float | None
    ) -> None:
        self.completions += 1
        self.realized_degradation.observe(realized)
        if predicted is not None:
            self.last_regret = realized - predicted
            self.regret_sum += self.last_regret
            self.regret_count += 1

    @property
    def mean_regret(self) -> float:
        return self.regret_sum / self.regret_count if self.regret_count else 0.0

    def render_prometheus(self) -> str:
        """This record's ``repro_sched_*`` families as Prometheus text."""
        out = Exposition()
        for name, help_text, value in (
            ("jobs_submitted_total", "Jobs accepted via POST /v1/jobs.",
             self.jobs_submitted),
            ("placements_total", "Placement decisions committed.",
             self.placements),
            ("migrations_total", "Threshold-triggered job migrations.",
             self.migrations),
            ("completions_total", "Jobs run to completion.",
             self.completions),
            ("requeued_total", "Jobs explicitly requeued at drain.",
             self.requeued),
            ("predict_batches_total",
             "Batched prediction calls to the serving tier.",
             self.predict_batches),
            ("predict_rows_total",
             "Candidate rows scored by the serving tier.",
             self.predict_rows),
            ("predict_errors_total",
             "Failed scorer calls to the serving tier.",
             self.predict_errors),
        ):
            out.counter(f"repro_sched_{name}", help_text, value)
        out.gauge(
            "repro_sched_regret",
            "Mean realized-minus-predicted slowdown over completed jobs.",
            self.mean_regret,
        )
        out.gauge(
            "repro_sched_last_regret",
            "Realized-minus-predicted slowdown of the most recent completion.",
            self.last_regret,
        )
        for name, help_text, hist in (
            ("decision_latency_seconds",
             "Wall latency of one scheduling round.", self.decision_latency),
            ("predicted_degradation",
             "Predicted slowdown of committed placements.",
             self.predicted_degradation),
            ("realized_degradation", "Realized slowdown of completed jobs.",
             self.realized_degradation),
        ):
            out.histogram(
                f"repro_sched_{name}", help_text,
                [({}, hist.buckets, hist.bucket_counts, hist.total)],
            )
        return out.text()


# ------------------------------------------------------------------ scorers


class RemoteScorer:
    """Scores placements through the prediction tier.

    Sends every Table I feature with each row — the server selects the
    subset its resident model was trained on — so the scorer needs no
    knowledge of the served feature set.  ``predict_rows`` is the
    batched round path; ``predict_time`` adapts the same client to the
    :func:`~repro.sched.governor.select_pstate` predictor protocol.
    """

    def __init__(
        self, host: str, port: int, *, model: str, timeout: float = 30.0
    ) -> None:
        self.model = model
        self.client = PredictionClient(host, port, timeout=timeout)

    def predict_rows(self, rows: list[dict]) -> list[float]:
        """One batched predict for a whole scheduling round."""
        payload = self.client.predict_batch(rows, model=self.model)
        return [float(p) for p in payload["predictions"]]

    def predict_time(self, target_baseline, co_baselines) -> float:
        """Governor adapter: predicted co-located time for one placement.

        The one row goes in batch form, which the serving batcher flushes
        on its next turn instead of holding it for company.
        """
        row = feature_row(target_baseline, list(co_baselines), tuple(Feature))
        features = dict(zip(FEATURE_NAMES, row.tolist()))
        payload = self.client.predict_batch([features], model=self.model)
        return float(payload["predictions"][0])

    def close(self) -> None:
        self.client.close()


class LocalScorer:
    """In-process scorer over a trained predictor (no serving tier).

    Same protocol as :class:`RemoteScorer`; used by tests and by
    deployments that co-locate the model with the scheduler.
    """

    def __init__(self, predictor) -> None:
        self.predictor = predictor
        self.names = tuple(f.value for f in features_for(predictor.feature_set))

    def predict_rows(self, rows: list[dict]) -> list[float]:
        X = np.array(
            [[float(row[name]) for name in self.names] for row in rows]
        )
        return [float(v) for v in self.predictor.predict_rows(X)]

    def predict_time(self, target_baseline, co_baselines) -> float:
        return float(
            self.predictor.predict_time(target_baseline, list(co_baselines))
        )

    def close(self) -> None:  # protocol parity
        pass


# ------------------------------------------------------------------ service


class SchedulerService(HttpServerBase):
    """Degradation-aware online scheduler over a simulated fleet.

    Parameters
    ----------
    fleet:
        Vectorized node state (``MachineConfig`` blocks expanded).
    baselines:
        One :class:`BaselineTable` (homogeneous fleet) or a dict keyed
        by processor name; must cover every submittable application at
        every P-state frequency.
    scorer:
        :class:`RemoteScorer`/:class:`LocalScorer` (anything with
        ``predict_rows``/``predict_time``).  Required for the ``model``
        policy and for the governor; baseline policies run without it.
    policy:
        ``"model"`` (contention-aware argmin over pruned candidates),
        ``"first-fit"`` (lowest-index free node) or ``"least-loaded"``
        (most free cores) — the baselines exist so one service binary
        can A/B its own decision quality.
    round_size / max_candidates:
        Jobs pulled per scheduling round × candidate nodes scored per
        job: the batched predict is at most ``round × candidates`` rows.
        A round pulls no more jobs than the fleet has free cores.
    migrate_threshold:
        Estimated-regret threshold (realized-so-far minus predicted
        slowdown) above which the worst running job is re-scored and
        migrated when a candidate improves on it by ``migrate_margin``.
        ``None`` disables migration.
    governor_objective:
        When set, every placement also re-selects the node's P-state via
        :func:`repro.sched.governor.select_pstate` (requires a scorer).
    engines:
        One engine per fleet block; defaults to fresh engines sharing a
        :class:`SolveCache`.
    pace_s:
        Optional sleep between scheduling rounds (0 = run flat out).
    """

    known_endpoints = (
        "/v1/jobs", "/v1/cluster", "/healthz", "/metrics",
    )
    request_span_name = "sched.request"
    metrics_prefix = "repro_sched"

    def __init__(
        self,
        fleet: FleetState,
        baselines: BaselineTable | dict[str, BaselineTable],
        *,
        scorer=None,
        policy: str = "model",
        round_size: int = 32,
        max_candidates: int = 8,
        migrate_threshold: float | None = None,
        migrate_margin: float = 0.05,
        migrate_every: int = 4,
        governor_objective: GovernorObjective | None = None,
        governor_deadline_s: float | None = None,
        engines: list[SimulationEngine] | None = None,
        pace_s: float = 0.0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host=host, port=port)
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {POLICIES}")
        if policy == "model" and scorer is None:
            raise ValueError("the model policy needs a scorer")
        if governor_objective is not None and scorer is None:
            raise ValueError("the governor needs a scorer")
        if round_size < 1:
            raise ValueError("round size must be >= 1")
        if max_candidates < 1:
            raise ValueError("candidate budget must be >= 1")
        if migrate_threshold is not None and migrate_threshold <= 0.0:
            raise ValueError("migration threshold must be positive")
        if migrate_every < 1:
            raise ValueError("migration cadence must be >= 1")
        if governor_deadline_s is not None and governor_deadline_s <= 0.0:
            raise ValueError("governor deadline must be positive")
        if pace_s < 0.0:
            raise ValueError("pace must be non-negative")
        self.fleet = fleet
        if isinstance(baselines, BaselineTable):
            baselines = {
                cfg.processor.name: baselines for cfg in fleet.blocks
            }
        missing = {
            cfg.processor.name for cfg in fleet.blocks
        } - set(baselines)
        if missing:
            raise ValueError(
                f"baselines missing for processors: {sorted(missing)}"
            )
        self.baselines = baselines
        if engines is None:
            cache = SolveCache()
            engines = [
                SimulationEngine(cfg.processor, cache=cache)
                for cfg in fleet.blocks
            ]
        self.scorer = scorer
        self.policy = policy
        self.round_size = round_size
        self.max_candidates = max_candidates
        self.migrate_threshold = migrate_threshold
        self.migrate_margin = migrate_margin
        self.migrate_every = migrate_every
        self.governor_objective = governor_objective
        self.governor_deadline_s = governor_deadline_s
        self.pace_s = pace_s

        self.queue = JobQueue()
        self.running = RunningSet(fleet, engines)
        self._power = [PowerModel(cfg.processor) for cfg in fleet.blocks]
        self._now = 0.0
        self._rounds = 0
        self._draining = False
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self._loop_task: asyncio.Task | None = None

        self.sched_metrics = SchedMetrics()
        self.obs_registry.register_source("sched", self._render_sched_metrics)

    # -------------------------------------------------------------- state

    @property
    def now_s(self) -> float:
        """Current virtual time."""
        return self._now

    def _table(self, node: int) -> BaselineTable:
        return self.baselines[self.fleet.processor(node).name]

    def _base_time(self, node: int, app: ApplicationSpec) -> float:
        """Solo time of ``app`` at the node's *current* P-state."""
        freq = self.fleet.pstate(node).frequency_ghz
        return self._table(node).get(app.name, freq).wall_time_s

    def _app_stats(self, node: int, app: ApplicationSpec) -> tuple[float, float, float]:
        """Frequency-invariant co-feature contributions of one app."""
        fmax = self.fleet.processor(node).pstates.fastest.frequency_ghz
        base = self._table(node).get(app.name, fmax)
        return (base.memory_intensity, base.cm_per_ca, base.ca_per_ins)

    def _feature_dict(self, app: ApplicationSpec, node: int) -> dict:
        """Table I feature row for placing ``app`` on ``node`` — O(1)

        thanks to the fleet's resident co-feature sums."""
        fleet = self.fleet
        fmax = fleet.processor(node).pstates.fastest.frequency_ghz
        target = self._table(node).get(app.name, fmax)
        values = (
            self._base_time(node, app),
            float(fleet.used[node]),
            float(fleet.co_mem[node]),
            target.memory_intensity,
            float(fleet.co_cm_ca[node]),
            float(fleet.co_ca_ins[node]),
            target.cm_per_ca,
            target.ca_per_ins,
        )
        return dict(zip(FEATURE_NAMES, values))

    # ------------------------------------------------------------ metrics

    def _render_sched_metrics(self) -> str:
        out = Exposition()
        for name, help_text, value in (
            ("queue_depth", "Jobs waiting for placement.",
             self.queue.pending),
            ("running_jobs", "Jobs currently executing.",
             self.running.count),
            ("fleet_free_cores", "Unoccupied cores across the fleet.",
             int(self.fleet.free_cores.sum())),
            ("fleet_busy_nodes", "Nodes with at least one resident job.",
             self.fleet.busy_nodes),
            ("virtual_time_s", "Scheduler virtual clock.", self._now),
        ):
            out.gauge(f"repro_sched_{name}", help_text, value)
        return self.sched_metrics.render_prometheus() + out.text()

    def _endpoint_label(self, path: str) -> str:
        if path.startswith("/v1/jobs/"):
            return "/v1/jobs/{id}"
        return super()._endpoint_label(path)

    # ---------------------------------------------------------- lifecycle

    async def _on_start(self) -> None:
        self._stop.clear()
        self._loop_task = asyncio.create_task(self._scheduler_loop())

    async def _drain(self) -> None:
        """Finish the in-flight round, complete running work, requeue.

        Placement rounds already dispatched commit normally; jobs still
        executing run to (virtual) completion; jobs that never left the
        queue are marked ``requeued`` — every accepted job ends the
        drain either completed or explicitly requeued.
        """
        self._draining = True
        if self._loop_task is not None:
            self._stop.set()
            self._wake.set()
            await self._loop_task
            self._loop_task = None
        while self.running.count:
            if not self._advance_once():
                break
            await asyncio.sleep(0)
        for job in self.queue.drain_pending():
            job.status = JobStatus.REQUEUED
            self.sched_metrics.requeued += 1

    # --------------------------------------------------------------- loop

    async def _scheduler_loop(self) -> None:
        backoff = 0.0
        while not self._stop.is_set():
            self._wake.clear()
            errors = self.sched_metrics.predict_errors
            progressed = await self._step()
            if self._stop.is_set():
                break
            if self.sched_metrics.predict_errors > errors:
                # A scorer call failed this round (a placement round's jobs
                # are back in the queue): wait rather than spin on the tier.
                backoff = min(RETRY_BACKOFF_MAX_S, 2 * backoff or RETRY_BACKOFF_S)
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._stop.wait(), backoff)
                continue
            backoff = 0.0
            if self.pace_s > 0.0:
                await asyncio.sleep(self.pace_s)
            elif progressed:
                await asyncio.sleep(0)  # stay cooperative with handlers
            else:
                await self._wake.wait()

    async def _step(self) -> bool:
        """One scheduling round; returns whether anything happened."""
        progressed = False
        placed = 0
        # Each placement fills a free core, and the jobs a round places
        # are a prefix of those it takes: a job is left over only when the
        # round has no open slot for it, and then none for the jobs behind
        # it either.  Taking more jobs than there are free cores would
        # only score rows for jobs the round puts back.
        free = int(self.fleet.free_cores.sum())
        jobs = self.queue.take(min(self.round_size, free))
        with get_tracer().span(
            "sched.round", jobs=len(jobs), round=self._rounds
        ) as round_span:
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
            round_span.set(placed=placed, progressed=progressed)
        return progressed

    # ---------------------------------------------------------- placement

    async def _place_round(self, jobs: list[Job]) -> int:
        """Score and commit one round; unplaceable jobs rejoin the queue."""
        t0 = time.perf_counter()
        free_local = self.fleet.free_cores.copy()
        plan: list[tuple[Job, int, float | None]] = []
        unplaced: list[Job] = []
        if self.policy == "model":
            cand = self.fleet.candidates(self.max_candidates)
            if cand.size == 0:
                self.queue.put_back(jobs)
                return 0
            rows = [
                self._feature_dict(job.app, int(n))
                for job in jobs
                for n in cand
            ]
            preds = await self._score(rows)
            if preds is None:
                self.queue.put_back(jobs)
                return 0
            times = np.asarray(preds, dtype=float).reshape(len(jobs), cand.size)
            bases = np.array(
                [
                    [self._base_time(int(n), job.app) for n in cand]
                    for job in jobs
                ]
            )
            slowdowns = times / bases
            # The batch prices the fleet as it stood when the round
            # began; two corrections keep a burst from collapsing onto
            # the first candidate.  (1) Empty nodes are interchangeable,
            # so ``candidates()`` sends one empty representative per
            # block — jobs the argmin sends there fan out across the
            # block's other empty nodes, where the solo prediction
            # transfers exactly.  (2) Once empties run out, each node
            # already planned this round gets its score inflated by its
            # planned share of cores, so stale intra-round ties spread
            # round-robin instead of packing, while genuine mix
            # differences still decide between equally-planned nodes.
            empty_pools: dict[int, deque[int]] = {}
            for n in np.flatnonzero((self.fleet.used == 0) & (free_local > 0)):
                block = int(self.fleet.block_index[n])
                empty_pools.setdefault(block, deque()).append(int(n))
            planned: dict[int, int] = {}
            for i, job in enumerate(jobs):
                open_mask = free_local[cand] > 0
                scores = np.full(cand.size, np.inf)
                for ci, n in enumerate(cand):
                    n = int(n)
                    pool = empty_pools.get(int(self.fleet.block_index[n]))
                    if pool and self.fleet.used[n] == 0:
                        open_mask[ci] = True
                        scores[ci] = slowdowns[i][ci]
                    elif open_mask[ci]:
                        crowd = planned.get(n, 0) / int(
                            self.fleet.num_cores[n]
                        )
                        scores[ci] = slowdowns[i][ci] * (1.0 + crowd)
                if not open_mask.any():
                    unplaced.append(job)
                    continue
                pick = int(np.argmin(scores))
                node = int(cand[pick])
                pool = empty_pools.get(int(self.fleet.block_index[node]))
                if pool and self.fleet.used[node] == 0:
                    node = pool.popleft()
                free_local[node] -= 1
                planned[node] = planned.get(node, 0) + 1
                plan.append((job, node, float(slowdowns[i][pick])))
        else:
            for job in jobs:
                if self.policy == "first-fit":
                    open_nodes = np.flatnonzero(free_local > 0)
                    node = int(open_nodes[0]) if open_nodes.size else None
                else:  # least-loaded
                    node = int(np.argmax(free_local))
                    if free_local[node] <= 0:
                        node = None
                if node is None:
                    unplaced.append(job)
                    continue
                free_local[node] -= 1
                plan.append((job, node, None))
        if unplaced:
            self.queue.put_back(unplaced)
        for job, node, predicted in plan:
            await self._commit(job, node, predicted)
        if plan:
            self.sched_metrics.decision_latency.observe(
                time.perf_counter() - t0
            )
        return len(plan)

    async def _score(self, rows: list[dict]) -> list[float] | None:
        """One batched predict; ``None`` (and counted) when the scorer fails."""
        try:
            # The sched.predict span stays open across the to_thread hop:
            # contextvars travel with it, so the blocking client inside
            # propagates this span's context to the prediction tier and
            # the tier's request spans join the scheduler's trace.
            with get_tracer().span("sched.predict", rows=len(rows)):
                preds = await asyncio.to_thread(self.scorer.predict_rows, rows)
        except Exception:  # noqa: BLE001 - tier down: the caller backs off
            self.sched_metrics.predict_errors += 1
            return None
        self.sched_metrics.predict_batches += 1
        self.sched_metrics.predict_rows += len(rows)
        return preds

    async def _commit(
        self, job: Job, node: int, predicted_slowdown: float | None
    ) -> None:
        co_names = [r.app.name for r in self.running.jobs_on(node)]
        self.running.add(
            job.id,
            job.app,
            node,
            self._now,
            stats=self._app_stats(node, job.app),
        )
        choice = None
        if self.governor_objective is not None:
            table = self._table(node)
            try:
                choice, _ = await asyncio.to_thread(
                    select_pstate,
                    self.scorer,
                    self._power[int(self.fleet.block_index[node])],
                    table,
                    job.app.name,
                    co_names,
                    objective=self.governor_objective,
                    deadline_s=self.governor_deadline_s,
                )
            except Exception:  # noqa: BLE001 - tier down: keep the P-state
                self.sched_metrics.predict_errors += 1
        if choice is not None:
            self.fleet.set_pstate(node, choice.pstate.index)
            self.running.mark_dirty(node)
            base = table.get(
                job.app.name, choice.pstate.frequency_ghz
            ).wall_time_s
            predicted_slowdown = choice.predicted_time_s / base
        else:
            base = self._base_time(node, job.app)
        job.status = JobStatus.RUNNING
        job.node = node
        job.node_name = self.fleet.node_name(node)
        job.pstate_ghz = self.fleet.pstate(node).frequency_ghz
        job.placed_s = self._now
        job.baseline_s = base
        job.predicted_slowdown = predicted_slowdown
        self.sched_metrics.placements += 1
        if predicted_slowdown is not None:
            self.sched_metrics.predicted_degradation.observe(
                predicted_slowdown
            )

    # ---------------------------------------------------------- migration

    async def _migrate_once(self) -> bool:
        """Re-score and move the worst-regret running job, if any."""
        with get_tracer().span("sched.migrate") as span:
            moved = await self._migrate_pick(span)
            span.set(moved=moved)
        return moved

    async def _migrate_pick(self, span) -> bool:
        worst = None
        worst_regret = self.migrate_threshold
        worst_est = 0.0
        for rj in self.running.jobs():
            job = self.queue.get(rj.job_id)
            if job is None or job.predicted_slowdown is None:
                continue
            ips = self.running.rate_of(rj.job_id)
            est_total = (self._now - rj.start_s) + (
                rj.remaining_instructions / ips
            )
            est_slowdown = est_total / job.baseline_s
            regret = est_slowdown - job.predicted_slowdown
            if regret > worst_regret:
                worst, worst_regret, worst_est = rj, regret, est_slowdown
        if worst is None:
            return False
        cand = self.fleet.candidates(self.max_candidates)
        cand = cand[cand != worst.node]
        if cand.size == 0:
            return False
        span.set(job_id=worst.job_id, regret=worst_regret)
        rows = [self._feature_dict(worst.app, int(n)) for n in cand]
        preds = await self._score(rows)
        if preds is None:
            return False
        slowdowns = [
            float(p) / self._base_time(int(n), worst.app)
            for p, n in zip(preds, cand)
        ]
        pick = int(np.argmin(slowdowns))
        if slowdowns[pick] >= worst_est - self.migrate_margin:
            return False
        job = self.queue.get(worst.job_id)
        moved = self.running.remove(worst.job_id)
        node = int(cand[pick])
        self.running.add(
            moved.job_id,
            moved.app,
            node,
            moved.start_s,
            remaining_instructions=moved.remaining_instructions,
            stats=self._app_stats(node, moved.app),
        )
        job.node = node
        job.node_name = self.fleet.node_name(node)
        job.pstate_ghz = self.fleet.pstate(node).frequency_ghz
        job.migrations += 1
        self.sched_metrics.migrations += 1
        return True

    # --------------------------------------------------------- completion

    def _advance_once(self) -> bool:
        """Advance virtual time to the next completion."""
        t = self.running.next_completion(self._now)
        if not np.isfinite(t):
            return False
        self.running.advance_to(t, self._now)
        self._now = t
        for done in self.running.pop_finished():
            job = self.queue.get(done.job_id)
            if job is None:
                continue
            job.status = JobStatus.COMPLETED
            job.completed_s = self._now
            job.realized_slowdown = (
                (self._now - job.placed_s) / job.baseline_s
            )
            self.sched_metrics.record_completion(
                job.realized_slowdown, job.predicted_slowdown
            )
        return True

    # ------------------------------------------------------------- routes

    async def _route(self, request: Request):
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            body = {
                "status": "draining" if self._draining else "ok",
                "policy": self.policy,
                "nodes": self.fleet.n_nodes,
            }
            return 200, "application/json", json.dumps(body).encode()
        if path == "/v1/cluster":
            self._require(method, "GET")
            return 200, "application/json", json.dumps(
                self._cluster_body()
            ).encode()
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(request)
            self._require(method, "GET")
            return self._list_jobs(request)
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET")
            return self._job_detail(path[len("/v1/jobs/"):])
        raise HTTPError(404, "not_found", f"no route for {path}")

    def _cluster_body(self) -> dict:
        m = self.sched_metrics
        body = self.fleet.summary()
        body.update(
            {
                "policy": self.policy,
                "virtual_time_s": self._now,
                "draining": self._draining,
                "counts": self.queue.counts(),
                "queue_depth": self.queue.pending,
                "running_jobs": self.running.count,
                "placements": m.placements,
                "migrations": m.migrations,
                "completions": m.completions,
                "mean_regret": m.mean_regret,
            }
        )
        return body

    def _submit(self, request: Request):
        if self._draining:
            raise HTTPError(503, "draining", "scheduler is draining")
        body = self._json_object(request)
        names: list[str] = []
        if "apps" in body:
            apps = body["apps"]
            if (
                not isinstance(apps, list)
                or len(apps) > MAX_SUBMIT_JOBS
                or not all(isinstance(a, str) for a in apps)
            ):
                raise HTTPError(
                    400,
                    "bad_request",
                    f'"apps" must be a list of at most {MAX_SUBMIT_JOBS} names',
                )
            names = list(apps)
        elif "app" in body:
            if not isinstance(body["app"], str):
                raise HTTPError(400, "bad_request", '"app" must be a string')
            count = body.get("count", 1)
            # JSON true and false parse to bools, which are ints too.
            if type(count) is not int or not 1 <= count <= MAX_SUBMIT_JOBS:
                raise HTTPError(
                    400,
                    "bad_request",
                    f'"count" must be an integer from 1 to {MAX_SUBMIT_JOBS}',
                )
            names = [body["app"]] * count
        if not names:
            raise HTTPError(
                400, "bad_request", 'submit needs "app" or "apps"'
            )
        try:
            apps = [get_application(name) for name in names]
        except KeyError as exc:
            raise HTTPError(400, "unknown_app", str(exc.args[0])) from None
        ids = []
        for app in apps:
            job = self.queue.submit(app, self._now)
            ids.append(job.id)
            self.sched_metrics.jobs_submitted += 1
        self._wake.set()
        payload = {"ids": ids, "queue_depth": self.queue.pending}
        return 200, "application/json", json.dumps(payload).encode()

    def _list_jobs(self, request: Request):
        body: dict = {"counts": self.queue.counts()}
        wanted = request.query.get("status", [None])[0]
        if wanted is not None:
            try:
                status = JobStatus(wanted)
            except ValueError:
                raise HTTPError(
                    400, "bad_request", f"unknown status {wanted!r}"
                ) from None
            body["ids"] = [
                j.id for j in self.queue.jobs() if j.status is status
            ]
        return 200, "application/json", json.dumps(body).encode()

    def _job_detail(self, raw_id: str):
        # int() would also take "+0", "-0" and "0_0".
        if not (raw_id.isascii() and raw_id.isdigit()):
            raise HTTPError(
                400,
                "bad_request",
                f"job id must be a run of ASCII digits, got {raw_id!r}",
            )
        job_id = int(raw_id)
        job = self.queue.get(job_id)
        if job is None:
            raise HTTPError(404, "unknown_job", f"no job {job_id}")
        return 200, "application/json", json.dumps(job.to_dict()).encode()


class SchedulerThread(ServerThreadBase):
    """Run a :class:`SchedulerService` on a background event loop."""

    thread_name = "repro-sched"

    def __init__(self, fleet, baselines, **kwargs) -> None:
        super().__init__(SchedulerService(fleet, baselines, **kwargs))


class SchedulerClient(PredictionClient):
    """Blocking client for the scheduler API (keep-alive, like predict)."""

    def submit(self, apps: list[str] | str, *, count: int = 1) -> dict:
        if isinstance(apps, str):
            body = {"app": apps, "count": count}
        else:
            body = {"apps": list(apps)}
        return self._json("POST", "/v1/jobs", body)

    def cluster(self) -> dict:
        return self._json("GET", "/v1/cluster")

    def job(self, job_id: int) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self, *, status: str | None = None) -> dict:
        path = "/v1/jobs" + (f"?status={status}" if status else "")
        return self._json("GET", path)
