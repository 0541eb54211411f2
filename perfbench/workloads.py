"""The benchmark's three workloads, one per stage of the paper's method.

* ``collect`` — Table V sweeps of both catalog machines through
  ``collect_training_data``, each sweep with a fresh noise seed.  The
  batched steady-state solver and the collection loop around it do all
  the work; no scenario repeats, so nothing is cached, and nothing is
  fitted.
* ``evaluate`` — the paper's 12-model grid (linear and neural x feature
  sets A-F, 70/30 random sub-sampling) through ``evaluate_models`` at a
  reduced repetition count, on an e5649 Table V dataset collected during
  set-up.  Neural SCG fitting carries the timed phase; the simulator
  none of it.
* ``schedule`` — a pinned ``job_stream`` POSTed once to a fresh
  ``SchedulerService`` and run until every job completes.  The
  homogeneous e5649 fleet has fewer cores than the stream has jobs, so
  jobs queue and completions trigger re-placement and re-solves.  The
  ``model`` policy scores placements through ``RemoteScorer`` against a
  ``PredictionServer`` serving a neural/F model from a local
  ``ModelRegistry``.  Single-scenario solves sit behind the service's
  cold ``SolveCache``, which every service start pays for.

Each workload does its set-up in ``__init__`` and then runs ops through
``op(index)``, which returns an :class:`OpResult`: the units of work done
(scenarios, fits or jobs), the seconds of the op's timed region, and a
compact, JSON-ready output that :func:`check` compares with the
recorded reference and with seed-independent invariants.  Inputs come
only from the seed and the op index.  Every call goes through the
library's public API with library defaults; nothing passes
``batch_solve``, ``batched_restarts`` or ``workers``.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import FeatureSet, ModelKind, PerformancePredictor, evaluate_models
from repro.harness import collect_baselines, collect_training_data
from repro.machine import PROCESSOR_CATALOG, XEON_E5649
from repro.sched import (
    FleetState,
    JobStatus,
    MachineConfig,
    RemoteScorer,
    SchedulerClient,
    SchedulerThread,
    job_stream,
)
from repro.serve import ModelRegistry, ServerThread
from repro.sim import SimulationEngine, SolveCache
from repro.workloads import all_applications

from layers import TracedEngine, TracedScorer

__all__ = [
    "OpResult",
    "REFERENCE_FIELDS",
    "WORKLOADS",
    "check",
    "fingerprint",
    "load_reference",
    "make_workload",
    "reference_output",
]

#: Table V rows per sweep for each catalog machine.
TABLE_V_ROWS = {"e5649": 1320, "e5-2697v2": 1584}

#: Random sub-sampling repetitions per grid cell in one ``evaluate`` op.
REPETITIONS = 1

#: ``schedule`` fleet and stream: 16 six-core nodes (96 cores) for 256
#: jobs, so most of the stream queues behind the first placements.
SCHEDULE_NODES = 16
SCHEDULE_JOBS = 256

#: Completion is detected by polling the small ``GET /v1/cluster`` body.
POLL_S = 0.01
#: A stream that has not completed by then counts its open jobs as failed.
SCHEDULE_TIMEOUT_S = 60.0

MODEL_NAME = "colo"

#: The output fields a recorded reference holds and :func:`check` compares.
REFERENCE_FIELDS = {
    "collect": ("digests",),
    "evaluate": ("mpe",),
    "schedule": ("digest", "completions", "mean_slowdown"),
}


@dataclass
class OpResult:
    units: int
    seconds: float
    output: dict


def _span(recorder, name: str, **attrs):
    return recorder.span(name, **attrs) if recorder is not None else nullcontext()


def _engine(processor, recorder, **kwargs) -> SimulationEngine:
    if recorder is None:
        return SimulationEngine(processor, **kwargs)
    return TracedEngine(processor, recorder, **kwargs)


def _seed_word(seed: int) -> int:
    """Any integer seed as the non-negative word numpy seeding needs."""
    return seed % 2**32


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _e5649_dataset(engine, seed: int, recorder):
    """Baselines plus one noisy e5649 Table V dataset (set-up of two workloads)."""
    baselines = collect_baselines(engine, all_applications())
    with _span(recorder, "harness.collect", machine="e5649"):
        dataset = collect_training_data(
            engine, baselines=baselines, rng=np.random.default_rng([seed])
        )
    return baselines, dataset


class Collect:
    """Repeated Table V sweeps of both catalog machines."""

    warmup = True

    def __init__(self, seed: int, recorder=None, workdir=None) -> None:
        self.seed = _seed_word(seed)
        self.recorder = recorder
        self.machines = []
        for key in TABLE_V_ROWS:
            engine = _engine(PROCESSOR_CATALOG[key], recorder)
            self.machines.append(
                (key, engine, collect_baselines(engine, all_applications()))
            )

    def op(self, index: int) -> OpResult:
        datasets = []
        start = time.perf_counter()
        for m, (key, engine, baselines) in enumerate(self.machines):
            rng = np.random.default_rng([self.seed, index, m])
            with _span(self.recorder, "harness.collect", machine=key):
                datasets.append(
                    collect_training_data(engine, baselines=baselines, rng=rng)
                )
        seconds = time.perf_counter() - start
        output = {
            "machines": [key for key, _e, _b in self.machines],
            "rows": [len(d) for d in datasets],
            "bad_times": [
                int(np.count_nonzero(~(np.isfinite(t) & (t > 0.0))))
                for t in (d.actual_times() for d in datasets)
            ],
            "digests": [_sha256(d.to_csv_string()) for d in datasets],
        }
        return OpResult(sum(output["rows"]), seconds, output)

    def close(self) -> None:
        pass


class Evaluate:
    """The 12-model grid at a reduced repetition count."""

    warmup = True

    def __init__(self, seed: int, recorder=None, workdir=None) -> None:
        self.seed = _seed_word(seed)
        self.recorder = recorder
        engine = _engine(XEON_E5649, recorder)
        _baselines, dataset = _e5649_dataset(engine, self.seed, recorder)
        self.observations = list(dataset)

    def op(self, index: int) -> OpResult:
        op_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        start = time.perf_counter()
        # One call per grid cell, so each fit can sit in its layer's span:
        # every cell draws from its own RNG stream, which makes this
        # bit-identical to one call over the whole grid.
        evaluations = []
        for kind in ModelKind:
            for fs in FeatureSet:
                with _span(
                    self.recorder, f"core.fit.{kind.value}", fits=REPETITIONS
                ) as span:
                    evaluations += evaluate_models(
                        self.observations,
                        kinds=(kind,),
                        feature_sets=(fs,),
                        repetitions=REPETITIONS,
                        seed=op_seed,
                    )
                if span is not None:
                    # Optional program counter: read only when present.
                    stats = getattr(evaluations[-1].result, "fit_stats", None)
                    iterations = getattr(stats, "scg_iterations", None)
                    if isinstance(iterations, int):
                        span.attrs["scg_iterations"] = iterations
        seconds = time.perf_counter() - start
        output = {
            "mpe": {e.label: e.result.mean_test_mpe for e in evaluations},
            "fits": sum(e.result.repetitions for e in evaluations),
        }
        return OpResult(output["fits"], seconds, output)

    def close(self) -> None:
        pass


def _non_2xx(server) -> int | None:
    """Non-2xx responses a server counted; ``None`` if it exposes no counts.

    :func:`check` fails an op whose servers expose no request counts, so a
    renamed counter cannot turn the non-2xx check into one that never fails.
    """
    counts = getattr(getattr(server, "metrics", None), "requests_total", None)
    if not isinstance(counts, dict):
        return None
    return sum(
        n for (_endpoint, status), n in counts.items()
        if not 200 <= int(status) < 300
    )


class Schedule:
    """One pinned job stream through a fresh scheduler per op."""

    warmup = False

    def __init__(self, seed: int, recorder, workdir: Path) -> None:
        self.seed = _seed_word(seed)
        self.recorder = recorder
        engine = _engine(XEON_E5649, recorder)
        self.baselines, dataset = _e5649_dataset(engine, self.seed, recorder)
        predictor = PerformancePredictor(
            ModelKind.NEURAL, FeatureSet.F, seed=self.seed
        )
        with _span(recorder, "core.fit.neural", fits=1):
            predictor.fit(list(dataset))
        registry = ModelRegistry(Path(workdir) / "registry")
        with _span(recorder, "registry.push"):
            registry.push(MODEL_NAME, predictor)
        self.predictions = ServerThread(registry).start()
        if recorder is None:
            self.scorer = RemoteScorer(
                "127.0.0.1", self.predictions.port, model=MODEL_NAME
            )
        else:
            self.scorer = TracedScorer(
                "127.0.0.1", self.predictions.port, model=MODEL_NAME,
                recorder=recorder,
            )
        # The stream is pinned (job_stream's default seed): the seed varies
        # the dataset, and so the model and its placements, but not the
        # job mix, which would change the amount of work per op.
        stream = job_stream(list(all_applications()), SCHEDULE_JOBS)
        self.apps = [app.name for app, _arrival in stream]

    def op(self, index: int) -> OpResult:
        fleet = FleetState(
            [MachineConfig(XEON_E5649, count=SCHEDULE_NODES, name_prefix="node")]
        )
        engines = None
        if self.recorder is not None:
            # The service's default: one engine over a fresh SolveCache.
            engines = [_engine(XEON_E5649, self.recorder, cache=SolveCache())]
        predict_before = _non_2xx(self.predictions.server)
        handle = SchedulerThread(
            fleet, self.baselines, scorer=self.scorer, engines=engines
        ).start()
        client = SchedulerClient("127.0.0.1", handle.port)
        try:
            start = time.perf_counter()
            client.submit(self.apps)
            body = client.cluster()
            while (
                body["completions"] < len(self.apps)
                and time.perf_counter() - start < SCHEDULE_TIMEOUT_S
            ):
                time.sleep(POLL_S)
                body = client.cluster()
            seconds = time.perf_counter() - start
        finally:
            client.close()
            handle.stop()
        counts = (
            _non_2xx(handle.server),
            _non_2xx(self.predictions.server),
            predict_before,
        )
        jobs = sorted(handle.server.queue.jobs(), key=lambda job: job.id)
        slowdowns = [
            job.realized_slowdown for job in jobs
            if job.realized_slowdown is not None
        ]
        record = [
            [job.id, job.app.name, job.node, job.placed_s, job.completed_s]
            for job in jobs
        ]
        output = {
            "jobs": len(self.apps),
            "completed": sum(job.status is JobStatus.COMPLETED for job in jobs),
            "completions": body["completions"],
            "placements": body["placements"],
            "migrations": body["migrations"],
            "bad_slowdowns": sum(
                not (math.isfinite(s) and s > 0.0) for s in slowdowns
            ),
            "mean_slowdown": float(np.mean(slowdowns)) if slowdowns else 0.0,
            "digest": _sha256(json.dumps(record)),
            "non_2xx": None if None in counts else counts[0] + counts[1] - counts[2],
        }
        return OpResult(len(self.apps), seconds, output)

    def close(self) -> None:
        self.scorer.close()
        self.predictions.stop()


WORKLOADS = {"collect": Collect, "evaluate": Evaluate, "schedule": Schedule}


def make_workload(name: str, seed: int, recorder, workdir: Path):
    """Build (set up) one workload."""
    return WORKLOADS[name](seed, recorder, workdir)


def fingerprint() -> dict:
    """The numeric environment a recorded reference is exact for.

    Outputs are compared bit for bit, and numpy's SIMD kernels (exp, log,
    BLAS) may round differently on another numpy build or CPU.
    """
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": sorted(simd.get("baseline", []) + simd.get("found", [])),
    }


def load_reference(path: Path) -> dict | None:
    """The recorded reference, if present and recorded in this environment."""
    if not path.is_file():
        return None
    reference = json.loads(path.read_text())
    if reference.get("fingerprint") != fingerprint():
        return None
    return reference


def reference_output(reference: dict | None, workload: str, seed: int, index: int):
    """The recorded output for one op, or ``None`` when none was recorded."""
    if reference is None:
        return None
    entry = reference.get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if workload == "schedule":
        return entry
    return entry[index] if index < len(entry) else None


def check(workload: str, output: dict, expected: dict | None) -> tuple[int, list[str]]:
    """Check one op's output; returns (failed units, error messages).

    ``expected`` is the recorded reference for this seed and op index
    (``None`` when the benchmark recorded none); the seed-independent
    invariants apply either way.
    """
    errors: list[str] = []
    failed = 0
    if workload == "collect":
        for i, machine in enumerate(output["machines"]):
            rows = output["rows"][i]
            bad = output["bad_times"][i]
            if rows != TABLE_V_ROWS[machine]:
                errors.append(
                    f"{machine}: {rows} rows, expected {TABLE_V_ROWS[machine]}"
                )
                failed += rows
            elif expected is not None and output["digests"][i] != expected["digests"][i]:
                errors.append(f"{machine}: dataset differs from the reference")
                failed += rows
            elif bad:
                errors.append(f"{machine}: {bad} non-finite or non-positive times")
                failed += bad
    elif workload == "evaluate":
        mpe = output["mpe"]
        per_cell = output["fits"] // max(len(mpe), 1)
        for label, value in mpe.items():
            if not (math.isfinite(value) and value > 0.0):
                errors.append(f"{label}: test MPE {value!r} is not a positive number")
                failed += per_cell
            elif expected is not None and value != expected["mpe"].get(label):
                errors.append(
                    f"{label}: test MPE {value!r} differs from the reference "
                    f"{expected['mpe'].get(label)!r}"
                )
                failed += per_cell
        if len(mpe) != 12:
            errors.append(f"{len(mpe)} grid cells, expected 12")
            failed += output["fits"]
        elif not mpe["neural/F"] < mpe["linear/F"]:
            errors.append(
                f"neural/F test MPE {mpe['neural/F']!r} is not below "
                f"linear/F {mpe['linear/F']!r}"
            )
            failed += 2 * per_cell
    elif workload == "schedule":
        jobs = output["jobs"]
        open_jobs = jobs - output["completed"]
        if open_jobs or output["completions"] != jobs:
            errors.append(
                f"{output['completed']} jobs completed and "
                f"{output['completions']} completions counted for {jobs} jobs"
            )
            failed += max(open_jobs, abs(output["completions"] - jobs), 1)
        elif output["bad_slowdowns"]:
            errors.append(
                f"{output['bad_slowdowns']} non-finite or non-positive slowdowns"
            )
            failed += output["bad_slowdowns"]
        elif expected is not None and any(
            output[key] != expected[key] for key in REFERENCE_FIELDS["schedule"]
        ):
            errors.append("placements or completions differ from the reference")
            failed += jobs
        if output["non_2xx"] is None:
            errors.append("a server exposes no request counts to check for non-2xx")
            failed += jobs
        elif output["non_2xx"]:
            errors.append(f"{output['non_2xx']} non-2xx responses")
            failed += output["non_2xx"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return failed, errors
