"""Incremental suite runner: walk the case DAG, skip what the store has.

The runner is deliberately dumb about scheduling and smart about
provenance.  :func:`~repro.suite.dag.build_nodes` yields nodes in
topological order; for each node the runner computes its content-
addressed input key (possible only once every upstream manifest is in
hand), asks the :class:`~repro.suite.store.ArtifactStore` whether that
key already resolves, and either skips (store hit) or executes the node
through the existing :mod:`repro.harness` / :mod:`repro.core` drivers
and commits the result.

Because every completed node is committed to the store *immediately*
(blob first, manifest second, both atomic), the store doubles as the
checkpoint log: a run killed mid-node leaves every finished node
resolvable and the half-finished node absent, so re-running the same
command resumes exactly where the dead run stopped — no journal, no
lock file, no recovery pass.

Steady-state solves are shared the same way: each collect node loads the
machine's persisted :class:`~repro.sim.solve_cache.SolveCache` snapshot
from the store before simulating and saves the merged cache after, so
later cases — and later *runs*, even in different processes — never
re-solve a scenario any earlier run has seen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dag import SuiteNode, build_nodes, key_material, node_input_key
from .spec import CaseSpec, SuiteSpec
from .stats import SuiteStats
from .store import ArtifactStore, NodeManifest
from .. import __version__

__all__ = ["NodeResult", "SuiteReport", "SuiteRunner"]

#: Default bound on per-machine solve caches the runner creates.  Large
#: enough that realistic suites never evict, small enough that a pickled
#: snapshot stays manageable.
DEFAULT_CACHE_ENTRIES = 100_000


@dataclass(frozen=True)
class NodeResult:
    """Outcome of one node during a run."""

    node_id: str
    status: str  # "run" | "cached" | "blocked" | "failed"
    input_key: str | None = None
    content_sha256: str | None = None
    detail: str = ""


@dataclass
class SuiteReport:
    """Everything one ``SuiteRunner.run()`` did."""

    suite: str
    results: list[NodeResult] = field(default_factory=list)

    def by_status(self, status: str) -> list[NodeResult]:
        return [r for r in self.results if r.status == status]

    @property
    def executed(self) -> int:
        return len(self.by_status("run"))

    @property
    def skipped(self) -> int:
        return len(self.by_status("cached"))

    @property
    def failed(self) -> int:
        return len(self.by_status("failed")) + len(self.by_status("blocked"))

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        lines = [
            f"suite {self.suite}: {len(self.results)} node(s) — "
            f"{self.executed} executed, {self.skipped} cached"
            + (f", {self.failed} failed/blocked" if self.failed else "")
        ]
        for r in self.results:
            marker = {
                "run": "+",
                "cached": "=",
                "failed": "!",
                "blocked": "!",
            }[r.status]
            suffix = f"  [{r.detail}]" if r.detail else ""
            lines.append(f"  {marker} {r.node_id}: {r.status}{suffix}")
        return "\n".join(lines)


class SuiteRunner:
    """Execute (or resolve) every node of a suite against one store."""

    def __init__(
        self,
        suite: SuiteSpec,
        store: ArtifactStore,
        *,
        workers: int = 1,
        force: bool = False,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        stats: SuiteStats | None = None,
    ) -> None:
        self.suite = suite
        self.store = store
        self.workers = max(1, int(workers))
        self.force = force
        self.cache_entries = cache_entries
        self.stats = stats if stats is not None else SuiteStats()
        self.library_version = __version__

    # ------------------------------------------------------------- planning
    def plan(self) -> list[tuple[SuiteNode, str | None, bool]]:
        """(node, input_key-or-None, store_hit) per node, topo order.

        A key is ``None`` when an upstream has never run — the node's key
        cannot be known until that upstream's artifact digest exists.
        Pure read-only: nothing is executed.
        """
        upstream: dict[str, NodeManifest] = {}
        rows: list[tuple[SuiteNode, str | None, bool]] = []
        for node in build_nodes(self.suite):
            try:
                key = node_input_key(node, upstream, self.library_version)
            except KeyError:
                rows.append((node, None, False))
                continue
            manifest = self.store.node_manifest(key)
            if manifest is not None:
                upstream[node.node_id] = manifest
            rows.append((node, key, manifest is not None))
        return rows

    # ------------------------------------------------------------- running
    def run(self) -> SuiteReport:
        """Walk the DAG; skip store hits, execute misses, commit results."""
        from ..obs import get_tracer

        self.stats.record_run()
        report = SuiteReport(suite=self.suite.name)
        upstream: dict[str, NodeManifest] = {}
        # Keys present before we ran anything: hits on them are resumes
        # (or prior-run results), not artifacts of this run's own writes.
        preexisting = set(self.store.node_keys())
        with get_tracer().span(
            "suite.run", suite=self.suite.name, nodes=0
        ) as run_span:
            nodes = build_nodes(self.suite)
            run_span.set(nodes=len(nodes))
            for node in nodes:
                result = self._run_node(node, upstream, preexisting)
                report.results.append(result)
        return report

    def _run_node(
        self,
        node: SuiteNode,
        upstream: dict[str, NodeManifest],
        preexisting: set[str],
    ) -> NodeResult:
        from ..obs import get_tracer

        try:
            key = node_input_key(node, upstream, self.library_version)
        except KeyError as exc:
            # Upstream never produced a manifest (failed or blocked).
            return NodeResult(
                node_id=node.node_id,
                status="blocked",
                detail=f"upstream {exc.args[0]} has no artifact",
            )
        manifest = None if self.force else self.store.node_manifest(key)
        if manifest is not None:
            upstream[node.node_id] = manifest
            self.stats.record_node_skipped(resumed=key in preexisting)
            return NodeResult(
                node_id=node.node_id,
                status="cached",
                input_key=key,
                content_sha256=manifest.content_sha256,
            )
        with get_tracer().span(
            "suite.node", node=node.node_id, kind=node.kind, key=key[:12]
        ):
            try:
                payload, meta = self._execute(node, upstream)
            except Exception as exc:  # noqa: BLE001 - one node, not the run
                self.stats.record_node_failed()
                return NodeResult(
                    node_id=node.node_id,
                    status="failed",
                    input_key=key,
                    detail=f"{type(exc).__name__}: {exc}",
                )
        committed = self.store.put_node(
            node_id=node.node_id,
            kind=node.kind,
            input_key=key,
            payload=payload,
            library_version=self.library_version,
            spec=node.key_spec,
            inputs=key_material(node, upstream, self.library_version)[
                "inputs"
            ],
            meta=meta,
        )
        upstream[node.node_id] = committed
        self.stats.record_node_run()
        return NodeResult(
            node_id=node.node_id,
            status="run",
            input_key=key,
            content_sha256=committed.content_sha256,
        )

    # ------------------------------------------------------------ executors
    def _execute(
        self, node: SuiteNode, upstream: dict[str, NodeManifest]
    ) -> tuple[bytes, dict]:
        if node.kind == "collect":
            return self._execute_collect(node.case)
        if node.kind == "train":
            return self._execute_train(node, upstream)
        if node.kind == "eval":
            return self._execute_eval(node, upstream)
        raise ValueError(f"unknown node kind {node.kind!r}")

    def _load_dataset(self, node: SuiteNode, upstream: dict[str, NodeManifest]):
        from ..harness.datasets import ObservationDataset

        collect_manifest = upstream[node.inputs[0]]
        payload = self.store.read_blob(collect_manifest.content_sha256)
        return ObservationDataset.from_csv_string(payload.decode())

    def _execute_collect(self, case: CaseSpec) -> tuple[bytes, dict]:
        import numpy as np

        from ..harness.collection import (
            collect_random_training_data,
            collect_training_data,
        )
        from ..harness.manifest import DatasetManifest
        from ..machine.processor import get_processor
        from ..sim.engine import SimulationEngine
        from ..sim.solve_cache import SolveCache
        from ..workloads.suite import get_application

        cache = SolveCache(max_entries=self.cache_entries)
        loaded = self.store.load_solve_cache(case.machine, cache)
        self.stats.record_solve_cache(loaded=loaded)
        engine = SimulationEngine(get_processor(case.machine), cache=cache)
        rng = np.random.default_rng(case.seed)
        targets = (
            [get_application(n) for n in case.targets]
            if case.targets
            else None
        )
        co_apps = (
            [get_application(n) for n in case.co_apps]
            if case.co_apps
            else None
        )
        if case.sampling == "random":
            dataset = collect_random_training_data(
                engine,
                case.budget,
                targets=targets,
                co_apps=co_apps,
                rng=rng,
                workers=self.workers,
            )
        else:
            dataset = collect_training_data(
                engine,
                targets=targets,
                co_apps=co_apps,
                counts=case.counts or None,
                frequencies_ghz=case.frequencies_ghz or None,
                rng=rng,
                workers=self.workers,
            )
        saved = self.store.save_solve_cache(case.machine, cache)
        self.stats.record_solve_cache(saved=saved)
        manifest = DatasetManifest.describe(dataset, seed=case.seed)
        meta = {
            "dataset_manifest": json.loads(manifest.to_json()),
            "solve_cache_entries": saved,
        }
        return dataset.to_csv_string().encode(), meta

    def _execute_train(
        self, node: SuiteNode, upstream: dict[str, NodeManifest]
    ) -> tuple[bytes, dict]:
        from ..core.feature_sets import FeatureSet
        from ..core.methodology import ModelKind, PerformancePredictor
        from ..core.persistence import artifact_to_dict

        dataset = self._load_dataset(node, upstream)
        predictor = PerformancePredictor(
            ModelKind(node.key_spec["kind"]),
            FeatureSet(node.key_spec["feature_set"]),
            seed=node.case.seed,
        )
        predictor.fit(list(dataset))
        payload = json.dumps(
            artifact_to_dict(predictor), indent=2, sort_keys=True
        ).encode()
        meta = {"observations": len(dataset)}
        return payload, meta

    def _execute_eval(
        self, node: SuiteNode, upstream: dict[str, NodeManifest]
    ) -> tuple[bytes, dict]:
        from ..core.feature_sets import FeatureSet
        from ..core.methodology import ModelKind, evaluate_models

        dataset = self._load_dataset(node, upstream)
        evaluations = evaluate_models(
            list(dataset),
            kinds=tuple(ModelKind(k) for k in node.case.model_kinds),
            feature_sets=tuple(
                FeatureSet(f) for f in node.case.feature_sets
            ),
            repetitions=node.case.repetitions,
            seed=node.case.seed,
            workers=self.workers,
        )
        rows = [
            {
                "kind": ev.kind.value,
                "feature_set": ev.feature_set.value,
                "mean_train_mpe": ev.result.mean_train_mpe,
                "mean_test_mpe": ev.result.mean_test_mpe,
                "mean_train_nrmse": ev.result.mean_train_nrmse,
                "mean_test_nrmse": ev.result.mean_test_nrmse,
            }
            for ev in evaluations
        ]
        payload = json.dumps(
            {"case": node.case.name, "rows": rows},
            indent=2,
            sort_keys=True,
        ).encode()
        meta = {"evaluations": len(rows)}
        return payload, meta

    # ------------------------------------------------------------ explain
    def explain(self, node_id: str | None = None) -> str:
        """Human-readable account of keys and store state, no execution.

        Walks the same plan as :meth:`run` would; for each node (or just
        ``node_id``) shows status, input key, and — for pending nodes —
        which ingredient is missing.
        """
        rows = self.plan()
        if node_id is not None:
            rows = [r for r in rows if r[0].node_id == node_id]
            if not rows:
                known = [n.node_id for n, _, _ in self.plan()]
                raise ValueError(
                    f"suite {self.suite.name!r} has no node {node_id!r}; "
                    f"nodes: {known}"
                )
        lines = [f"suite {self.suite.name} against store {self.store.describe()}"]
        for node, key, hit in rows:
            if key is None:
                status = "pending (upstream has never run)"
                shown = "-"
            elif hit:
                status = "cached"
                shown = key[:16]
            else:
                status = "will run"
                shown = key[:16]
            lines.append(f"  {node.node_id}: {status}  key={shown}")
            if node_id is not None and key is not None:
                manifest = self.store.node_manifest(key)
                lines.append(f"    kind: {node.kind}")
                lines.append(
                    "    spec: "
                    + json.dumps(node.key_spec, sort_keys=True)
                )
                for upstream_id in node.inputs:
                    lines.append(f"    input: {upstream_id}")
                if manifest is not None:
                    lines.append(
                        f"    artifact: {manifest.content_sha256[:16]} "
                        f"(created {manifest.created_at})"
                    )
        return "\n".join(lines)

    def keep_keys(self) -> set[str]:
        """Input keys the current spec resolves to (for ``suite gc``).

        Only keys computable from existing store state are returned; a
        suite that has never run keeps nothing, and a partially-run suite
        keeps exactly the manifests it has produced so far.
        """
        return {key for _, key, hit in self.plan() if key is not None and hit}
