"""Command-line interface: ``python -m repro <command>``.

Exposes the full workflow without writing any Python:

* ``machines`` / ``apps`` — inspect the simulated testbed,
* ``baseline`` — solo execution times of one app at every P-state,
* ``collect`` — run the Table V loop nest and write a CSV dataset,
* ``train`` — fit a model on a dataset and save it as JSON,
* ``evaluate`` — the 12-model accuracy grid for a dataset,
* ``predict`` — predict a placement's time from a saved model,
* ``registry`` — push/list/show versioned models in a local or remote
  registry, plus ``serve`` (the HTTP artifact service, or a pull-through
  read replica of an upstream registry with ``--mirror URL``), ``gc``
  (prune old versions), ``tombstone`` (block a bad version without
  deleting it), and ``pull`` (warm the local blob cache),
* ``serve`` — run the micro-batched asyncio prediction service from a
  local registry directory or a remote registry (``--registry-url``),
  with optional admission control and hot-reload,
* ``sched`` — the online degradation-aware cluster scheduler:
  ``serve`` (simulated fleet + placement/migration/DVFS loop),
  ``submit`` (enqueue jobs), ``status`` (cluster or per-job JSON),
* ``suite`` — declarative experiment suites over a content-addressed
  artifact store: ``run`` (incremental execution — unchanged cases are
  resolved from the store, killed runs resume), ``status`` (what a run
  would do), ``explain`` (why each node's key is what it is), ``gc``
  (drop artifacts the current spec no longer reaches),
* ``table`` / ``figure`` — regenerate a paper table or figure,
* ``report`` — collate benchmark artifacts into one reproduction report,
* ``obs summary`` — aggregate + span tree view of captured traces,
* ``obs collector`` — standalone span collector the fleet streams to.

``collect``, ``train``, ``evaluate``, ``serve``, ``sched serve`` and
``suite run`` accept ``--trace PATH``: the run records :mod:`repro.obs`
spans and writes them as Chrome trace-event JSON on exit (open in
Perfetto, or inspect with ``repro obs summary PATH``).  ``--otlp PATH``
additionally exports OTLP/JSON, and ``--trace-collector URL`` streams
completed spans to a collector service as they finish (``serve
--workers N`` spawns an internal collector automatically so every
worker's spans land in one stitched trace).  Without the flags the null
tracer stays installed and instrumentation is a no-op.  ``collect``,
``evaluate`` and ``suite run`` accept ``--stats``, which prints the
run's counters as the samples their ``/metrics`` families show.

Every command prints plain text and exits nonzero on user error, so the
CLI composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .obs.registry import samples_text

__all__ = ["main", "build_parser"]


def _get_machine(key: str):
    from .machine.processor import get_processor

    try:
        return get_processor(key)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _get_apps(names: list[str]):
    from .workloads.suite import get_application

    try:
        return [get_application(n) for n in names]
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _check_workers(args) -> None:
    if getattr(args, "workers", 1) < 1:
        raise SystemExit("error: --workers must be >= 1")


def _verify_dataset(args, dataset) -> None:
    """Apply the ``--verify-manifest`` policy after loading a dataset CSV."""
    mode = getattr(args, "verify_manifest", "warn")
    if mode == "skip":
        return
    from .harness.manifest import check_dataset_manifest

    problems = check_dataset_manifest(dataset, args.data)
    if not problems:
        return
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    if mode == "strict":
        raise SystemExit(
            "error: dataset provenance verification failed "
            "(--verify-manifest strict)"
        )


# ------------------------------------------------------------- commands


def _cmd_machines(_args) -> int:
    from .machine.processor import PROCESSOR_CATALOG
    from .reporting.tables import render_table

    rows = [
        [
            key,
            proc.name,
            proc.num_cores,
            f"{proc.llc.size_mb:.0f}MB",
            ", ".join(f"{f:.2f}" for f in proc.pstates.frequencies_ghz),
        ]
        for key, proc in PROCESSOR_CATALOG.items()
    ]
    print(
        render_table(
            ["key", "processor", "cores", "L3", "P-states (GHz)"],
            rows,
            title="Machine catalog",
        )
    )
    return 0


def _cmd_apps(args) -> int:
    from .reporting.tables import render_table
    from .workloads.suite import all_applications, intended_class

    machine = _get_machine(args.machine)
    cap = machine.llc.size_bytes
    rows = [
        [
            app.name,
            app.suite,
            app.solo_memory_intensity(cap),
            intended_class(app.name).roman,
        ]
        for app in all_applications()
    ]
    print(
        render_table(
            ["application", "suite", f"memory intensity @ {machine.name}", "class"],
            rows,
            title="Benchmark suite (Table III)",
        )
    )
    return 0


def _cmd_baseline(args) -> int:
    from .reporting.tables import render_table
    from .sim.engine import SimulationEngine

    machine = _get_machine(args.machine)
    (app,) = _get_apps([args.app])
    engine = SimulationEngine(machine)
    rows = []
    for pstate in machine.pstates:
        run = engine.baseline(app, pstate=pstate)
        rows.append(
            [
                pstate.frequency_ghz,
                run.target.execution_time_s,
                run.target.memory_intensity,
                run.target.miss_ratio,
            ]
        )
    print(
        render_table(
            ["frequency (GHz)", "baseline time (s)", "memory intensity", "LLC miss ratio"],
            rows,
            title=f"Baselines: {app.name} on {machine.name}",
        )
    )
    return 0


def _cmd_collect(args) -> int:
    from .harness.collection import collect_training_data
    from .sim.engine import SimulationEngine
    from .sim.solve_cache import SolveCache

    machine = _get_machine(args.machine)
    engine = SimulationEngine(
        machine, cache=None if args.no_cache else SolveCache()
    )
    kwargs = {}
    if args.targets:
        kwargs["targets"] = _get_apps(args.targets.split(","))
    if args.co_apps:
        kwargs["co_apps"] = _get_apps(args.co_apps.split(","))
    if args.counts:
        try:
            kwargs["counts"] = tuple(int(c) for c in args.counts.split(","))
        except ValueError:
            raise SystemExit(f"error: invalid counts {args.counts!r}") from None
    try:
        dataset = collect_training_data(
            engine,
            rng=np.random.default_rng(args.seed),
            workers=args.workers,
            **kwargs,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    dataset.to_csv(args.output)
    from .harness.manifest import manifest_path_for, write_manifest

    write_manifest(dataset, args.output, seed=args.seed)
    print(
        f"wrote {len(dataset)} observations to {args.output} "
        f"(manifest: {manifest_path_for(args.output)})"
    )
    if args.stats:
        print(samples_text(engine.stats.render_prometheus()))
    return 0


def _cmd_train(args) -> int:
    from .core.ensemble import EnsemblePredictor
    from .core.feature_sets import FeatureSet
    from .core.methodology import ModelKind, PerformancePredictor
    from .core.persistence import save_artifact
    from .harness.datasets import ObservationDataset

    _check_workers(args)
    try:
        dataset = ObservationDataset.from_csv(args.data)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read dataset: {exc}") from None
    _verify_dataset(args, dataset)
    try:
        kind = ModelKind(args.model)
        feature_set = FeatureSet(args.features.upper())
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.ensemble:
        if args.ensemble < 2:
            raise SystemExit("error: --ensemble needs at least 2 members")
        artifact = EnsemblePredictor(
            kind,
            feature_set,
            n_members=args.ensemble,
            seed=args.seed,
            workers=args.workers,
        )
        label = f"{kind.value}/{feature_set.value} x{args.ensemble} ensemble"
    else:
        artifact = PerformancePredictor(kind, feature_set, seed=args.seed)
        label = f"{kind.value}/{feature_set.value}"
    try:
        artifact.fit(list(dataset))
    except ValueError as exc:
        raise SystemExit(f"error: cannot fit model: {exc}") from None
    save_artifact(artifact, args.output)
    print(
        f"trained {label} on {len(dataset)} "
        f"observations from {dataset.processor_name}; saved to {args.output}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    from .core.fitstats import FitStats
    from .core.methodology import evaluate_models
    from .harness.datasets import ObservationDataset
    from .reporting.tables import render_table

    _check_workers(args)
    try:
        dataset = ObservationDataset.from_csv(args.data)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read dataset: {exc}") from None
    _verify_dataset(args, dataset)
    fit_stats = FitStats()
    try:
        evaluations = evaluate_models(
            list(dataset),
            repetitions=args.repetitions,
            seed=args.seed,
            workers=args.workers,
            stats=fit_stats,
        )
    except ValueError as exc:
        raise SystemExit(f"error: cannot evaluate dataset: {exc}") from None
    rows = [
        [
            e.kind.value,
            e.feature_set.value,
            e.result.mean_train_mpe,
            e.result.mean_test_mpe,
            e.result.mean_train_nrmse,
            e.result.mean_test_nrmse,
        ]
        for e in evaluations
    ]
    print(
        render_table(
            ["technique", "set", "train MPE", "test MPE", "train NRMSE", "test NRMSE"],
            rows,
            title=(
                f"Model accuracy on {dataset.processor_name} "
                f"({args.repetitions} partitions, errors in %)"
            ),
        )
    )
    if args.stats:
        print(samples_text(fit_stats.render_prometheus()))
    return 0


def _cmd_predict(args) -> int:
    from .core.ensemble import EnsemblePredictor
    from .core.persistence import PersistenceError, load_artifact
    from .harness.baselines import collect_baselines
    from .sim.engine import SimulationEngine

    try:
        artifact = load_artifact(args.model)
    except (OSError, PersistenceError) as exc:
        raise SystemExit(f"error: cannot load model: {exc}") from None
    is_ensemble = isinstance(artifact, EnsemblePredictor)
    if args.interval and not is_ensemble:
        raise SystemExit(
            "error: --interval needs an ensemble artifact; train one with "
            "'repro train --ensemble N'"
        )
    machine = _get_machine(args.machine)
    engine = SimulationEngine(machine)
    co_names = args.co_apps.split(",") if args.co_apps else []
    apps = _get_apps([args.target] + co_names)
    frequency = args.frequency or machine.pstates.fastest.frequency_ghz
    try:
        pstate = machine.pstates.at_frequency(frequency)
    except Exception as exc:
        raise SystemExit(f"error: {exc}") from None
    table = collect_baselines(engine, sorted(set(apps), key=lambda a: a.name))
    target_base = table.get(args.target, pstate.frequency_ghz)
    co_bases = [table.get(n, pstate.frequency_ghz) for n in co_names]
    if is_ensemble:
        result = artifact.predict_interval(target_base, co_bases)
        predicted = result.mean_s
    else:
        predicted = artifact.predict_time(target_base, co_bases)
    print(f"baseline {args.target}: {target_base.wall_time_s:.1f} s")
    print(
        f"predicted with {len(co_names)} co-runner(s) "
        f"at {pstate.frequency_ghz:.2f} GHz: {predicted:.1f} s "
        f"({predicted / target_base.wall_time_s:.3f}x baseline)"
    )
    if args.interval:
        lo, hi = result.interval(k=2.0)
        print(
            f"ensemble disagreement: +/- {result.std_s:.1f} s "
            f"(2-sigma band [{lo:.1f}, {hi:.1f}] s, "
            f"relative spread {100.0 * result.relative_spread:.2f}%)"
        )
    return 0


# ------------------------------------------------- serving and registry


def _serve_until_interrupted(server, banner) -> None:
    """Run an asyncio HTTP server until Ctrl-C, then drain and stop it.

    ``banner()`` is printed once the server listens, so it can name the
    bound port.  After it stops, the server's request record prints its
    ``/metrics`` samples.
    """
    import asyncio

    async def run() -> None:
        await server.start()
        print(banner())
        try:
            await server.serve_forever()
        finally:
            await server.stop()
            print(samples_text(server.metrics.render_prometheus()))

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")


def _write_spans(tracer, trace_path: str | None, otlp_path: str | None) -> None:
    """Write a tracer's spans to ``--trace`` (Chrome JSON) and ``--otlp``."""
    if trace_path:
        spans = tracer.export_chrome(trace_path)
        print(f"wrote {spans} trace span(s) to {trace_path}")
    if otlp_path:
        from .obs.otlp import write_otlp

        spans = write_otlp(
            otlp_path,
            [tracer.serialize(span) for span in tracer.spans()],
            default_resource={"service": tracer.service, "pid": os.getpid()},
        )
        print(f"wrote {spans} OTLP span(s) to {otlp_path}")


def _open_registry(path: str):
    from .registry.local import ModelRegistry

    return ModelRegistry(path)


def _open_backend(args):
    """Local directory or remote registry, from --registry/--registry-url."""
    url = getattr(args, "registry_url", None)
    path = getattr(args, "registry", None)
    if url and path:
        raise SystemExit(
            "error: pass either --registry DIR or --registry-url URL, not both"
        )
    if url:
        cache = getattr(args, "cache", None)
        if not cache:
            raise SystemExit(
                "error: --registry-url needs --cache DIR for the local "
                "content-addressed blob cache"
            )
        from .registry.client import HttpBackend
        from .registry.local import RegistryError

        try:
            return HttpBackend(url, cache, token=getattr(args, "token", None))
        except RegistryError as exc:
            raise SystemExit(f"error: {exc}") from None
    if not path:
        raise SystemExit("error: pass --registry DIR or --registry-url URL")
    return _open_registry(path)


def _cmd_registry_push(args) -> int:
    from .core.persistence import PersistenceError, load_artifact
    from .registry.local import RegistryError

    try:
        artifact = load_artifact(args.model)
    except (OSError, PersistenceError) as exc:
        raise SystemExit(f"error: cannot load model: {exc}") from None
    backend = _open_backend(args)
    try:
        manifest = backend.push(args.name, artifact)
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(
        f"pushed {manifest.ref} ({manifest.artifact}, {manifest.kind}/"
        f"{manifest.feature_set}) sha256 {manifest.content_hash[:12]}"
    )
    return 0


def _cmd_registry_list(args) -> int:
    from .registry.local import RegistryError
    from .reporting.tables import render_table

    backend = _open_backend(args)
    try:
        manifests = backend.list()
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from None
    if not manifests:
        print(f"registry {backend.describe()} is empty")
        return 0
    rows = [
        [
            m.ref,
            m.artifact,
            f"{m.kind}/{m.feature_set}",
            m.processor_name or "-",
            m.train_size if m.train_size is not None else "-",
            m.created_at,
        ]
        for m in manifests
    ]
    print(
        render_table(
            ["model", "artifact", "technique", "processor", "train obs", "created"],
            rows,
            title=f"Model registry: {backend.describe()}",
        )
    )
    return 0


def _cmd_registry_show(args) -> int:
    import json

    from .registry.local import RegistryError

    try:
        manifest = _open_backend(args).resolve(args.ref)
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(json.dumps(manifest.to_dict(), indent=2))
    return 0


def _cmd_registry_serve(args) -> int:
    from .registry.server import RegistryServer

    if args.mirror and args.registry:
        raise SystemExit(
            "error: pass either --registry DIR (serve local storage) or "
            "--mirror URL (read replica of an upstream), not both"
        )
    if args.mirror:
        from .registry.client import HttpBackend

        if args.token:
            raise SystemExit(
                "error: a --mirror replica is read-only; it cannot accept "
                "pushes, so --token does not apply"
            )
        cache_dir = args.cache or os.path.join(
            os.path.expanduser("~"), ".cache", "repro-registry-mirror"
        )
        backend = HttpBackend(args.mirror, cache_dir)
        source = f"upstream {args.mirror} (cache {cache_dir})"
    elif args.registry:
        backend = _open_registry(args.registry)
        source = args.registry
    else:
        raise SystemExit("error: need --registry DIR or --mirror URL")
    server = RegistryServer(
        backend, host=args.host, port=args.port, token=args.token
    )
    if args.mirror:
        mode = "pull-through read replica"
    else:
        mode = "push enabled" if args.token else "read-only (no --token)"
    _serve_until_interrupted(
        server,
        lambda: (
            f"registry server: {len(backend.names())} model(s) from "
            f"{source} on http://{args.host}:{server.port} ({mode})"
        ),
    )
    return 0


def _cmd_registry_gc(args) -> int:
    from .registry.local import RegistryError

    try:
        report = _open_registry(args.registry).gc(
            args.keep, dry_run=args.dry_run
        )
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.summary())
    for ref in report.removed:
        verb = "would remove" if report.dry_run else "removed"
        print(f"  {verb} {ref}")
    return 0


def _cmd_registry_tombstone(args) -> int:
    from .registry.local import RegistryError

    registry = _open_registry(args.registry)
    try:
        if args.undo:
            lifted = registry.untombstone(args.ref)
            print(
                f"untombstoned {args.ref}"
                if lifted
                else f"{args.ref} was not tombstoned"
            )
        else:
            registry.tombstone(args.ref, reason=args.reason)
            print(
                f"tombstoned {args.ref}"
                + (f" ({args.reason})" if args.reason else "")
                + "; bytes retained, resolution blocked"
            )
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from None
    return 0


def _cmd_registry_pull(args) -> int:
    from .registry.local import RegistryError

    backend = _open_backend(args)
    if not getattr(args, "registry_url", None):
        raise SystemExit("error: pull needs --registry-url (and --cache)")
    try:
        _artifact, manifest = backend.get(args.ref)
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(
        f"pulled {manifest.ref} ({manifest.artifact}, {manifest.kind}/"
        f"{manifest.feature_set}) sha256 {manifest.content_hash[:12]}; "
        f"cached under {backend.cache_dir}"
    )
    return 0


def _cmd_serve_tier(args) -> int:
    """The routed multi-worker path: ``serve --workers/--canary/--shadow``.

    Handles its own tracing (``main()`` skips the generic wrapper for
    the tier): worker spans only leave their processes through a
    collector, so ``--trace``/``--otlp`` spawn an in-process
    :class:`~repro.obs.collector.CollectorThread`, every worker and the
    router stream spans to it, and the stitched multi-process trace is
    exported on shutdown.  ``--trace-collector URL`` streams to an
    external collector instead.
    """
    import signal
    import threading

    from .serve.router import ServingTier, parse_canary, parse_shadow

    registry = _open_backend(args)
    try:
        canary = tuple(parse_canary(c) for c in (args.canary or []))
        shadow = tuple(parse_shadow(s) for s in (args.shadow or []))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    trace_path = getattr(args, "trace", None)
    otlp_path = getattr(args, "otlp", None)
    stream_url = getattr(args, "trace_collector", None)
    collector = None
    tracer = None
    if not stream_url and (trace_path or otlp_path):
        from .obs.collector import CollectorThread

        collector = CollectorThread()
        collector.start()
        stream_url = collector.endpoint
    if stream_url:
        from .obs.stream import SpanSender, StreamingTracer
        from .obs.trace import set_tracer

        tracer = StreamingTracer(
            SpanSender(stream_url, resource={"service": "serve-router"})
        )
        set_tracer(tracer)
    tier = ServingTier(
        registry,
        workers=args.workers,
        host=args.host,
        port=args.port,
        canary=canary,
        shadow=shadow,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_backlog=args.max_backlog,
        hot_reload_s=args.hot_reload,
        trace_stream=stream_url,
    )
    tier.start()
    names = registry.names()
    routing = "".join(
        f", canary {spec.ref} at {100.0 * spec.fraction:g}%" for spec in canary
    ) + "".join(f", shadow {spec.ref}" for spec in shadow)
    if stream_url:
        routing += f", spans -> {stream_url}"
    print(
        f"serving {len(names)} model(s) {names} from {registry.describe()} "
        f"on http://{args.host}:{tier.port} with {args.workers} worker "
        f"process(es){routing}"
    )
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
        print("shutting down (SIGTERM)")
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        tier.stop()
        if tracer is not None:
            from .obs.trace import disable

            tracer.close()
            disable()
        if collector is not None:
            if trace_path:
                spans = collector.export_chrome(trace_path)
                print(f"wrote {spans} trace span(s) to {trace_path}")
            if otlp_path:
                spans = collector.export_otlp(otlp_path)
                print(f"wrote {spans} OTLP span(s) to {otlp_path}")
            collector.stop()
        elif tracer is not None:
            # External collector owns the fleet trace; local files get
            # the router-side spans this process retained.
            _write_spans(tracer, trace_path, otlp_path)
        print(f"worker exit code(s): {tier.worker_exitcodes}")
    return 0


def _cmd_serve(args) -> int:
    from .serve.server import PredictionServer

    _check_workers(args)
    if args.workers > 1 or args.canary or args.shadow:
        return _cmd_serve_tier(args)
    registry = _open_backend(args)
    server = PredictionServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_backlog=args.max_backlog,
        hot_reload_s=args.hot_reload,
    )

    extras = ""
    if args.max_backlog is not None:
        extras += f", max_backlog={args.max_backlog}"
    if args.hot_reload is not None:
        extras += f", hot_reload={args.hot_reload}s"

    def banner() -> str:
        names = registry.names()
        return (
            f"serving {len(names)} model(s) {names} from "
            f"{registry.describe()} on http://{args.host}:{server.port} "
            f"(max_batch={args.max_batch}, max_wait={args.max_wait_ms}ms"
            f"{extras})"
        )

    _serve_until_interrupted(server, banner)
    return 0


def _parse_fleet_specs(specs: list[str]):
    """``NAME[:COUNT]`` block specs -> :class:`MachineConfig` list."""
    from .sched.fleet import MachineConfig

    configs = []
    for spec in specs:
        name, sep, count_text = spec.partition(":")
        try:
            count = int(count_text) if sep else 1
        except ValueError:
            raise SystemExit(
                f"error: bad --machine spec {spec!r}; use NAME[:COUNT]"
            ) from None
        if count < 1:
            raise SystemExit("error: --machine COUNT must be >= 1")
        configs.append(MachineConfig(_get_machine(name), count=count))
    return configs


def _cmd_sched_serve(args) -> int:
    from .harness.baselines import collect_baselines
    from .sched.fleet import FleetState
    from .sched.governor import GovernorObjective
    from .sched.service import RemoteScorer, SchedulerService
    from .sim.engine import SimulationEngine, SolveCache
    from .workloads.suite import all_applications

    configs = _parse_fleet_specs(args.machine or ["e5649:4"])
    try:
        fleet = FleetState(configs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    scorer = None
    if args.predictions:
        if not args.model:
            raise SystemExit("error: --predictions needs --model NAME")
        host, _sep, port_text = args.predictions.rpartition(":")
        try:
            scorer = RemoteScorer(
                host or "127.0.0.1", int(port_text), model=args.model
            )
        except ValueError:
            raise SystemExit(
                f"error: bad --predictions address {args.predictions!r}; "
                f"use HOST:PORT"
            ) from None

    # Solo baselines per distinct processor: the slowdown denominator and
    # the feature-row source the whole scheduler scores against.
    apps = all_applications()
    cache = SolveCache()
    baselines = {}
    for cfg in configs:
        if cfg.processor.name in baselines:
            continue
        engine = SimulationEngine(cfg.processor, cache=cache)
        baselines[cfg.processor.name] = collect_baselines(engine, apps)

    try:
        server = SchedulerService(
            fleet,
            baselines,
            scorer=scorer,
            policy=args.policy,
            round_size=args.round_size,
            max_candidates=args.max_candidates,
            migrate_threshold=args.migrate_threshold,
            migrate_margin=args.migrate_margin,
            migrate_every=args.migrate_every,
            governor_objective=(
                GovernorObjective(args.governor) if args.governor else None
            ),
            governor_deadline_s=args.deadline,
            host=args.host,
            port=args.port,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    extras = ""
    if scorer is not None:
        extras += f", scoring via {args.predictions} model={args.model}"
    if args.governor:
        extras += f", governor={args.governor}"
    if args.migrate_threshold is not None:
        extras += f", migrate_threshold={args.migrate_threshold}"
    _serve_until_interrupted(
        server,
        lambda: (
            f"scheduler: {fleet.n_nodes} node(s) / {fleet.total_cores} "
            f"core(s) on http://{args.host}:{server.port} "
            f"(policy={args.policy}{extras})"
        ),
    )
    return 0


def _cmd_sched_submit(args) -> int:
    from .sched.service import SchedulerClient
    from .serve.client import ClientError

    if args.count != 1 and len(args.apps) != 1:
        raise SystemExit("error: --count takes exactly one app name")
    try:
        with SchedulerClient(args.host, args.port) as client:
            if len(args.apps) == 1:
                payload = client.submit(args.apps[0], count=args.count)
            else:
                payload = client.submit(args.apps)
    except ClientError as exc:
        raise SystemExit(f"error: {exc}") from None
    except OSError as exc:
        raise SystemExit(
            f"error: scheduler at {args.host}:{args.port} is "
            f"unreachable: {exc}"
        ) from None
    ids = payload["ids"]
    print(
        f"submitted {len(ids)} job(s): ids {ids[0]}..{ids[-1]}; "
        f"queue depth {payload['queue_depth']}"
    )
    return 0


def _cmd_sched_status(args) -> int:
    import json

    from .sched.service import SchedulerClient
    from .serve.client import ClientError

    try:
        with SchedulerClient(args.host, args.port) as client:
            body = (
                client.job(args.job) if args.job is not None
                else client.cluster()
            )
    except ClientError as exc:
        raise SystemExit(f"error: {exc}") from None
    except OSError as exc:
        raise SystemExit(
            f"error: scheduler at {args.host}:{args.port} is "
            f"unreachable: {exc}"
        ) from None
    print(json.dumps(body, indent=2))
    return 0


def _open_suite(args):
    from .suite import ArtifactStore, SuiteSpecError, load_suite

    try:
        suite = load_suite(args.spec)
    except SuiteSpecError as exc:
        raise SystemExit(f"error: {exc}") from None
    return suite, ArtifactStore(args.store)


def _cmd_suite_run(args) -> int:
    from .suite import SuiteRunner

    _check_workers(args)
    suite, store = _open_suite(args)
    runner = SuiteRunner(
        suite,
        store,
        workers=args.workers,
        force=args.force,
    )
    report = runner.run()
    print(report.summary())
    if args.stats:
        print(samples_text(runner.stats.render_prometheus()))
    return 0 if report.ok else 1


def _cmd_suite_status(args) -> int:
    from .suite import SuiteRunner

    suite, store = _open_suite(args)
    rows = SuiteRunner(suite, store).plan()
    cached = sum(1 for _, _, hit in rows if hit)
    print(
        f"suite {suite.name}: {len(rows)} node(s), {cached} cached, "
        f"{len(rows) - cached} to run (store {store.describe()})"
    )
    for node, key, hit in rows:
        state = "cached" if hit else ("pending" if key is None else "to run")
        print(f"  {node.node_id}: {state}")
    return 0


def _cmd_suite_explain(args) -> int:
    from .suite import SuiteRunner

    suite, store = _open_suite(args)
    try:
        print(SuiteRunner(suite, store).explain(args.node))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    return 0


def _cmd_suite_gc(args) -> int:
    from .suite import SuiteRunner

    suite, store = _open_suite(args)
    keep = SuiteRunner(suite, store).keep_keys()
    report = store.gc(keep, dry_run=args.dry_run)
    print(report.summary())
    verb = "would remove" if report.dry_run else "removed"
    for key in report.removed_nodes:
        print(f"  {verb} node {key[:16]}")
    for blob in report.removed_blobs:
        print(f"  {verb} blob {blob[:16]}")
    return 0


def _cmd_obs_summary(args) -> int:
    from .obs.summary import load_trace, render_summary

    try:
        events = []
        for path in args.trace:
            events.extend(load_trace(path))
        print(render_summary(events, top=args.top, tree_spans=args.tree_spans))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    return 0


def _cmd_obs_collector(args) -> int:
    """Standalone span collector: the fleet's ``--trace-collector`` target."""
    from .obs.collector import CollectorServer

    server = CollectorServer(
        host=args.host, port=args.port, max_spans=args.max_spans
    )
    _serve_until_interrupted(
        server,
        lambda: (
            f"span collector on http://{args.host}:{server.port} "
            f"(POST /v1/spans; JSON batch or JSON-lines)"
        ),
    )
    if args.output:
        spans = server.export_chrome(args.output)
        print(f"wrote {spans} trace span(s) to {args.output}")
    if args.otlp:
        spans = server.export_otlp(args.otlp)
        print(f"wrote {spans} OTLP span(s) to {args.otlp}")
    print(
        f"collector: received={server.received} stored={len(server)} "
        f"dropped={server.dropped} client_dropped={server.client_dropped}"
    )
    return 0


def _cmd_table(args) -> int:
    from .harness import experiments
    from .reporting.tables import render_table

    _check_workers(args)
    ctx = experiments.ExperimentContext(
        repetitions=args.repetitions, workers=args.workers
    )
    renderers = {
        1: lambda: render_table(
            ["Feature name", "aspect measured"], experiments.table1_rows(),
            title="Table I"),
        2: lambda: render_table(
            ["Set", "features"], experiments.table2_rows(), title="Table II"),
        3: lambda: render_table(
            ["Application", "memory intensity", "Class"],
            experiments.table3_rows(ctx), title="Table III"),
        4: lambda: render_table(
            ["Processor", "cores", "L3", "frequency range"],
            experiments.table4_rows(), title="Table IV"),
        5: lambda: render_table(
            ["Processor", "P-states (GHz)", "co-location counts"],
            experiments.table5_rows(), title="Table V"),
        6: lambda: render_table(
            ["num cg", "time (s)", "normalized", "linear-F MPE", "neural-F MPE"],
            experiments.table6_rows(ctx), title="Table VI"),
    }
    if args.number not in renderers:
        raise SystemExit(f"error: no Table {args.number}; the paper has I-VI")
    print(renderers[args.number]())
    return 0


def _cmd_report(args) -> int:
    """Collate benchmark artifacts into one reproduction report."""
    from pathlib import Path

    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise SystemExit(
            f"error: no results directory at {results_dir}; run "
            f"'pytest benchmarks/ --benchmark-only' first"
        )
    artifacts = sorted(results_dir.glob("*.txt"))
    if not artifacts:
        raise SystemExit(f"error: {results_dir} contains no artifacts")
    sections = []
    order = ["table", "fig", "pca", "ablation", "extension", "generalization"]

    def sort_key(path: Path) -> tuple[int, str]:
        for i, prefix in enumerate(order):
            if path.stem.startswith(prefix):
                return (i, path.stem)
        return (len(order), path.stem)

    for path in sorted(artifacts, key=sort_key):
        sections.append(path.read_text().rstrip())
    header = (
        "Reproduction report: co-location aware performance modeling\n"
        f"(collated from {len(artifacts)} artifacts in {results_dir})\n"
    )
    body = header + "\n\n" + "\n\n".join(sections) + "\n"
    if args.output:
        Path(args.output).write_text(body)
        print(f"wrote report to {args.output} ({len(artifacts)} artifacts)")
    else:
        print(body)
    return 0


def _cmd_figure(args) -> int:
    from .harness import experiments
    from .reporting.figures import render_distributions, render_series, summarize

    _check_workers(args)
    ctx = experiments.ExperimentContext(
        repetitions=args.repetitions, workers=args.workers
    )
    spec = {
        1: ("e5649", "mpe", "Figure 1: MPE, 6-core"),
        2: ("e5-2697v2", "mpe", "Figure 2: MPE, 12-core"),
        3: ("e5649", "nrmse", "Figure 3: NRMSE, 6-core"),
        4: ("e5-2697v2", "nrmse", "Figure 4: NRMSE, 12-core"),
    }
    if args.number in spec:
        machine, metric, title = spec[args.number]
        labels, series = experiments.figure_series(ctx, machine, metric)
        print(render_series(labels, series, title=title, unit="%"))
        return 0
    if args.number == 5:
        dists = experiments.figure5a_distributions(ctx)
        print(render_distributions(
            [summarize(k, v) for k, v in dists.items()],
            title="Figure 5(a): execution time distributions, 6-core", unit="s"))
        errors = experiments.figure5b_errors(ctx, repetitions=5)
        print()
        print(render_distributions(
            [summarize(k, v) for k, v in errors.items()],
            title="Figure 5(b): neural/F percent error distributions", unit="%"))
        return 0
    raise SystemExit(f"error: no Figure {args.number}; the paper has 1-5")


# --------------------------------------------------------------- parser


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """The shared --registry / --registry-url backend selector."""
    parser.add_argument("--registry", help="local registry directory")
    parser.add_argument("--registry-url", dest="registry_url",
                        help="remote registry server URL "
                             "(http://host:port; needs --cache)")
    parser.add_argument("--cache", help="content-addressed blob cache "
                                        "directory for --registry-url")
    parser.add_argument("--token", help="bearer token for pushes to a "
                                        "remote registry")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Co-location aware performance modeling (Dauwe et al. 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, declared once as parent parsers.
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument("--trace", metavar="PATH",
                         help="record the command's spans and write them to "
                              "PATH as a Chrome trace on exit")
    tracing.add_argument("--otlp", metavar="PATH",
                         help="also export the spans as OTLP/JSON to PATH")
    tracing.add_argument("--trace-collector", dest="trace_collector",
                         metavar="URL",
                         help="stream completed spans to a trace collector "
                              "(see 'repro obs collector') instead of "
                              "buffering them in-process")
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--stats", action="store_true",
                       help="print the run's counters afterwards, as the "
                            "samples its /metrics families show")

    sub.add_parser("machines", help="list catalog machines").set_defaults(
        func=_cmd_machines
    )

    p = sub.add_parser("apps", help="list the Table III benchmark suite")
    p.add_argument("--machine", default="e5649", help="machine for intensities")
    p.set_defaults(func=_cmd_apps)

    p = sub.add_parser("baseline", help="solo runs of one app at every P-state")
    p.add_argument("--machine", default="e5649")
    p.add_argument("--app", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("collect", help="collect a training dataset (CSV)",
                       parents=[tracing, stats])
    p.add_argument("--machine", default="e5649")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--targets", help="comma-separated target apps (default: all 11)")
    p.add_argument("--co-apps", dest="co_apps", help="comma-separated co-apps")
    p.add_argument("--counts", help="comma-separated co-location counts")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sweep (default 1; any "
                        "count yields the identical dataset)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable steady-state solve memoization")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("train", help="train a model from a dataset CSV",
                       parents=[tracing])
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["linear", "neural"], default="neural")
    p.add_argument("--features", default="F", help="feature set A-F")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for ensemble member fitting; "
                        "any count trains the identical ensemble")
    p.add_argument("--ensemble", type=int, metavar="N",
                   help="train a bootstrap ensemble of N members (for "
                        "uncertainty intervals) instead of a single model")
    p.add_argument("--verify-manifest", dest="verify_manifest",
                   choices=["warn", "strict", "skip"], default="warn",
                   help="check the dataset's provenance sidecar on load: "
                        "warn on problems (default), fail on them, or skip "
                        "the check")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="12-model accuracy grid for a dataset",
                       parents=[tracing, stats])
    p.add_argument("--data", required=True)
    p.add_argument("--verify-manifest", dest="verify_manifest",
                   choices=["warn", "strict", "skip"], default="warn",
                   help="check the dataset's provenance sidecar on load: "
                        "warn on problems (default), fail on them, or skip "
                        "the check")
    p.add_argument("--repetitions", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the validation sweeps; "
                        "any count yields identical results")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="predict a placement from a saved model")
    p.add_argument("--model", required=True, help="model JSON from 'train'")
    p.add_argument("--machine", default="e5649")
    p.add_argument("--target", required=True)
    p.add_argument("--co-apps", dest="co_apps", default="",
                   help="comma-separated co-runners, e.g. cg,cg,cg")
    p.add_argument("--frequency", type=float, help="P-state GHz (default fastest)")
    p.add_argument("--interval", action="store_true",
                   help="also print the ensemble mean +/- disagreement band "
                        "(needs an artifact from 'train --ensemble')")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "serve", help="serve registry models over HTTP (asyncio, micro-batched)",
        parents=[tracing],
    )
    _add_backend_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8391)
    p.add_argument("--max-batch", dest="max_batch", type=int, default=32,
                   help="micro-batch flush size (1 disables coalescing)")
    p.add_argument("--max-wait-ms", dest="max_wait_ms", type=float, default=2.0,
                   help="micro-batch flush deadline in milliseconds")
    p.add_argument("--max-backlog", dest="max_backlog", type=int, default=None,
                   help="per-model admission bound: shed requests with 429 "
                        "once this many rows are queued (default: never shed)")
    p.add_argument("--hot-reload", dest="hot_reload", type=float, default=None,
                   metavar="SECONDS",
                   help="poll the registry for new latest versions every "
                        "SECONDS, pre-warming the resident-model cache "
                        "(with --workers, every worker polls its own shard)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes behind a shard-routing front "
                        "router (default 1: classic single-process server)")
    p.add_argument("--canary", action="append", metavar="NAME@VER:PCT",
                   help="route PCT%% of bare-NAME requests to NAME@VER "
                        "(e.g. band@2:10); repeatable, implies the router")
    p.add_argument("--shadow", action="append", metavar="NAME@VER",
                   help="mirror NAME requests to NAME@VER and export "
                        "prediction divergence metrics; repeatable, "
                        "implies the router")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "registry", help="manage the versioned model registry"
    )
    reg_sub = p.add_subparsers(dest="registry_command", required=True)

    rp = reg_sub.add_parser("push", help="push a trained model JSON as a new version")
    _add_backend_args(rp)
    rp.add_argument("--name", required=True, help="model name (bare, no @version)")
    rp.add_argument("--model", required=True, help="artifact JSON from 'train'")
    rp.set_defaults(func=_cmd_registry_push)

    rl = reg_sub.add_parser("list", help="list every registered model version")
    _add_backend_args(rl)
    rl.set_defaults(func=_cmd_registry_list)

    rs = reg_sub.add_parser("show", help="print one manifest as JSON")
    rs.add_argument("ref", help="model reference: name or name@version")
    _add_backend_args(rs)
    rs.set_defaults(func=_cmd_registry_show)

    rv = reg_sub.add_parser(
        "serve", help="serve a registry directory as an HTTP artifact "
                      "service, or mirror an upstream registry"
    )
    rv.add_argument("--registry", help="registry directory to serve")
    rv.add_argument("--mirror", metavar="URL",
                    help="serve as a pull-through read replica of this "
                         "upstream registry URL (mutually exclusive with "
                         "--registry)")
    rv.add_argument("--cache", help="blob/manifest cache directory for "
                                    "--mirror (default ~/.cache/"
                                    "repro-registry-mirror)")
    rv.add_argument("--host", default="127.0.0.1")
    rv.add_argument("--port", type=int, default=8100)
    rv.add_argument("--token", help="bearer token required for POST /v1/push "
                                    "(omit for a read-only mirror)")
    rv.set_defaults(func=_cmd_registry_serve)

    rg = reg_sub.add_parser(
        "gc", help="prune old versions, keeping the newest N live per name"
    )
    rg.add_argument("--registry", required=True, help="registry directory")
    rg.add_argument("--keep", required=True, type=int,
                    help="live versions to keep per model name")
    rg.add_argument("--dry-run", dest="dry_run", action="store_true",
                    help="report what would be removed without deleting")
    rg.set_defaults(func=_cmd_registry_gc)

    rt = reg_sub.add_parser(
        "tombstone", help="block a bad version everywhere without deleting it"
    )
    rt.add_argument("ref", help="explicit name@version to block")
    rt.add_argument("--registry", required=True, help="registry directory")
    rt.add_argument("--reason", default="", help="why the version is blocked")
    rt.add_argument("--undo", action="store_true",
                    help="lift the tombstone instead of placing one")
    rt.set_defaults(func=_cmd_registry_tombstone)

    rpl = reg_sub.add_parser(
        "pull", help="download one version into the local blob cache"
    )
    rpl.add_argument("ref", help="model reference: name or name@version")
    _add_backend_args(rpl)
    rpl.set_defaults(func=_cmd_registry_pull)

    p = sub.add_parser(
        "sched", help="online degradation-aware cluster scheduler"
    )
    sched_sub = p.add_subparsers(dest="sched_command", required=True)

    ss = sched_sub.add_parser(
        "serve", help="run the scheduler service over a simulated fleet",
        parents=[tracing],
    )
    ss.add_argument("--machine", action="append", metavar="NAME[:COUNT]",
                    help="fleet block: catalog machine and node count "
                         "(repeatable; default e5649:4)")
    ss.add_argument("--host", default="127.0.0.1")
    ss.add_argument("--port", type=int, default=8500)
    ss.add_argument("--policy", default="model",
                    choices=["model", "first-fit", "least-loaded"],
                    help="placement policy (model needs --predictions)")
    ss.add_argument("--predictions", metavar="HOST:PORT",
                    help="prediction service scoring placements (required "
                         "by --policy model and --governor)")
    ss.add_argument("--model", help="served model name the scorer queries")
    ss.add_argument("--round-size", dest="round_size", type=int, default=32,
                    help="jobs placed per scheduling round (one batched "
                         "predict per round)")
    ss.add_argument("--max-candidates", dest="max_candidates", type=int,
                    default=8,
                    help="candidate nodes scored per round")
    ss.add_argument("--migrate-threshold", dest="migrate_threshold",
                    type=float, default=None, metavar="REGRET",
                    help="regret (realized minus predicted slowdown) that "
                         "triggers migrating the worst running job "
                         "(default: never migrate)")
    ss.add_argument("--migrate-margin", dest="migrate_margin", type=float,
                    default=0.05,
                    help="predicted improvement a move must clear")
    ss.add_argument("--migrate-every", dest="migrate_every", type=int,
                    default=4,
                    help="consider migration every N scheduling rounds")
    ss.add_argument("--governor", default=None,
                    choices=["energy", "edp", "time"],
                    help="pick each placement's P-state by this objective")
    ss.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="per-job deadline constraining the governor")
    ss.set_defaults(func=_cmd_sched_serve)

    sj = sched_sub.add_parser(
        "submit", help="submit jobs to a running scheduler"
    )
    sj.add_argument("apps", nargs="+",
                    help="benchmark names (see 'repro apps')")
    sj.add_argument("--count", type=int, default=1,
                    help="copies of a single app")
    sj.add_argument("--host", default="127.0.0.1")
    sj.add_argument("--port", type=int, default=8500)
    sj.set_defaults(func=_cmd_sched_submit)

    st = sched_sub.add_parser(
        "status", help="cluster state (or one job's detail) as JSON"
    )
    st.add_argument("--job", type=int, default=None,
                    help="job id for a single-job view")
    st.add_argument("--host", default="127.0.0.1")
    st.add_argument("--port", type=int, default=8500)
    st.set_defaults(func=_cmd_sched_status)

    p = sub.add_parser(
        "suite",
        help="declarative experiment suites with incremental recompute",
    )
    suite_sub = p.add_subparsers(dest="suite_command", required=True)

    def _add_suite_args(sp) -> None:
        sp.add_argument("spec", help="suite spec file (.json or .toml)")
        sp.add_argument("--store", required=True,
                        help="content-addressed artifact store directory")

    sr = suite_sub.add_parser(
        "run", help="execute the suite; nodes already in the store are "
                    "skipped, so re-runs and killed runs resume",
        parents=[tracing, stats],
    )
    _add_suite_args(sr)
    sr.add_argument("--workers", type=int, default=1,
                    help="processes per node for collection/evaluation; "
                         "any count yields identical artifacts")
    sr.add_argument("--force", action="store_true",
                    help="re-execute every node even when the store "
                         "resolves it")
    sr.set_defaults(func=_cmd_suite_run)

    ss2 = suite_sub.add_parser(
        "status", help="show what a run would execute vs resolve, read-only"
    )
    _add_suite_args(ss2)
    ss2.set_defaults(func=_cmd_suite_status)

    se = suite_sub.add_parser(
        "explain", help="show each node's input key and provenance"
    )
    _add_suite_args(se)
    se.add_argument("--node", help="limit to one node id, with full detail")
    se.set_defaults(func=_cmd_suite_explain)

    sg = suite_sub.add_parser(
        "gc", help="drop store artifacts the spec no longer reaches"
    )
    _add_suite_args(sg)
    sg.add_argument("--dry-run", dest="dry_run", action="store_true",
                    help="report what would be removed without deleting")
    sg.set_defaults(func=_cmd_suite_gc)

    p = sub.add_parser("table", help="regenerate a paper table (1-6)")
    p.add_argument("number", type=int)
    p.add_argument("--repetitions", type=int, default=25)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the validation sweeps")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure (1-5)")
    p.add_argument("number", type=int)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the validation sweeps")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "report", help="collate benchmarks/results/ into one reproduction report"
    )
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    op = obs_sub.add_parser(
        "summary", help="aggregate + span-tree view of a captured trace"
    )
    op.add_argument("trace", nargs="+",
                    help="trace file(s): Chrome trace JSON written by "
                         "--trace and/or OTLP/JSON written by --otlp; "
                         "multiple files are merged into one summary")
    op.add_argument("--top", type=int, default=15,
                    help="rows in the by-name aggregate table")
    op.add_argument("--tree-spans", dest="tree_spans", type=int, default=120,
                    help="max spans printed across the span trees")
    op.set_defaults(func=_cmd_obs_summary)

    oc = obs_sub.add_parser(
        "collector", help="run a standalone span collector for the fleet"
    )
    oc.add_argument("--host", default="127.0.0.1")
    oc.add_argument("--port", type=int, default=8600)
    oc.add_argument("--max-spans", dest="max_spans", type=int,
                    default=500_000,
                    help="bounded span ring size (oldest evicted beyond it)")
    oc.add_argument("-o", "--output", metavar="PATH",
                    help="write the collected Chrome trace here on exit")
    oc.add_argument("--otlp", metavar="PATH",
                    help="write the collected spans as OTLP/JSON on exit")
    oc.set_defaults(func=_cmd_obs_collector)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    otlp_path = getattr(args, "otlp", None)
    collector_url = getattr(args, "trace_collector", None)
    if args.command == "obs" or not (
        trace_path or otlp_path or collector_url
    ):
        return args.func(args)
    if args.command == "serve" and (
        args.workers > 1 or args.canary or args.shadow
    ):
        # The multi-worker tier manages its own tracing: worker spans
        # only exist in worker processes, so _cmd_serve_tier runs an
        # in-process collector (or streams to --trace-collector) and
        # exports the stitched fleet trace itself.
        return args.func(args)
    # --trace/--otlp: record spans for the whole command, export on the
    # way out (including error exits, so partial runs still leave a
    # trace).  --trace-collector streams spans out as they finish
    # instead of (only) buffering them locally.
    from .obs.trace import disable, enable

    if collector_url:
        from .obs.stream import SpanSender, StreamingTracer
        from .obs.trace import set_tracer

        service = args.command
        if args.command == "sched":
            service = f"sched-{args.sched_command}"
        tracer = StreamingTracer(
            SpanSender(
                collector_url, resource={"service": service, "pid": os.getpid()}
            )
        )
        set_tracer(tracer)
    else:
        tracer = enable(service=args.command)
    try:
        return args.func(args)
    finally:
        _write_spans(tracer, trace_path, otlp_path)
        if collector_url:
            tracer.close()
        disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
