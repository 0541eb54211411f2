"""Asyncio HTTP server for online placement predictions.

Built on the shared stdlib HTTP plumbing in :mod:`repro.serve.http`.
Endpoints:

* ``POST /v1/predict`` — single (``{"model", "features"}``) and batch
  (``{"model", "instances"}``) bodies; ``?interval=1`` (or
  ``"interval": true``) returns mean ± disagreement band from a served
  ensemble;
* ``GET /v1/models`` — every registered manifest;
* ``GET /healthz`` — liveness;
* ``GET /metrics`` — Prometheus text exposition
  (:mod:`~repro.serve.metrics`).

Requests for the same model are coalesced by a per-model
:class:`~repro.serve.batcher.MicroBatcher`; loaded artifacts are kept in
a small LRU so the registry (and its integrity hashing) is only touched
on first use per version.  ``stop()`` is graceful: the listener closes,
queued batches drain, and in-flight requests finish before connections
are torn down.

The server reads artifacts through the
:class:`~repro.registry.backend.RegistryBackend` protocol, so the same
process serves from a local directory
(:class:`~repro.registry.local.ModelRegistry`) or from a remote registry
service (:class:`~repro.registry.client.HttpBackend`) unchanged.  Every
request-path backend call goes through
:func:`~repro.registry.backend.call_backend`, which runs remote backends
off the event loop, so a slow or hung registry stalls only the requests
that wait on it: a concurrent ``/metrics`` scrape still answers.  The
listings behind ``/healthz`` and ``/v1/models`` go through
:func:`~repro.registry.backend.call_listing`, which answers a registry
fault with 502 or 503 naming the registry.

Two production behaviours are optional:

* **Admission control** (``max_backlog``): a request whose rows would
  take a model's micro-batcher queue past the bound is shed whole with
  ``429 Too Many Requests`` + ``Retry-After`` instead of growing the
  queue without limit; none of its rows is queued or predicted, and all
  of them are counted in ``repro_serve_shed_total``.
* **Hot-reload** (``hot_reload_s``): a background task polls the backend
  for new latest versions, pre-warms them into the resident-model LRU
  (so the first request after a push never pays the artifact load), and
  evicts residents whose version was tombstoned.  Each tick reads the
  backend's change feed (``changed_models``) — for a remote registry one
  ``?since=<cursor>`` round-trip — and touches only the changed names.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import OrderedDict

import numpy as np

from ..obs.registry import Exposition
from ..registry.backend import call_backend, call_listing
from ..registry.local import RegistryError, parse_ref
from .batcher import BacklogFullError, MicroBatcher
from .http import HTTPError, HttpServerBase, Request, ServerThreadBase
from .http import header_safe as _header_safe  # noqa: F401  (compat re-export)
from .metrics import ServingMetrics

__all__ = ["PredictionServer", "ServerThread"]


class _ResidentModel:
    """One loaded artifact with its manifest and micro-batcher."""

    def __init__(self, artifact, manifest, batcher: MicroBatcher):
        self.artifact = artifact
        self.manifest = manifest
        self.batcher = batcher
        self.feature_names = tuple(
            f.value for f in artifact.feature_set.features
        )
        self.feature_name_set = frozenset(self.feature_names)

    @property
    def is_ensemble(self) -> bool:
        return self.manifest.artifact == "ensemble"


class PredictionServer(HttpServerBase):
    """Serve predictions from any :class:`~repro.registry.backend.RegistryBackend`.

    Parameters
    ----------
    registry:
        Source of artifacts; resolved lazily per request.  A local
        :class:`~repro.registry.local.ModelRegistry` or a remote
        :class:`~repro.registry.client.HttpBackend`.
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_batch, max_wait_ms:
        Micro-batching knobs, applied to every served model.
    max_backlog:
        Per-model admission bound: a request whose rows would queue
        beyond this is shed whole with 429 + ``Retry-After``.  ``None``
        (default) disables shedding.
    model_cache_size:
        Resident-model LRU capacity (distinct ``name@version`` entries).
    hot_reload_s:
        Poll the backend for new latest versions every this-many seconds,
        pre-warming the LRU and evicting tombstoned residents.  ``None``
        (default) disables the poller.
    worker_id:
        Set when this server is one worker of a routed tier
        (:mod:`repro.serve.router`): exported as the
        ``repro_serve_worker_up{worker="N"}`` gauge so the merged scrape
        shows which shards answered.  ``None`` (default) for standalone
        servers.
    """

    known_endpoints = ("/v1/predict", "/v1/models", "/healthz", "/metrics")
    request_span_name = "serve.request"
    metrics_prefix = "repro_serve"
    metrics_type = ServingMetrics

    def __init__(
        self,
        registry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_backlog: int | None = None,
        model_cache_size: int = 8,
        hot_reload_s: float | None = None,
        worker_id: int | None = None,
    ) -> None:
        if model_cache_size < 1:
            raise ValueError("model_cache_size must be >= 1")
        if hot_reload_s is not None and hot_reload_s <= 0.0:
            raise ValueError("hot_reload_s must be positive (or None)")
        super().__init__(host=host, port=port)
        self.registry = registry
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_backlog = max_backlog
        self.model_cache_size = model_cache_size
        self.hot_reload_s = hot_reload_s
        self.worker_id = worker_id
        self.obs_registry.register_source("batcher", self._render_batcher_metrics)
        self._resident: OrderedDict[str, _ResidentModel] = OrderedDict()
        self._reload_task: asyncio.Task | None = None
        self._reload_stop: asyncio.Event | None = None
        self._hot_reload_loads = 0
        self._hot_reload_evictions = 0
        # The last cursor the backend's change feed returned.
        self._reload_cursor: str | None = None

    # ----------------------------------------------------------- lifecycle
    async def _on_start(self) -> None:
        if self.hot_reload_s is not None:
            self._reload_stop = asyncio.Event()
            self._reload_task = asyncio.get_running_loop().create_task(
                self._hot_reload_loop()
            )

    async def stop(self, *, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown: stop the poller, drain batches, finish work.

        The poller is stopped *cooperatively* and waited for BEFORE the
        drain begins.  Cancelling it is not enough: a poll blocked inside
        ``asyncio.to_thread`` keeps running in its executor thread after
        the cancel, and could install a model into the LRU (or keep
        touching the registry backend) after the batchers have drained.
        Setting the stop event and awaiting the task means any in-flight
        backend call finishes first and the poll then observes the event
        and discards its work instead of installing it.
        """
        if self._reload_task is not None:
            task, self._reload_task = self._reload_task, None
            if self._reload_stop is not None:
                self._reload_stop.set()
            try:
                # Bounded wait: a poll stuck in a hung backend call must
                # not wedge shutdown forever; past the bound we fall back
                # to cancellation (the stop event still guards installs).
                await asyncio.wait_for(asyncio.shield(task), timeout=10.0)
            except asyncio.TimeoutError:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        await super().stop(drain_timeout_s=drain_timeout_s)

    async def _drain(self) -> None:
        for resident in list(self._resident.values()):
            await resident.batcher.drain()

    # ------------------------------------------------------------- metrics
    def _render_batcher_metrics(self) -> str:
        """Backlog gauge, shed counter, and hot-reload counters."""
        residents = list(self._resident.items())
        out = Exposition().family(
            "repro_serve_batcher_backlog",
            "gauge",
            "Rows queued in each resident model's micro-batcher, sampled at "
            "scrape time.",
            [({"model": key}, r.batcher.pending) for key, r in residents],
        )
        out.counter(
            "repro_serve_shed_total",
            "Rows rejected by admission control (--max-backlog) with 429 "
            "responses.",
            sum(r.batcher.stats.shed for _key, r in residents),
        )
        out.counter(
            "repro_serve_hot_reload_loads_total",
            "Artifacts pre-warmed into the resident LRU by the hot-reload "
            "poller.",
            self._hot_reload_loads,
        )
        out.counter(
            "repro_serve_hot_reload_evictions_total",
            "Residents evicted because their version was tombstoned.",
            self._hot_reload_evictions,
        )
        if self.worker_id is not None:
            out.family(
                "repro_serve_worker_up",
                "gauge",
                "Serving-tier workers that answered this scrape.",
                [({"worker": self.worker_id}, 1)],
            )
        return out.text()

    # ------------------------------------------------------------- models
    def _install_resident(self, key: str, artifact, manifest) -> _ResidentModel:
        """Wrap a loaded artifact and place it in the LRU (evicting)."""
        existing = self._resident.get(key)
        if existing is not None:  # concurrent load raced us; keep the first
            self._resident.move_to_end(key)
            return existing
        batcher = MicroBatcher(
            artifact.predict_rows,
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            max_backlog=self.max_backlog,
            on_flush=lambda size, _reason: self.metrics.record_batch(size),
            on_phase=self.metrics.record_phase,
        )
        resident = _ResidentModel(artifact, manifest, batcher)
        self._resident[key] = resident
        while len(self._resident) > self.model_cache_size:
            _evicted_key, evicted = self._resident.popitem(last=False)
            evicted.batcher._flush("drain")  # resolve any queued rows
        return resident

    async def _resident_model(self, ref: str) -> _ResidentModel:
        """Resolve a reference to a loaded model, LRU-caching residents."""
        name, version = parse_ref(ref)
        if version is None:
            # A bare name floats with the registry: resolve the current
            # latest version (the backend caches this), then hit the
            # resident cache on its pin.
            version = await call_backend(
                self.registry, self.registry.latest_version, name
            )
        key = f"{name}@{version}"
        resident = self._resident.get(key)
        if resident is not None:
            self._resident.move_to_end(key)
            self.metrics.record_model_cache(hit=True)
            return resident
        self.metrics.record_model_cache(hit=False)
        artifact, manifest = await call_backend(
            self.registry, self.registry.get, key
        )
        return self._install_resident(key, artifact, manifest)

    # --------------------------------------------------------- hot reload
    def _reload_stopping(self) -> bool:
        """True once shutdown asked the poller to discard in-flight work."""
        return (
            self._closing
            or (self._reload_stop is not None and self._reload_stop.is_set())
        )

    async def _hot_reload_loop(self) -> None:
        stop = self._reload_stop
        while not stop.is_set():
            try:
                await self.hot_reload_once()
            except Exception:  # noqa: BLE001 - backend outage: retry next tick
                pass
            try:
                await asyncio.wait_for(stop.wait(), timeout=self.hot_reload_s)
            except asyncio.TimeoutError:
                pass

    async def hot_reload_once(self) -> None:
        """One poll: pre-warm new latest versions, evict tombstoned ones.

        Each poll asks the backend's change feed only for the names that
        changed since the previous one — O(changes) instead of a full
        listing per tick — and restricts the tombstone sweep to
        residents of those names.  Every backend call runs in a worker
        thread, whatever the backend.  The cursor advances even
        when a warm fails (outage mid-poll): pre-warming is an
        optimization, and the per-request lazy-load path still serves
        the model; the next change re-warms it.

        Checks the shutdown stop event between every backend call and
        before every install/evict, so a poll overlapping ``stop()``
        finishes its in-flight call and then discards the result instead
        of mutating the LRU (or issuing further backend calls) after the
        drain has begun.
        """
        changed, self._reload_cursor = await asyncio.to_thread(
            self.registry.changed_models, self._reload_cursor
        )
        if self._reload_stopping():
            return
        for name in changed:
            if self._reload_stopping():
                return
            try:
                manifest = await asyncio.to_thread(self.registry.latest, name)
            except RegistryError:
                continue  # empty/blocked name; nothing to warm
            if manifest.ref in self._resident:
                continue
            if self._reload_stopping():
                return
            try:
                artifact, manifest = await asyncio.to_thread(
                    self.registry.get, manifest.ref
                )
            except RegistryError:
                continue
            if self._reload_stopping():
                return
            self._install_resident(manifest.ref, artifact, manifest)
            self._hot_reload_loads += 1
        changed_names = set(changed)
        for key, resident in list(self._resident.items()):
            if resident.manifest.name not in changed_names:
                continue  # untouched since the cursor: tombstone unchanged
            if self._reload_stopping():
                return
            try:
                reason = await asyncio.to_thread(
                    self.registry.tombstone_reason,
                    resident.manifest.name,
                    resident.manifest.version,
                )
            except Exception:  # noqa: BLE001 - can't check now; keep serving
                continue
            if self._reload_stopping():
                return
            if reason is not None:
                evicted = self._resident.pop(key, None)
                if evicted is not None:
                    evicted.batcher._flush("drain")
                    self._hot_reload_evictions += 1

    # ------------------------------------------------------------ requests
    async def _route(self, request: Request):
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            names = await call_listing(self.registry, self.registry.names)
            body = {"status": "ok", "models": len(names)}
            return 200, "application/json", json.dumps(body).encode()
        if path == "/v1/models":
            self._require(method, "GET")
            manifests = await call_listing(self.registry, self.registry.list)
            body = {"models": [m.to_dict() for m in manifests]}
            return 200, "application/json", json.dumps(body).encode()
        if path == "/v1/predict":
            self._require(method, "POST")
            return await self._predict(request)
        raise HTTPError(404, "not_found", f"no route for {path}")

    # ------------------------------------------------------------- predict
    async def _predict(self, request: Request):
        entered = time.perf_counter()
        body = self._json_object(request)
        ref = body.get("model")
        if not isinstance(ref, str) or not ref:
            raise HTTPError(
                400, "bad_request", "body needs a 'model' reference "
                "('name' or 'name@version')"
            )
        single = "features" in body
        if single == ("instances" in body):
            raise HTTPError(
                400, "bad_request",
                "body needs exactly one of 'features' (single) or "
                "'instances' (batch)",
            )
        interval = bool(body.get("interval")) or (
            request.query.get("interval", ["0"])[0] not in ("", "0", "false")
        )
        try:
            resident = await self._resident_model(ref)
        except RegistryError as exc:
            raise HTTPError(404, "unknown_model", str(exc)) from None
        if interval and not resident.is_ensemble:
            raise HTTPError(
                400, "bad_request",
                f"{resident.manifest.ref} is a point predictor; "
                f"intervals need an ensemble artifact",
            )
        instances = [body["features"]] if single else body["instances"]
        if not isinstance(instances, list) or not instances:
            raise HTTPError(
                400, "bad_request", "'instances' must be a non-empty list"
            )
        rows = [self._feature_row(resident, inst) for inst in instances]
        # Phase breakdown: "queue" is everything before the batcher sees
        # the rows (parse, validate, model resolve); the batcher itself
        # records "batch_wait" and "predict"; "serialize" follows below.
        self.metrics.record_phase("queue", time.perf_counter() - entered)
        try:
            # The body's form picks the flush: a single-form row waits
            # for company, a batch-form request flushes on the next turn.
            if single:
                results = [await resident.batcher.submit(rows[0])]
            else:
                results = await resident.batcher.submit_many(rows)
        except BacklogFullError as exc:
            raise HTTPError(
                429, "backlog_full", str(exc),
                headers={"Retry-After": str(exc.retry_after_s)},
            ) from None
        serialize_started = time.perf_counter()
        self.metrics.record_predictions(len(results))
        payload: dict = {"model": resident.manifest.ref}
        if resident.is_ensemble:
            means = [r[0] for r in results]
            stds = [r[1] for r in results]
            if single:
                payload["prediction"] = means[0]
                if interval:
                    payload["std"] = stds[0]
                    payload["interval"] = [
                        means[0] - 2.0 * stds[0], means[0] + 2.0 * stds[0]
                    ]
            else:
                payload["predictions"] = means
                if interval:
                    payload["stds"] = stds
                    payload["intervals"] = [
                        [m - 2.0 * s, m + 2.0 * s]
                        for m, s in zip(means, stds)
                    ]
        else:
            if single:
                payload["prediction"] = results[0]
            else:
                payload["predictions"] = list(results)
        encoded = json.dumps(payload, separators=(",", ":")).encode()
        self.metrics.record_phase(
            "serialize", time.perf_counter() - serialize_started
        )
        return 200, "application/json", encoded

    @staticmethod
    def _feature_row(resident: _ResidentModel, features) -> np.ndarray:
        if not isinstance(features, dict):
            raise HTTPError(
                400, "bad_request",
                "each instance must be an object of feature name -> value",
            )
        names = resident.feature_names
        unknown = sorted(set(features) - resident.feature_name_set)
        if unknown:
            raise HTTPError(
                400, "bad_request",
                f"unknown feature(s) {unknown}; model "
                f"{resident.manifest.ref} expects {list(names)}",
            )
        values = []
        for name in names:
            if name not in features:
                raise HTTPError(
                    400, "bad_request",
                    f"missing feature {name!r}; model "
                    f"{resident.manifest.ref} expects {list(names)}",
                )
            value = features[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise HTTPError(
                    400, "bad_request",
                    f"feature {name!r} must be a number; got {value!r}",
                )
            try:  # json parses NaN, Infinity and 1e999; big ints overflow
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise HTTPError(
                    400, "bad_request", f"feature {name!r} must be finite; got {value}"
                )
            values.append(value)
        return np.array(values)


class ServerThread(ServerThreadBase):
    """Run a :class:`PredictionServer` on a background event loop.

    For synchronous callers — tests, the throughput bench — that need a
    live server next to blocking client code::

        with ServerThread(registry, max_batch=32) as handle:
            client = PredictionClient("127.0.0.1", handle.port)
            ...

    Exit performs the graceful ``stop()`` (drains batches) and joins the
    thread.
    """

    thread_name = "repro-serve"

    def __init__(self, registry, **server_kwargs) -> None:
        super().__init__(PredictionServer(registry, **server_kwargs))
