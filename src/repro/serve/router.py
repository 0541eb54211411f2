"""Front router for the multi-worker serving tier.

``repro serve --workers N`` runs N :class:`~repro.serve.server.PredictionServer`
worker processes (:mod:`repro.serve.worker`) behind one
:class:`RouterServer`.  The router owns the listening port; every
``/v1/predict`` is dispatched over a pooled keep-alive loopback
connection to the worker whose shard owns the model
(:mod:`repro.serve.shard`), so each model name stays resident on exactly
one worker and its micro-batcher still coalesces across all clients.

    clients ──▶ RouterServer ──┬──▶ worker 0 (PredictionServer)
                 │  shard by   ├──▶ worker 1
                 │  model name └──▶ worker N-1
                 └─ canary / shadow / machine routing

Routing features beyond the shard map:

* **Request-metadata routing.**  A body with ``"machine": "e5649"`` and
  no ``"model"`` resolves to the newest live artifact whose manifest was
  trained for that processor, then routes by the resolved name.
* **Canary splitting.**  ``canary=("band@2:10",)`` sends 10% of the
  bare-``band`` traffic to ``band@2`` (deterministic fraction
  accumulator — exactly 1 request in 10, not a coin flip) and pins the
  remainder to the newest live version *older* than the canary.  Bare
  names normally float to the latest version, so without that pin,
  pushing a candidate would flip 100% of traffic onto it; with it, the
  push + canary flow ramps exactly the configured fraction.  Requests
  that pin an explicit ``name@version`` are never rerouted.
* **Shadow traffic.**  ``shadow=("band@2",)`` mirrors every ``band``
  request to ``band@2`` on the same worker, diffs the predictions, and
  exports the divergence as the ``repro_serve_shadow_divergence``
  histogram (bucket ``le="0.0"`` counts bit-identical agreement).  The
  client always receives the primary response, byte for byte.

``GET /metrics`` on the router scrapes every worker and merges the
expositions (:func:`~repro.serve.metrics.merge_prometheus_texts`) with
the router's own, so one scrape aggregates the whole tier.  Request IDs
are stitched across the hop: the router forwards its effective
``X-Request-Id`` to the worker, so the router's ``route.request`` span
and the worker's ``serve.request`` span share one correlation id.

:class:`ServingTier` is the synchronous orchestrator (spawn workers,
run the router on a background loop, drain everything on ``stop()``)
used by the CLI, the tests, and the throughput bench.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from urllib.parse import urlencode

from ..obs.registry import Exposition
from ..obs.trace import current_span
from ..registry.backend import call_backend, call_listing
from ..registry.local import RegistryError, parse_ref
from .http import HTTPError, HttpServerBase, Request, ServerThreadBase
from .metrics import LatencyHistogram, merge_prometheus_texts
from .shard import ShardMap
from .worker import WorkerProcess

__all__ = [
    "CanarySpec",
    "RouterServer",
    "ServingTier",
    "ShadowSpec",
    "parse_canary",
    "parse_shadow",
]

#: Absolute-difference buckets for the shadow divergence histogram; the
#: 0.0 bucket counts shadow predictions that agreed bit for bit.
SHADOW_DIVERGENCE_BUCKETS = (
    0.0, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Headers a worker response may pass through the router unchanged.
_FORWARDED_HEADERS = ("retry-after",)


@dataclass(frozen=True)
class CanarySpec:
    """Send ``fraction`` of bare-``name`` requests to ``name@version``."""

    name: str
    version: int
    fraction: float

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"


@dataclass(frozen=True)
class ShadowSpec:
    """Mirror ``name`` requests to ``name@version`` and diff predictions."""

    name: str
    version: int

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"


def parse_canary(text: str) -> CanarySpec:
    """Parse the CLI form ``name@version:percent`` (e.g. ``band@2:10``)."""
    ref, sep, percent_text = text.rpartition(":")
    if not sep:
        raise ValueError(
            f"canary spec must be name@version:percent (got {text!r})"
        )
    name, version = parse_ref(ref)
    if version is None:
        raise ValueError(
            f"canary needs an explicit name@version (got {text!r})"
        )
    try:
        percent = float(percent_text)
    except ValueError:
        raise ValueError(
            f"canary percent must be a number in (0, 100]; got "
            f"{percent_text!r}"
        ) from None
    if not 0.0 < percent <= 100.0:
        raise ValueError(
            f"canary percent must be in (0, 100]; got {percent}"
        )
    return CanarySpec(name=name, version=version, fraction=percent / 100.0)


def parse_shadow(text: str) -> ShadowSpec:
    """Parse the CLI form ``name@version``."""
    name, version = parse_ref(text)
    if version is None:
        raise ValueError(
            f"shadow needs an explicit name@version (got {text!r})"
        )
    return ShadowSpec(name=name, version=version)


class _WorkerChannel:
    """Pooled keep-alive loopback connections to one worker process.

    The pool holds up to ``pool_size`` persistent connections; a request
    checks one out, writes one HTTP/1.1 exchange, and returns it.  A
    connection that died between requests (worker restart, idle reset)
    is replaced and the exchange retried once.
    """

    def __init__(self, host: str, port: int, *, pool_size: int = 32) -> None:
        self.host = host
        self.port = port
        self._slots: asyncio.Queue = asyncio.Queue()
        for _ in range(pool_size):
            self._slots.put_nowait(None)  # placeholder: connect lazily
        self._open: list[asyncio.StreamWriter] = []

    async def _acquire(self):
        slot = await self._slots.get()
        if slot is not None:
            return slot
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        except BaseException:
            # The placeholder must go back or the pool shrinks by one on
            # every refused connection — with a dead worker under load
            # that drains the whole pool and later requests hang forever.
            self._slots.put_nowait(None)
            raise
        self._open.append(writer)
        return reader, writer

    def _release(self, conn, *, broken: bool = False) -> None:
        if broken:
            _reader, writer = conn
            writer.close()
            if writer in self._open:
                self._open.remove(writer)
            self._slots.put_nowait(None)
        else:
            self._slots.put_nowait(conn)

    async def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, str, bytes, dict[str, str]]:
        """One proxied exchange -> (status, content type, body, headers)."""
        head_lines = [f"{method} {target} HTTP/1.1", f"Host: {self.host}"]
        for name, value in (headers or {}).items():
            head_lines.append(f"{name}: {value}")
        head_lines.append(f"Content-Length: {len(body)}")
        head_lines.append("Connection: keep-alive")
        payload = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1") + body
        last_error: Exception | None = None
        for attempt in (0, 1):
            try:
                conn = await self._acquire()
            except OSError as exc:
                # Connect refused/reset: the worker is down (draining on
                # SIGTERM, crashed).  Surface it as 502 below, not a 500.
                last_error = exc
                continue
            reader, writer = conn
            try:
                writer.write(payload)
                await writer.drain()
                response = await self._read_response(reader)
            except (
                ConnectionError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ) as exc:
                # Stale keep-alive connection; replace it and retry once.
                self._release(conn, broken=True)
                last_error = exc
                continue
            except BaseException:
                # Cancellation (server stop) or an unexpected failure
                # mid-exchange: the connection state is unknown, drop it
                # but always give the slot back.
                self._release(conn, broken=True)
                raise
            keep_alive = (
                response[3].get("connection", "keep-alive").lower() != "close"
            )
            self._release(conn, broken=not keep_alive)
            return response
        raise HTTPError(
            502,
            "worker_unreachable",
            f"worker at {self.host}:{self.port} is unreachable: {last_error}",
        )

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, str, bytes, dict[str, str]]:
        head = await reader.readuntil(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise asyncio.IncompleteReadError(head, None)
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            key, _sep, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return (
            status,
            headers.get("content-type", "application/json"),
            body,
            headers,
        )

    def close(self) -> None:
        """Close every pooled connection (router shutdown)."""
        for writer in self._open:
            writer.close()
        self._open = []


class RouterServer(HttpServerBase):
    """Shard-routing front server for a fleet of prediction workers.

    Parameters
    ----------
    worker_ports:
        Loopback ports of the running workers, in shard order.
    backend:
        The router's own registry backend handle — used for
        ``/v1/models``, machine-metadata resolution and canary
        baselines.  Workers hold their own instances.
    canary, shadow:
        :class:`CanarySpec` / :class:`ShadowSpec` sequences (at most one
        per model name each).
    machine_cache_s:
        TTL of the machine and canary-baseline resolution cache.
    """

    known_endpoints = ("/v1/predict", "/v1/models", "/healthz", "/metrics")
    request_span_name = "route.request"
    metrics_prefix = "repro_router"

    def __init__(
        self,
        worker_ports: list[int],
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_host: str = "127.0.0.1",
        canary: tuple[CanarySpec, ...] = (),
        shadow: tuple[ShadowSpec, ...] = (),
        pool_size: int = 32,
        machine_cache_s: float = 2.0,
    ) -> None:
        if not worker_ports:
            raise ValueError("a router needs at least one worker port")
        super().__init__(host=host, port=port)
        self.backend = backend
        self.shards = ShardMap(len(worker_ports))
        self.channels = [
            _WorkerChannel(worker_host, p, pool_size=pool_size)
            for p in worker_ports
        ]
        self.canaries = {spec.name: spec for spec in canary}
        self.shadows = {spec.name: spec for spec in shadow}
        self.machine_cache_s = machine_cache_s
        self.obs_registry.register_source("router", self._render_router_metrics)
        self._canary_acc: dict[str, float] = {}
        self._canary_sent: dict[str, int] = {}
        self._shadow_sent: dict[str, int] = {}
        self._shadow_errors: dict[str, int] = {}
        self._shadow_divergence: dict[str, LatencyHistogram] = {}
        # (kind, key) -> (resolved at, ref) for _newest_live hits.
        self._newest_cache: dict[tuple[str, str], tuple[float, str]] = {}

    # ------------------------------------------------------------- metrics
    def _render_router_metrics(self) -> str:
        """Tier shape, canary routing, and shadow divergence families."""
        canaries = sorted(self.canaries.items())
        shadows = sorted(self.shadows.items())
        out = Exposition().gauge(
            "repro_serve_workers",
            "Worker processes behind this router.",
            len(self.channels),
        )
        out.family(
            "repro_serve_canary_requests_total",
            "counter",
            "Requests routed to a canary version instead of the latest.",
            [
                ({"model": name, "ref": spec.ref}, self._canary_sent.get(name, 0))
                for name, spec in canaries
            ],
        )
        out.family(
            "repro_serve_shadow_requests_total",
            "counter",
            "Requests mirrored to a shadow version.",
            [
                ({"model": name, "ref": spec.ref}, self._shadow_sent.get(name, 0))
                for name, spec in shadows
            ],
        )
        out.family(
            "repro_serve_shadow_errors_total",
            "counter",
            "Shadow requests that failed (primary responses were unaffected).",
            [
                ({"model": name}, self._shadow_errors.get(name, 0))
                for name, _spec in shadows
            ],
        )
        out.histogram(
            "repro_serve_shadow_divergence",
            'Absolute difference between primary and shadow predictions '
            '(le="0.0" counts bit-identical agreement).',
            [
                ({"model": name}, h.buckets, h.bucket_counts, h.total)
                for name, h in sorted(self._shadow_divergence.items())
            ],
        )
        return out.text()

    # ------------------------------------------------------------ lifecycle
    async def stop(self, *, drain_timeout_s: float = 5.0) -> None:
        await super().stop(drain_timeout_s=drain_timeout_s)
        for channel in self.channels:
            channel.close()

    # -------------------------------------------------------------- routes
    async def _route(self, request: Request):
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            return await self._healthz()
        if path == "/v1/models":
            self._require(method, "GET")
            manifests = await call_listing(self.backend, self.backend.list)
            body = {"models": [m.to_dict() for m in manifests]}
            return 200, "application/json", json.dumps(body).encode()
        if path == "/v1/predict":
            self._require(method, "POST")
            return await self._predict(request)
        raise HTTPError(404, "not_found", f"no route for {path}")

    async def _healthz(self):
        """Every worker's ``/healthz``, asked at once: a hung registry
        costs one backend timeout, not one per worker."""
        answers = await asyncio.gather(
            *(channel.request("GET", "/healthz") for channel in self.channels),
            return_exceptions=True,
        )
        workers = []
        status = "ok"
        for index, answer in enumerate(answers):
            if isinstance(answer, HTTPError):
                entry = {"index": index, "status": "unreachable"}
                status = "degraded"
            elif isinstance(answer, BaseException):
                raise answer
            else:
                worker_status, _ctype, payload, _headers = answer
                entry = {"index": index, "status": "ok"}
                if worker_status != 200:
                    entry["status"] = f"http {worker_status}"
                    status = "degraded"
                else:
                    entry.update(json.loads(payload.decode()))
                    entry["status"] = "ok"
            workers.append(entry)
        body = {"status": status, "workers": workers}
        return 200, "application/json", json.dumps(body).encode()

    async def _scrape(self) -> str:
        """One scrape: the router's exposition + every worker's, merged."""
        scrapes = await asyncio.gather(
            *(
                channel.request("GET", "/metrics")
                for channel in self.channels
            ),
            return_exceptions=True,
        )
        texts = [await super()._scrape()]
        unreachable = 0
        for scraped in scrapes:
            if isinstance(scraped, BaseException):
                unreachable += 1
                continue
            status, _ctype, payload, _headers = scraped
            if status == 200:
                texts.append(payload.decode())
            else:
                unreachable += 1
        merged = merge_prometheus_texts(texts)
        if unreachable:
            merged += Exposition().gauge(
                "repro_serve_worker_scrape_errors",
                "Workers whose /metrics scrape failed this pass.",
                unreachable,
            ).text()
        return merged

    # ------------------------------------------------------------- predict
    async def _predict(self, request: Request):
        body = self._json_object(request)
        ref = body.get("model")
        machine = body.get("machine")
        if ref is None and isinstance(machine, str) and machine:
            ref = await self._resolve_machine(machine)
        if not isinstance(ref, str) or not ref:
            raise HTTPError(
                400, "bad_request", "body needs a 'model' reference "
                "('name' or 'name@version') or a 'machine' to route by"
            )
        try:
            name, version = parse_ref(ref)
        except RegistryError as exc:
            raise HTTPError(404, "unknown_model", str(exc)) from None
        routed_ref = ref
        canary = self.canaries.get(name)
        if canary is not None and version is None:
            if self._take_canary(name, canary.fraction):
                routed_ref = canary.ref
                self._canary_sent[name] = self._canary_sent.get(name, 0) + 1
            else:
                routed_ref = await self._canary_baseline(name, canary)
        payload = request.body
        if routed_ref != body.get("model"):
            body["model"] = routed_ref
            payload = json.dumps(body, separators=(",", ":")).encode()
        target = "/v1/predict"
        if request.query:
            target += "?" + urlencode(request.query, doseq=True)
        headers = self._forward_headers(request)
        channel = self.channels[self.shards.worker_for(name)]
        shadow = self.shadows.get(name)
        if shadow is not None and routed_ref != shadow.ref:
            shadow_body = dict(body)
            shadow_body["model"] = shadow.ref
            primary, mirrored = await asyncio.gather(
                channel.request("POST", target, payload, headers),
                channel.request(
                    "POST",
                    target,
                    json.dumps(shadow_body, separators=(",", ":")).encode(),
                    headers,
                ),
                return_exceptions=True,
            )
            if isinstance(primary, BaseException):
                raise primary
            self._shadow_sent[name] = self._shadow_sent.get(name, 0) + 1
            self._record_shadow(name, primary, mirrored)
            response = primary
        else:
            response = await channel.request("POST", target, payload, headers)
        status, content_type, response_body, response_headers = response
        extra = {
            header: response_headers[header]
            for header in _FORWARDED_HEADERS
            if header in response_headers
        }
        if status >= 400:
            # Count the upstream refusal in the router's error ledger too
            # (the worker already recorded its own reason).
            self.metrics.record_error(f"worker_{status}")
        return status, content_type, response_body, extra

    def _take_canary(self, name: str, fraction: float) -> bool:
        """Deterministic fraction accumulator: exact splits, no RNG."""
        acc = self._canary_acc.get(name, 0.0) + fraction
        take = acc >= 1.0 - 1e-9
        if take:
            acc -= 1.0
        self._canary_acc[name] = acc
        return take

    async def _canary_baseline(self, name: str, canary: CanarySpec) -> str:
        """Where non-canary bare traffic goes: the newest live version
        older than the canary, or the bare name when there is none."""
        baseline = await self._newest_live(
            ("canary", name),
            lambda m: m.name == name and m.version < canary.version,
            rank=lambda m: m.version,
        )
        return name if baseline is None else baseline

    async def _newest_live(self, cache_key, matches, *, rank) -> str | None:
        """Ref of the highest-``rank`` live manifest that ``matches``.

        A hit is cached for ``machine_cache_s``; a miss is not, so the
        next request looks again.  A version whose tombstone status
        cannot be read counts as live.
        """
        cached = self._newest_cache.get(cache_key)
        now = time.monotonic()
        if cached is not None and now - cached[0] < self.machine_cache_s:
            return cached[1]
        manifests = await call_listing(self.backend, self.backend.list)
        candidates = sorted(filter(matches, manifests), key=rank, reverse=True)
        for manifest in candidates:
            try:
                blocked = await call_backend(
                    self.backend,
                    self.backend.tombstone_reason,
                    manifest.name,
                    manifest.version,
                )
            except Exception:  # noqa: BLE001 - can't check; treat as live
                blocked = None
            if blocked is None:
                self._newest_cache[cache_key] = (now, manifest.ref)
                return manifest.ref
        return None

    @staticmethod
    def _forward_headers(request: Request) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        # The dispatch layer stamped the effective correlation id back
        # into the request headers; forwarding it stitches the router
        # span and the worker span onto one id.
        request_id = request.headers.get("x-request-id")
        if request_id:
            headers["X-Request-Id"] = request_id
        # Full span-context propagation: the worker's serve.request span
        # becomes a *child* of this route.request span, so a collector
        # sees one tree across the hop (not two sibling traces).
        span = current_span()
        if span is not None and span.trace_id:
            headers["X-Trace-Context"] = f"{span.trace_id}/{span.span_id}"
        return headers

    # ------------------------------------------------------------- shadow
    def _record_shadow(self, name: str, primary, mirrored) -> None:
        if isinstance(mirrored, BaseException):
            self._shadow_errors[name] = self._shadow_errors.get(name, 0) + 1
            return
        primary_status, _pc, primary_body, _ph = primary
        shadow_status, _sc, shadow_body, _sh = mirrored
        if primary_status != 200 or shadow_status != 200:
            if shadow_status != 200:
                self._shadow_errors[name] = (
                    self._shadow_errors.get(name, 0) + 1
                )
            return
        primary_values = self._predictions(primary_body)
        shadow_values = self._predictions(shadow_body)
        if primary_values is None or shadow_values is None or (
            len(primary_values) != len(shadow_values)
        ):
            self._shadow_errors[name] = self._shadow_errors.get(name, 0) + 1
            return
        hist = self._shadow_divergence.get(name)
        if hist is None:
            hist = self._shadow_divergence[name] = LatencyHistogram(
                buckets=SHADOW_DIVERGENCE_BUCKETS
            )
        for expected, mirrored_value in zip(primary_values, shadow_values):
            hist.observe(abs(expected - mirrored_value))

    @staticmethod
    def _predictions(payload: bytes) -> list[float] | None:
        try:
            data = json.loads(payload.decode())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if "prediction" in data:
            return [float(data["prediction"])]
        values = data.get("predictions")
        if isinstance(values, list):
            return [float(v) for v in values]
        return None

    # ------------------------------------------------------------- machine
    async def _resolve_machine(self, machine: str) -> str:
        """Newest live artifact trained for ``machine``."""
        ref = await self._newest_live(
            ("machine", machine),
            lambda m: m.processor_name == machine,
            rank=lambda m: (m.created_at, m.version),
        )
        if ref is not None:
            return ref
        manifests = await call_listing(self.backend, self.backend.list)
        known = sorted(
            {m.processor_name for m in manifests if m.processor_name is not None}
        )
        raise HTTPError(
            404,
            "unknown_model",
            f"no live artifact trained for machine {machine!r}; "
            f"known machines: {known}",
        )


class _RouterThread(ServerThreadBase):
    thread_name = "repro-router"


class ServingTier:
    """Spawn N workers + a router; one handle for the whole tier.

    Synchronous orchestrator for the CLI, tests, and benches::

        with ServingTier(registry, workers=4, port=8391) as tier:
            client = PredictionClient("127.0.0.1", tier.port)
            ...

    ``backend`` is a :class:`~repro.registry.local.ModelRegistry` or an
    :class:`~repro.registry.client.HttpBackend`: the router reads it, and
    every worker gets its own unpickled copy.  ``start()`` spawns the
    worker processes (clean ``spawn`` interpreters), waits for each to
    report its bound port, and runs the router on a background event
    loop.  ``stop()`` drains the router
    (in-flight requests finish), then runs each worker's drain protocol
    and records its exit code in :attr:`worker_exitcodes`.

    Extra keyword arguments (``max_batch``, ``max_wait_ms``,
    ``max_backlog``, ``hot_reload_s``, ``model_cache_size``) configure
    every worker's :class:`~repro.serve.server.PredictionServer`.

    ``trace_stream`` points the tier at a span collector
    (``http://host:port``): every worker installs a streaming tracer on
    startup and ships its spans there, so together with the router
    process's own streaming tracer one collector holds the whole tier's
    trace (the CLI spawns a
    :class:`~repro.obs.collector.CollectorThread` for ``--trace``).
    """

    def __init__(
        self,
        backend,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        canary: tuple[CanarySpec, ...] = (),
        shadow: tuple[ShadowSpec, ...] = (),
        pool_size: int = 32,
        machine_cache_s: float = 2.0,
        trace_stream: str | None = None,
        **worker_config,
    ) -> None:
        if workers < 1:
            raise ValueError(f"a tier needs at least 1 worker; got {workers}")
        if trace_stream:
            worker_config["trace_stream"] = trace_stream
        self.backend = backend
        self.host = host
        self._requested_port = port
        self.canary = tuple(canary)
        self.shadow = tuple(shadow)
        self.pool_size = pool_size
        self.machine_cache_s = machine_cache_s
        worker_config.setdefault("worker_id", None)
        worker_config.pop("worker_id")
        self.worker_config = worker_config
        self.workers = [
            WorkerProcess(i, backend, {**worker_config, "worker_id": i})
            for i in range(workers)
        ]
        self.worker_exitcodes: list[int | None] = []
        self.router: RouterServer | None = None
        self._thread: _RouterThread | None = None

    @property
    def port(self) -> int:
        """The router's bound port (after :meth:`start`)."""
        if self.router is None:
            return self._requested_port
        return self.router.port

    def start(self) -> "ServingTier":
        """Spawn every worker, then start the router in front of them."""
        if self._thread is not None:
            raise RuntimeError("serving tier is already running")
        try:
            for worker in self.workers:
                worker.start()
        except Exception:
            for worker in self.workers:
                worker.terminate()
            raise
        self.router = RouterServer(
            [w.port for w in self.workers],
            self.backend,
            host=self.host,
            port=self._requested_port,
            canary=self.canary,
            shadow=self.shadow,
            pool_size=self.pool_size,
            machine_cache_s=self.machine_cache_s,
        )
        self._thread = _RouterThread(self.router)
        try:
            self._thread.start()
        except Exception:
            self._thread = None
            for worker in self.workers:
                worker.terminate()
            raise
        return self

    def stop(self) -> None:
        """Drain the router, then run every worker's drain protocol."""
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
        self.worker_exitcodes = [worker.stop() for worker in self.workers]

    def __enter__(self) -> "ServingTier":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.stop()
