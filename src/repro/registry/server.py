"""HTTP artifact service: a registry served over the wire.

Wraps a local :class:`~repro.registry.local.ModelRegistry` (or any
:class:`~repro.registry.backend.RegistryBackend`) in the shared asyncio
HTTP plumbing (:mod:`repro.serve.http`), so training boxes push artifacts
to one place and every prediction server pulls from it.  Endpoints:

* ``GET /v1/models`` — every stored manifest (tombstone status included);
  with ``?since=<cursor>`` only the manifests of names changed since the
  cursor come back, plus ``changed`` (names, including removed ones) and
  a fresh ``cursor`` — hot-reload pollers sync in O(changes).  An
  unknown, stale or malformed cursor (including the conventional
  initial ``0``) degrades to a full sync.  A read replica whose
  upstream is down answers ``503``, and one whose upstream answers
  garbage ``502``, naming the upstream;
* ``GET /v1/models/{name}`` — one name's versions with tombstone reasons;
* ``GET /v1/models/{ref}/manifest`` — resolve ``name`` or
  ``name@version`` to its manifest (``410 Gone`` for tombstoned pins);
* ``GET /v1/models/{name}@{version}/tombstone`` — tombstone status of one
  version (``{"reason": null}`` when live);
* ``GET /v1/blobs/{sha256}`` — content-addressed artifact bytes, served
  exactly as stored (clients re-verify the hash before decoding, so a
  corrupted payload fails with the same error as a local load);
* ``POST /v1/push`` — store an artifact as the next version of a name;
  requires a bearer token (pushes are disabled when the server was
  started without one);
* ``GET /healthz``, ``GET /metrics`` — the usual liveness and merged
  Prometheus exposition (``repro_registry_*`` namespace plus the
  process-wide engine/fit sources and store inventory gauges).

Error mapping mirrors the backend exceptions so
:class:`~repro.registry.client.HttpBackend` can reconstruct them:
:class:`~repro.registry.local.TombstoneError` becomes ``410 Gone`` (the
reason travels in the body), every other
:class:`~repro.registry.local.RegistryError` becomes ``404`` (``400`` on
push).  Responses carry the backend's exact message text, so a client
sees the same descriptive errors whether it reads the store directly or
over HTTP.
"""

from __future__ import annotations

import functools
import hmac
import json

from ..core.persistence import PersistenceError, artifact_from_dict
from ..obs.registry import Exposition
from ..serve.http import HTTPError, HttpServerBase, Request, ServerThreadBase
from .backend import call_backend, call_listing
from .local import ModelRegistry, RegistryError, TombstoneError, parse_ref

__all__ = ["RegistryServer", "RegistryServerThread"]


class RegistryServer(HttpServerBase):
    """Serve one registry backend over HTTP.

    Parameters
    ----------
    backend:
        The store to expose — normally a local
        :class:`~repro.registry.local.ModelRegistry`; pass an
        :class:`~repro.registry.client.HttpBackend` to run a **read
        replica** that pulls manifests and blobs through from an upstream
        registry on cache miss (``repro registry serve --mirror URL``),
        so suite fleets fan reads across mirrors instead of hammering
        one registry.
    host, port:
        Bind address; port ``0`` picks an ephemeral port.
    token:
        Bearer token required by ``POST /v1/push``.  ``None`` (default)
        disables pushing entirely: a read-only mirror.
    """

    known_endpoints = (
        "/v1/models",
        "/v1/models/*",
        "/v1/blobs/*",
        "/v1/push",
        "/healthz",
        "/metrics",
    )
    request_span_name = "registry.request"
    metrics_prefix = "repro_registry"

    def __init__(
        self,
        backend: ModelRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
    ) -> None:
        super().__init__(host=host, port=port)
        self.backend = backend
        self.token = token
        #: The listing :meth:`_scrape` read for the render in progress (or
        #: the error reading it raised); ``None`` outside a scrape.
        self._scrape_listing = None
        self.obs_registry.register_source(
            "registry_backend", self._render_backend_metrics
        )

    # ------------------------------------------------------------- hooks
    async def _scrape(self) -> str:
        """``GET /metrics``, the inventory's listing read off the event loop."""
        try:
            self._scrape_listing = await call_backend(
                self.backend, self.backend.listing
            )
        except Exception as exc:  # noqa: BLE001 - the render counts it
            self._scrape_listing = exc
        try:
            return self.obs_registry.render()
        finally:
            self._scrape_listing = None

    def _render_backend_metrics(self) -> str:
        """Inventory gauges for the served store, read at scrape time."""
        listing = self._scrape_listing
        if listing is None:
            listing = self.backend.listing()
        elif isinstance(listing, Exception):
            raise listing
        manifests = [m for m, _reason in listing]
        tombstones = sum(1 for _m, reason in listing if reason is not None)
        out = Exposition()
        out.gauge(
            "repro_registry_models", "Distinct model names stored.",
            len({m.name for m in manifests}),
        )
        out.gauge(
            "repro_registry_versions",
            "Stored model versions (tombstoned included).", len(manifests),
        )
        out.gauge(
            "repro_registry_tombstones",
            "Versions currently blocked by a tombstone.", tombstones,
        )
        return out.text()

    def _endpoint_label(self, path: str) -> str:
        if path.startswith("/v1/models/"):
            return "/v1/models/*"
        if path.startswith("/v1/blobs/"):
            return "/v1/blobs/*"
        return super()._endpoint_label(path)

    # ------------------------------------------------------------ routes
    async def _route(self, request: Request):
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            names = await call_listing(self.backend, self.backend.names)
            body = {"status": "ok", "models": len(names)}
            return 200, "application/json", json.dumps(body).encode()
        if path == "/v1/models":
            self._require(method, "GET")
            return await self._list_models(request)
        if path.startswith("/v1/models/"):
            self._require(method, "GET")
            return await self._model_route(path[len("/v1/models/"):])
        if path.startswith("/v1/blobs/"):
            self._require(method, "GET")
            return await self._blob(path[len("/v1/blobs/"):])
        if path == "/v1/push":
            self._require(method, "POST")
            return await self._push(request)
        raise HTTPError(404, "not_found", f"no route for {path}")

    # ------------------------------------------------------------- reads
    @staticmethod
    def _manifest_dict(manifest, tombstone: str | None) -> dict:
        """Manifest payload with its tombstone status attached."""
        data = manifest.to_dict()
        data["tombstone"] = tombstone
        return data

    async def _list_models(self, request: Request):
        since = request.query.get("since")
        if since is None:
            listing = await call_listing(self.backend, self.backend.listing)
            body = {"models": [self._manifest_dict(*entry) for entry in listing]}
            return 200, "application/json", json.dumps(body).encode()
        # A mirror's change feed has no cache to fall back on when its
        # upstream is down.
        changed, cursor = await call_listing(
            self.backend, self.backend.changed_models, since[0]
        )
        names = set(changed)
        manifests = (
            [
                self._manifest_dict(m, reason)
                for m, reason in await call_listing(
                    self.backend, self.backend.listing
                )
                if m.name in names
            ]
            if names
            else []
        )
        body = {"models": manifests, "changed": changed, "cursor": cursor}
        return 200, "application/json", json.dumps(body).encode()

    async def _model_route(self, rest: str):
        """Dispatch ``/v1/models/{...}`` sub-paths."""
        if rest.endswith("/manifest"):
            return await self._manifest(rest[: -len("/manifest")])
        if rest.endswith("/tombstone"):
            return await self._tombstone_status(rest[: -len("/tombstone")])
        if "/" in rest:
            raise HTTPError(404, "not_found", f"no route for /v1/models/{rest}")
        return await self._model_info(rest)

    async def _manifest(self, ref: str):
        """Resolve a reference exactly as the local backend would."""
        try:
            manifest = await call_backend(self.backend, self.backend.resolve, ref)
        except TombstoneError as exc:
            raise HTTPError(
                410, "tombstoned", str(exc),
            ) from None
        except RegistryError as exc:
            raise HTTPError(404, "unknown_model", str(exc)) from None
        reason = await call_backend(
            self.backend,
            self.backend.tombstone_reason,
            manifest.name,
            manifest.version,
        )
        return (
            200,
            "application/json",
            json.dumps(self._manifest_dict(manifest, reason)).encode(),
        )

    async def _model_info(self, name: str):
        try:
            parsed, version = parse_ref(name)
        except RegistryError as exc:
            raise HTTPError(404, "unknown_model", str(exc)) from None
        if version is not None:
            raise HTTPError(
                404, "not_found",
                f"use /v1/models/{parsed}@{version}/manifest for one version",
            )
        listing = await call_listing(self.backend, self.backend.listing)
        versions = [(m, reason) for m, reason in listing if m.name == parsed]
        if not versions:
            try:  # raises with the canonical text
                await call_backend(self.backend, self.backend.resolve, parsed)
            except RegistryError as exc:
                raise HTTPError(404, "unknown_model", str(exc)) from None
        body = {
            "name": parsed,
            "versions": [self._manifest_dict(*entry) for entry in versions],
        }
        return 200, "application/json", json.dumps(body).encode()

    async def _tombstone_status(self, ref: str):
        try:
            name, version = parse_ref(ref)
        except RegistryError as exc:
            raise HTTPError(404, "unknown_model", str(exc)) from None
        if version is None:
            raise HTTPError(
                404, "not_found",
                "tombstone status takes an explicit name@version",
            )
        listing = await call_listing(self.backend, self.backend.listing)
        reasons = {m.version: reason for m, reason in listing if m.name == name}
        if version not in reasons:
            raise HTTPError(
                404, "unknown_model",
                f"unknown version {version} of {name!r}",
            )
        body = {"ref": f"{name}@{version}", "reason": reasons[version]}
        return 200, "application/json", json.dumps(body).encode()

    async def _blob(self, content_hash: str):
        # Bytes travel exactly as stored — no server-side re-hash.  Every
        # client verifies by content hash before decoding, so a corrupted
        # payload is refused client-side with the same wording as a local
        # load (error parity); a server-side refusal would hide the bytes
        # behind a different message.  A mirror's ``blob_path`` downloads
        # on a cache miss.
        try:
            payload = await call_backend(self.backend, self._blob_bytes, content_hash)
        except RegistryError as exc:
            raise HTTPError(404, "unknown_blob", str(exc)) from None
        except OSError as exc:
            raise HTTPError(
                404, "unknown_blob",
                f"cannot read blob {content_hash[:12]}...: {exc}",
            ) from None
        return 200, "application/json", payload

    def _blob_bytes(self, content_hash: str) -> bytes:
        return self.backend.blob_path(content_hash).read_bytes()

    # ------------------------------------------------------------- push
    async def _push(self, request: Request):
        self._authorize(request)
        body = self._json_object(request)
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise HTTPError(400, "bad_request", "body needs a model 'name'")
        data = body.get("artifact")
        if not isinstance(data, dict):
            raise HTTPError(
                400, "bad_request",
                "body needs an 'artifact' object (the persistence-format "
                "model payload)",
            )
        try:
            artifact = artifact_from_dict(data)
        except PersistenceError as exc:
            raise HTTPError(
                400, "bad_request", f"artifact payload rejected: {exc}"
            ) from None
        created_at = body.get("created_at")
        if created_at is not None and not isinstance(created_at, str):
            raise HTTPError(400, "bad_request", "'created_at' must be a string")
        try:
            manifest = await call_backend(
                self.backend,
                functools.partial(self.backend.push, created_at=created_at),
                name,
                artifact,
            )
        except RegistryError as exc:
            raise HTTPError(400, "bad_request", str(exc)) from None
        reason = await call_backend(
            self.backend,
            self.backend.tombstone_reason,
            manifest.name,
            manifest.version,
        )
        return (
            200,
            "application/json",
            json.dumps(self._manifest_dict(manifest, reason)).encode(),
        )

    def _authorize(self, request: Request) -> None:
        if self.token is None:
            raise HTTPError(
                403, "push_disabled",
                "push is disabled: this registry server was started "
                "without a push token (read-only mirror)",
            )
        supplied = request.headers.get("authorization", "")
        scheme, _sep, value = supplied.partition(" ")
        if scheme.lower() != "bearer" or not hmac.compare_digest(
            value.strip(), self.token
        ):
            raise HTTPError(
                401, "unauthorized",
                "push requires 'Authorization: Bearer <token>' with the "
                "registry's push token",
            )


class RegistryServerThread(ServerThreadBase):
    """Run a :class:`RegistryServer` on a background event loop.

    Mirrors :class:`~repro.serve.server.ServerThread` for synchronous
    callers (tests, benches, the CLI)::

        with RegistryServerThread(backend, token="s3cret") as handle:
            remote = HttpBackend(f"http://127.0.0.1:{handle.port}", ...)
    """

    thread_name = "repro-registry"

    def __init__(self, backend: ModelRegistry, **server_kwargs) -> None:
        super().__init__(RegistryServer(backend, **server_kwargs))
