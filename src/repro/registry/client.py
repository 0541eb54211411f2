"""HTTP registry backend with a content-addressed local cache.

:class:`HttpBackend` speaks the :class:`~repro.registry.backend.RegistryBackend`
protocol against a remote :class:`~repro.registry.server.RegistryServer`,
so the prediction server and the CLI use a remote registry exactly like a
local directory.  Two properties make it fit for a serving fleet:

* **Content-addressed cache.**  Every downloaded payload is verified
  against its manifest's SHA-256 and stored under
  ``<cache_dir>/blobs/<sha256>``; manifests land under
  ``<cache_dir>/manifests/<name>/<version>.json``.  A repeat ``get()`` of
  a pinned, cached, live version touches the cache only — zero HTTP
  requests (the bench pins this via :attr:`http_requests`).
* **Outage survival.**  When the registry is unreachable, references that
  resolve within the cache keep working: a pinned version loads straight
  from cache, a bare name floats to the newest cached live version.  Only
  uncached versions fail, with an error naming the unreachable registry.
* **Incremental sync.**  :meth:`HttpBackend.changed_models` speaks the
  server's ``?since=<cursor>`` change feed so pollers (the prediction
  server's hot-reload loop) learn which names changed in one request
  instead of re-listing the store.
* **Wire faults read as an outage.**  A refused or reset connection, a
  timeout and a response cut short all take the unreachable path, so
  the cache fallback applies; a 200 whose body is not a JSON object
  raises a :class:`~repro.registry.local.RegistryError` naming the
  server.

Error parity: tampered, truncated, and corrupted payloads raise the same
descriptive :class:`~repro.registry.local.RegistryError` messages as the
local backend — both decode through
:func:`~repro.registry.local.decode_payload` — and a tombstoned version
raises :class:`~repro.registry.local.TombstoneError` with the shared
:func:`~repro.registry.local.tombstone_message` wording (the server's 410
body carries the exact text).
"""

from __future__ import annotations

import http.client
import json
import os
import tempfile
from pathlib import Path
from urllib.parse import urlsplit

from ..core.persistence import PersistenceError, artifact_to_dict
from .local import (
    Artifact,
    ModelManifest,
    RegistryError,
    TombstoneError,
    decode_payload,
    parse_ref,
    tombstone_message,
)

__all__ = ["HttpBackend"]


def _tombstone_field(entry: dict) -> str | None:
    """A listed manifest's tombstone reason, ``None`` if it is live."""
    reason = entry.get("tombstone")
    return None if reason is None else str(reason)


class HttpBackend:
    """A remote registry, cached locally by content hash.

    Parameters
    ----------
    base_url:
        Registry server address, e.g. ``http://127.0.0.1:8100``.
    cache_dir:
        Directory for the blob/manifest cache (created on demand).
    token:
        Bearer token sent by :meth:`push` (pushes fail without one unless
        the server allows anonymous pushes — the stock server never does).
    timeout_s:
        Socket timeout per HTTP request.
    """

    def __init__(
        self,
        base_url: str,
        cache_dir: str | Path,
        *,
        token: str | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise RegistryError(
                f"registry URL must be http://host:port; got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self._host = split.hostname
        self._port = split.port or 80
        self.cache_dir = Path(cache_dir)
        self.token = token
        self.timeout_s = timeout_s
        #: HTTP requests attempted (the round-trip bench asserts a cached
        #: ``get()`` leaves this untouched).
        self.http_requests = 0
        #: Full ``GET /v1/models`` listings attempted (``names``/``list``).
        #: Cursor-polling consumers assert this stays flat: after the
        #: initial sync, :meth:`changed_models` alone keeps them current.
        self.full_list_requests = 0

    # ------------------------------------------------------------- wire
    def describe(self) -> str:
        """Human-readable backend location (for logs and errors)."""
        return self.base_url

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        """One HTTP round-trip; raises ``OSError`` when unreachable, and
        when the response is malformed or cut short (nothing usable came
        back, exactly as if the server were down)."""
        self.http_requests += 1
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout_s
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        except http.client.HTTPException as exc:
            raise ConnectionError(
                f"bad response from registry at {self.base_url}: {exc!r}"
            ) from None
        finally:
            conn.close()

    def _json(self, payload: bytes, what: str) -> dict:
        """A 200 body as a JSON object; anything else names the server."""
        try:
            data = json.loads(payload.decode())
        except (ValueError, RecursionError):
            data = None
        if not isinstance(data, dict):
            raise RegistryError(
                f"registry at {self.base_url} sent an unparsable {what}"
            )
        return data

    @staticmethod
    def _error_text(payload: bytes, fallback: str) -> str:
        try:
            return str(json.loads(payload.decode())["error"])
        except (ValueError, KeyError, TypeError, RecursionError):
            return fallback

    # ------------------------------------------------------------- cache
    def _manifest_path(self, name: str, version: int) -> Path:
        return self.cache_dir / "manifests" / name / f"{version}.json"

    def _blob_cache_path(self, content_hash: str) -> Path:
        return self.cache_dir / "blobs" / content_hash

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        """Write ``payload`` so concurrent writers can never tear ``path``.

        The temp file name must be unique *per writer*: with a fixed
        ``<path>.tmp``, two processes pulling the same version interleave
        — A's ``os.replace`` publishes the tmp inode while B is still
        writing into it, leaving a torn final file.  ``mkstemp`` in the
        destination directory gives each writer its own inode on the
        same filesystem, so every ``os.replace`` publishes a complete
        payload; last writer wins, which is fine for content-addressed
        entries (both wrote identical bytes).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _cache_manifest(self, data: dict) -> None:
        """Store one server manifest dict (with its tombstone field)."""
        try:
            name, version = str(data["name"]), int(data["version"])
        except (KeyError, TypeError, ValueError):
            return  # malformed server response; nothing worth caching
        self._atomic_write(
            self._manifest_path(name, version),
            json.dumps(data, indent=2).encode(),
        )

    def _cached_manifest(self, name: str, version: int) -> dict | None:
        """The cached manifest dict for one version, or ``None``."""
        try:
            return json.loads(self._manifest_path(name, version).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _mark_tombstoned(self, name: str, version: int, reason: str) -> None:
        """Record a learned tombstone so the cache also refuses it."""
        cached = self._cached_manifest(name, version)
        if cached is not None and cached.get("tombstone") != reason:
            cached["tombstone"] = reason
            self._cache_manifest(cached)

    def _cached_versions(self, name: str) -> list[int]:
        manifest_dir = self.cache_dir / "manifests" / name
        if not manifest_dir.is_dir():
            return []
        return sorted(
            int(p.stem)
            for p in manifest_dir.glob("*.json")
            if p.stem.isdigit()
        )

    # ----------------------------------------------------------- resolve
    def resolve(self, ref: str) -> ModelManifest:
        """Resolve a reference against the server (cache on outage)."""
        name, version = parse_ref(ref)  # local validation: identical errors
        try:
            status, payload = self._request(
                "GET", f"/v1/models/{ref}/manifest"
            )
        except OSError:
            return self._resolve_cached(name, version)
        if status == 200:
            data = self._json(payload, f"manifest for {ref!r}")
            self._cache_manifest(data)
            return ModelManifest.from_dict(data)
        message = self._error_text(
            payload, f"registry at {self.base_url} refused {ref!r} ({status})"
        )
        if status == 410:
            if version is not None:
                # Remember the block so offline lookups refuse it too.
                reason = self._reason_from_message(ref, message)
                self._mark_tombstoned(name, version, reason)
                raise TombstoneError(message, reason=reason)
            raise TombstoneError(message)
        raise RegistryError(message)

    @staticmethod
    def _reason_from_message(ref: str, message: str) -> str:
        """Recover the operator reason from the shared tombstone text."""
        prefix = f"{ref} is tombstoned"
        suffix = (
            " (bytes retained; resolve another version or untombstone it)"
        )
        if not (message.startswith(prefix) and message.endswith(suffix)):
            return ""
        core = message[len(prefix):-len(suffix)]
        return core[2:] if core.startswith(": ") else ""

    def _resolve_cached(self, name: str, version: int | None) -> ModelManifest:
        """Offline resolution from cached manifests only."""
        versions = self._cached_versions(name)
        if version is None:
            live = [
                v
                for v in versions
                if (self._cached_manifest(name, v) or {}).get("tombstone")
                is None
                and self._cached_manifest(name, v) is not None
            ]
            if not live:
                raise RegistryError(
                    f"registry at {self.base_url} is unreachable and the "
                    f"cache has no live version of {name!r} "
                    f"(cached: {versions})"
                )
            version = live[-1]
        data = self._cached_manifest(name, version)
        if data is None:
            raise RegistryError(
                f"registry at {self.base_url} is unreachable and "
                f"{name}@{version} is not cached (cached: {versions})"
            )
        reason = data.get("tombstone")
        if reason is not None:
            raise TombstoneError(
                tombstone_message(f"{name}@{version}", str(reason)),
                reason=str(reason),
            )
        return ModelManifest.from_dict(data)

    def latest(self, name: str) -> ModelManifest:
        """Manifest of the newest live version of ``name``."""
        parsed, version = parse_ref(name)
        if version is not None:
            raise RegistryError(f"latest takes a bare name; got {name!r}")
        return self.resolve(parsed)

    def latest_version(self, name: str) -> int:
        """Newest live version number of ``name``."""
        return self.latest(name).version

    # --------------------------------------------------------------- get
    def get(self, ref: str) -> tuple[Artifact, ModelManifest]:
        """Load and hash-verify an artifact, cache-first for pinned refs.

        A pinned reference whose manifest and payload are both cached
        (and not known-tombstoned) is served without any HTTP request;
        everything else resolves against the server, downloading (and
        caching) the payload by content hash.
        """
        name, version = parse_ref(ref)
        manifest: ModelManifest | None = None
        if version is not None:
            cached = self._cached_manifest(name, version)
            if cached is not None:
                reason = cached.get("tombstone")
                if reason is not None:
                    raise TombstoneError(
                        tombstone_message(f"{name}@{version}", str(reason)),
                        reason=str(reason),
                    )
                manifest = ModelManifest.from_dict(cached)
        if manifest is None:
            manifest = self.resolve(ref)
        blob_path = self._blob_cache_path(manifest.content_hash)
        if blob_path.is_file():
            payload = blob_path.read_bytes()
            try:
                return decode_payload(payload, manifest), manifest
            except RegistryError:
                # Cache corruption (not a server problem): drop the entry
                # and fall through to a fresh download.
                blob_path.unlink(missing_ok=True)
        payload = self._download_blob(manifest)
        artifact = decode_payload(payload, manifest)  # canonical errors
        self._atomic_write(blob_path, payload)
        return artifact, manifest

    def blob_path(self, content_hash: str) -> Path:
        """Local path of a blob, pulled through from the upstream on miss.

        The content-addressed read path that makes an :class:`HttpBackend`
        servable by a :class:`~repro.registry.server.RegistryServer` as a
        **read replica**: ``repro registry serve --mirror URL`` wraps an
        ``HttpBackend`` and answers ``GET /v1/blobs/{sha256}`` through
        this.  A cached blob is returned without touching the network;
        a miss downloads from the upstream, verifies the payload hashes
        to ``content_hash``, caches it, and returns the cached path — so
        a fleet of suite runners hits the upstream once per artifact, not
        once per runner.
        """
        import hashlib

        path = self._blob_cache_path(content_hash)
        if path.is_file():
            return path
        try:
            status, payload = self._request("GET", f"/v1/blobs/{content_hash}")
        except OSError as exc:
            raise RegistryError(
                f"registry at {self.base_url} is unreachable and blob "
                f"{content_hash[:12]}... is not cached: {exc}"
            ) from None
        if status != 200:
            raise RegistryError(
                self._error_text(
                    payload,
                    f"registry at {self.base_url} refused blob "
                    f"{content_hash[:12]}... ({status})",
                )
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != content_hash:
            raise RegistryError(
                f"blob {content_hash[:12]}... from {self.base_url} hashes "
                f"to {digest[:12]}...; refusing to cache the corrupt payload"
            )
        self._atomic_write(path, payload)
        return path

    def _download_blob(self, manifest: ModelManifest) -> bytes:
        try:
            status, payload = self._request(
                "GET", f"/v1/blobs/{manifest.content_hash}"
            )
        except OSError as exc:
            raise RegistryError(
                f"registry at {self.base_url} is unreachable and "
                f"{manifest.ref} is not cached: {exc}"
            ) from None
        if status != 200:
            raise RegistryError(
                self._error_text(
                    payload,
                    f"registry at {self.base_url} refused blob "
                    f"{manifest.content_hash[:12]}... ({status})",
                )
            )
        return payload

    # ------------------------------------------------------------- lists
    def names(self) -> list[str]:
        """Distinct model names, from the server (cache on outage)."""
        self.full_list_requests += 1
        try:
            status, payload = self._request("GET", "/v1/models")
        except OSError:
            manifest_root = self.cache_dir / "manifests"
            if not manifest_root.is_dir():
                return []
            return sorted(
                p.name
                for p in manifest_root.iterdir()
                if p.is_dir() and self._cached_versions(p.name)
            )
        if status != 200:
            raise RegistryError(
                self._error_text(
                    payload, f"registry at {self.base_url} refused the "
                    f"model listing ({status})"
                )
            )
        entries = self._entries(self._json(payload, "model listing"))
        return sorted({m.name for m in entries})

    def list(self) -> list[ModelManifest]:
        """Every stored manifest (cache on outage), sorted."""
        return [manifest for manifest, _reason in self.listing()]

    def listing(self) -> list[tuple[ModelManifest, str | None]]:
        """Every stored manifest with its tombstone reason, in one request.

        The server's listing carries each version's ``tombstone`` field,
        so no version needs its own ``/tombstone`` round trip.  On outage
        both come from the cached manifests, as :meth:`tombstone_reason`
        would answer them.
        """
        self.full_list_requests += 1
        try:
            status, payload = self._request("GET", "/v1/models")
        except OSError:
            cached = [
                self._cached_manifest(name, version)
                for name in self.names()  # offline branch: reads the cache
                for version in self._cached_versions(name)
            ]
            return [
                (ModelManifest.from_dict(data), _tombstone_field(data))
                for data in cached
                if data is not None
            ]
        if status != 200:
            raise RegistryError(
                self._error_text(
                    payload, f"registry at {self.base_url} refused the "
                    f"model listing ({status})"
                )
            )
        data = self._json(payload, "model listing")
        manifests = self._entries(data)
        return list(zip(manifests, map(_tombstone_field, data.get("models", []))))

    def _entries(self, data: dict) -> list[ModelManifest]:
        """A listing's manifests, each cached as it arrives."""
        entries = data.get("models", [])
        try:
            manifests = [ModelManifest.from_dict(entry) for entry in entries]
        except (RegistryError, TypeError) as exc:
            raise RegistryError(
                f"registry at {self.base_url} sent a bad model listing: {exc}"
            ) from None
        for entry in entries:
            self._cache_manifest(entry)
        return manifests

    def changed_models(self, cursor: str | None) -> tuple[list[str], str]:
        """Names changed since ``cursor`` plus a fresh cursor.

        Speaks ``GET /v1/models?since=...`` — the server answers with
        only the changed names' manifests (cached here as they arrive),
        the changed-name list (removed names included), and a new
        cursor.  ``cursor=None`` sends the conventional ``0``, which no
        cursor decodes to, so the first call is a full sync.

        A listing without a ``cursor`` raises
        :class:`~repro.registry.local.RegistryError` naming the server.
        Unreachable servers raise ``OSError`` untouched: a change feed
        has no meaningful cache fallback, and pollers just retry next
        tick.
        """
        since = cursor if cursor else "0"
        status, payload = self._request("GET", f"/v1/models?since={since}")
        if status != 200:
            raise RegistryError(
                self._error_text(
                    payload, f"registry at {self.base_url} refused the "
                    f"change listing ({status})"
                )
            )
        data = self._json(payload, "change listing")
        changed = data.get("changed", [])
        if "cursor" not in data or not isinstance(changed, list):
            raise RegistryError(
                f"registry at {self.base_url} sent a change listing without "
                f"a 'cursor' and a 'changed' list"
            )
        self._entries(data)
        return [str(name) for name in changed], str(data["cursor"])

    # -------------------------------------------------------- tombstones
    def tombstone_reason(self, name: str, version: int) -> str | None:
        """Tombstone status of one version (cache on outage)."""
        try:
            status, payload = self._request(
                "GET", f"/v1/models/{name}@{version}/tombstone"
            )
        except OSError:
            cached = self._cached_manifest(name, version)
            return None if cached is None else _tombstone_field(cached)
        if status != 200:
            return None  # unknown version reads as "no tombstone", as local
        data = self._json(payload, f"tombstone status of {name}@{version}")
        reason = data.get("reason")
        if reason is not None:
            self._mark_tombstoned(name, version, str(reason))
            return str(reason)
        return None

    # -------------------------------------------------------------- push
    def push(
        self, name: str, artifact: Artifact, *, created_at: str | None = None
    ) -> ModelManifest:
        """Upload an artifact as the next version of ``name``."""
        parsed, version = parse_ref(name)
        if version is not None:
            raise RegistryError(
                f"push takes a bare name; versions are assigned by the "
                f"registry (got {name!r})"
            )
        try:
            data = artifact_to_dict(artifact)
        except PersistenceError as exc:
            raise RegistryError(f"cannot push {parsed!r}: {exc}") from None
        body: dict = {"name": parsed, "artifact": data}
        if created_at is not None:
            body["created_at"] = created_at
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            status, payload = self._request(
                "POST", "/v1/push",
                body=json.dumps(body).encode(), headers=headers,
            )
        except OSError as exc:
            raise RegistryError(
                f"cannot push {parsed!r}: registry at {self.base_url} is "
                f"unreachable: {exc}"
            ) from None
        if status != 200:
            raise RegistryError(
                self._error_text(
                    payload,
                    f"registry at {self.base_url} refused the push "
                    f"({status})",
                )
            )
        manifest_data = self._json(payload, "push receipt")
        self._cache_manifest(manifest_data)
        return ModelManifest.from_dict(manifest_data)
