"""Versioned on-disk model registry — the local registry backend.

A resource manager retrains as new co-location observations arrive; the
serving layer must be able to roll forward (and back) between model
versions without ambiguity about *which* artifact produced a prediction.
The registry stores each pushed artifact under ``<root>/<name>/<version>/``
as two files:

* ``model.json`` — the artifact, in the
  :mod:`~repro.core.persistence` JSON format (version-2: single
  predictors and bootstrap ensembles);
* ``manifest.json`` — provenance: the SHA-256 of the model bytes,
  artifact/model kind, feature set, processor, training-set size, and
  creation time.

Versions are integers assigned by ``push`` (1, 2, ...); ``name@version``
references are resolved by ``get``; a bare ``name`` means the latest
version.  Every load re-hashes the payload and rejects tampered or
corrupted artifacts with a descriptive :class:`RegistryError` — the
registry may live on shared storage, and a scheduler acting on a silently
corrupted model is worse than one that fails loudly.

Two retention mechanisms complete the lifecycle:

* **Tombstones** (:meth:`ModelRegistry.tombstone`) mark a version as bad
  without deleting its bytes: ``resolve``/``get`` refuse it with a
  :class:`TombstoneError`, and a bare name floats to the newest version
  that is *not* tombstoned.  A rollback is ``untombstone``.
* **GC** (:meth:`ModelRegistry.gc`) prunes old versions, keeping the
  newest ``keep`` live versions per name.  Versions newer than the oldest
  kept one are never removed (so tombstoned-but-recent versions keep
  their bytes, and version numbers are never reused).

For pollers (hot-reloading prediction servers), the registry exposes a
**change cursor** (:meth:`ModelRegistry.change_cursor` /
:meth:`ModelRegistry.changed_models`): an opaque token capturing every
name's cheap directory signature, so one call reports exactly which
names changed since the last poll — O(changes) wire traffic instead of a
full listing per tick.

:class:`ModelRegistry` is also the reference implementation of the
:class:`~repro.registry.backend.RegistryBackend` protocol;
:class:`~repro.registry.client.HttpBackend` speaks the same protocol
against a remote :class:`~repro.registry.server.RegistryServer`.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from ..core.ensemble import EnsemblePredictor
from ..core.methodology import PerformancePredictor
from ..core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    artifact_from_dict,
    artifact_to_dict,
)

__all__ = [
    "GCReport",
    "ModelManifest",
    "ModelRegistry",
    "RegistryError",
    "TombstoneError",
    "parse_ref",
    "decode_payload",
    "decode_change_cursor",
    "encode_change_cursor",
    "tombstone_message",
    "verify_payload",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_TOMBSTONE_FILE = "tombstone.json"

Artifact = PerformancePredictor | EnsemblePredictor


class RegistryError(ValueError):
    """Raised for unknown references, tampered or corrupted artifacts."""


class TombstoneError(RegistryError):
    """Raised when a reference resolves to a tombstoned version.

    The bytes are still on disk (tombstones block, they don't delete);
    ``reason`` carries the operator-supplied explanation.
    """

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


def parse_ref(ref: str) -> tuple[str, int | None]:
    """Split ``name`` or ``name@version`` into its parts."""
    name, sep, version = ref.partition("@")
    if not _NAME_RE.match(name):
        raise RegistryError(
            f"invalid model name {name!r}; use letters, digits, '.', "
            f"'_', '-' (must start alphanumeric)"
        )
    if not sep:
        return name, None
    try:
        number = int(version)
    except ValueError:
        raise RegistryError(
            f"invalid version {version!r} in reference {ref!r}; "
            f"expected an integer"
        ) from None
    if number < 1:
        raise RegistryError(f"versions start at 1; got {number}")
    return name, number


def tombstone_message(ref: str, reason: str) -> str:
    """The canonical refusal message for a tombstoned reference.

    Shared by the local backend, the registry server, and the HTTP
    backend so a tombstoned version is refused with identical wording
    whichever path the reference takes.
    """
    detail = f": {reason}" if reason else ""
    return (
        f"{ref} is tombstoned{detail} (bytes retained; resolve another "
        f"version or untombstone it)"
    )


def encode_change_cursor(signatures: dict[str, str]) -> str:
    """Encode a ``name -> signature`` map as an opaque change cursor.

    URL-safe base64 (padding stripped) over canonical JSON, so the
    cursor travels unescaped in a ``?since=`` query parameter and two
    registries with identical contents produce identical cursors.
    """
    raw = json.dumps(signatures, sort_keys=True, separators=(",", ":"))
    return base64.urlsafe_b64encode(raw.encode()).decode().rstrip("=")


def decode_change_cursor(cursor: str) -> dict[str, str] | None:
    """Decode a change cursor back to its signature map.

    Returns ``None`` for anything that does not decode to a string
    map — an unknown, truncated, foreign or hostile cursor (JSON nested
    past the parser's recursion limit included) means the caller's view
    is unusable and every model must be treated as changed.
    """
    padded = cursor + "=" * (-len(cursor) % 4)
    try:
        data = json.loads(base64.urlsafe_b64decode(padded.encode()))
    except (ValueError, TypeError, RecursionError):
        return None
    if not isinstance(data, dict) or not all(
        isinstance(sig, str) for sig in data.values()
    ):
        return None
    return data


@dataclass(frozen=True)
class ModelManifest:
    """Provenance record stored next to each registered artifact."""

    name: str
    version: int
    artifact: str            # "predictor" | "ensemble"
    kind: str                # "linear" | "neural"
    feature_set: str         # "A".."F"
    processor_name: str | None
    content_hash: str        # sha256 hex of model.json bytes
    format_version: int
    train_size: int | None
    created_at: str          # ISO-8601 UTC

    @property
    def ref(self) -> str:
        """The canonical ``name@version`` reference."""
        return f"{self.name}@{self.version}"

    def to_dict(self) -> dict:
        """JSON-ready manifest payload."""
        return {
            "name": self.name,
            "version": self.version,
            "artifact": self.artifact,
            "kind": self.kind,
            "feature_set": self.feature_set,
            "processor_name": self.processor_name,
            "content_hash": self.content_hash,
            "format_version": self.format_version,
            "train_size": self.train_size,
            "created_at": self.created_at,
        }

    @staticmethod
    def from_dict(data: dict) -> "ModelManifest":
        """Rebuild a manifest, rejecting malformed payloads."""
        try:
            return ModelManifest(
                name=str(data["name"]),
                version=int(data["version"]),
                artifact=str(data["artifact"]),
                kind=str(data["kind"]),
                feature_set=str(data["feature_set"]),
                processor_name=(
                    str(data["processor_name"])
                    if data.get("processor_name") is not None
                    else None
                ),
                content_hash=str(data["content_hash"]),
                format_version=int(data["format_version"]),
                train_size=(
                    int(data["train_size"])
                    if data.get("train_size") is not None
                    else None
                ),
                created_at=str(data["created_at"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed manifest: {exc}") from None


@dataclass(frozen=True)
class GCReport:
    """What one :meth:`ModelRegistry.gc` pass removed (or would remove)."""

    keep: int
    removed: tuple[str, ...] = ()    # refs whose bytes were deleted
    kept: tuple[str, ...] = ()       # refs retained
    bytes_freed: int = 0
    dry_run: bool = False

    def summary(self) -> str:
        """One-line human-readable report."""
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"gc(keep={self.keep}): {verb} {len(self.removed)} version(s), "
            f"{self.bytes_freed} bytes; {len(self.kept)} kept"
        )


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def verify_payload(payload: bytes, manifest: ModelManifest) -> None:
    """Check payload bytes against the manifest's content hash.

    Shared by the local and HTTP backends so a tampered artifact is
    refused with identical wording wherever it is loaded from.
    """
    digest = _sha256(payload)
    if digest != manifest.content_hash:
        raise RegistryError(
            f"content hash mismatch for {manifest.ref}: manifest "
            f"records {manifest.content_hash[:12]}... but model.json "
            f"hashes to {digest[:12]}...; the artifact was modified "
            f"after push"
        )


def decode_payload(payload: bytes, manifest: ModelManifest) -> Artifact:
    """Verified payload bytes -> artifact, with descriptive failures.

    Performs the hash check (:func:`verify_payload`) and then decodes,
    so both backends reject tampering and corruption identically.
    """
    verify_payload(payload, manifest)
    try:
        return artifact_from_dict(json.loads(payload.decode()))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RegistryError(
            f"corrupted payload for {manifest.ref}: not valid JSON "
            f"({exc})"
        ) from None
    except PersistenceError as exc:
        raise RegistryError(
            f"corrupted payload for {manifest.ref}: {exc}"
        ) from None


class ModelRegistry:
    """Push, list, and integrity-checked retrieval of trained artifacts.

    The registry directory is created lazily on the first ``push``; a
    missing or empty directory reads as an empty registry.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # Bare-name -> (signature, version) latest cache; see
        # latest_version() for what goes into the signature.
        self._latest_cache: dict[str, tuple[tuple[int, int, int], int]] = {}
        # content hash -> (name, version) for blob lookups.
        self._blob_index: dict[str, tuple[str, int]] = {}

    def describe(self) -> str:
        """Human-readable backend location (for logs and errors)."""
        return str(self.root)

    # ------------------------------------------------------------ refs
    def _dir(self, name: str, version: int) -> Path:
        return self.root / name / str(version)

    def _versions(self, name: str) -> list[int]:
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        return sorted(
            int(p.name)
            for p in model_dir.iterdir()
            if p.is_dir() and p.name.isdigit()
        )

    def _live_versions(self, name: str) -> list[int]:
        """Versions of ``name`` that are not tombstoned, sorted."""
        return [
            v
            for v in self._versions(name)
            if self.tombstone_reason(name, v) is None
        ]

    def names(self) -> list[str]:
        """Distinct model names with at least one version, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and self._versions(p.name)
        )

    # ------------------------------------------------------------ push
    def push(
        self,
        name: str,
        artifact: Artifact,
        *,
        created_at: str | None = None,
    ) -> ModelManifest:
        """Store a fitted artifact as the next version of ``name``.

        Returns the written manifest.  The artifact's JSON bytes are
        hashed at push time; every later load re-verifies that hash.

        A version appears whole or not at all: both files are written
        into a staging directory under ``<name>/`` (its name is not a
        number, so no reader sees it) that one ``os.rename`` publishes.
        If a concurrent push took the version number first, the rename
        fails and the next number is tried.
        """
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
        payload = json.dumps(data, indent=2).encode()
        manifest = ModelManifest(
            name=parsed,
            version=0,  # assigned below
            artifact=data["artifact"],
            kind=data["kind"],
            feature_set=data["feature_set"],
            processor_name=data.get("processor_name"),
            content_hash=_sha256(payload),
            format_version=FORMAT_VERSION,
            train_size=data.get("train_size"),
            created_at=created_at
            or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        staging = self.root / parsed / f".push-{os.getpid()}-{os.urandom(6).hex()}"
        staging.mkdir(parents=True)
        try:
            (staging / "model.json").write_bytes(payload)
            while True:
                versions = self._versions(parsed)
                manifest = replace(
                    manifest, version=(versions[-1] + 1) if versions else 1
                )
                (staging / "manifest.json").write_text(
                    json.dumps(manifest.to_dict(), indent=2)
                )
                target = self._dir(parsed, manifest.version)
                try:
                    os.rename(staging, target)
                except OSError:
                    if not target.exists():
                        raise
                    continue  # a concurrent push published this version
                return manifest
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    # ------------------------------------------------------------- get
    def resolve(self, ref: str) -> ModelManifest:
        """Resolve ``name`` / ``name@version`` to a stored manifest.

        Bare names float to the newest version that is not tombstoned;
        a pinned tombstoned version raises :class:`TombstoneError`.
        """
        name, version = parse_ref(ref)
        versions = self._versions(name)
        if not versions:
            known = self.names()
            detail = (
                f"registry at {self.root} has models {known}"
                if known
                else f"registry at {self.root} is empty"
            )
            raise RegistryError(f"unknown model {name!r}: {detail}")
        if version is None:
            live = self._live_versions(name)
            if not live:
                raise TombstoneError(
                    f"every version of {name!r} is tombstoned; "
                    f"available (blocked): {versions}",
                )
            version = live[-1]
        elif version not in versions:
            raise RegistryError(
                f"unknown version {version} of {name!r}; available: "
                f"{versions}"
            )
        else:
            reason = self.tombstone_reason(name, version)
            if reason is not None:
                raise TombstoneError(
                    tombstone_message(f"{name}@{version}", reason),
                    reason=reason,
                )
        return self.manifest(name, version)

    def manifest(self, name: str, version: int) -> ModelManifest:
        """Read one stored manifest (no payload verification)."""
        path = self._dir(name, version) / "manifest.json"
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise RegistryError(
                f"missing manifest for {name}@{version} under {self.root}"
            ) from None
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"manifest for {name}@{version} is not valid JSON: {exc}"
            ) from None
        manifest = ModelManifest.from_dict(data)
        if manifest.name != name or manifest.version != version:
            raise RegistryError(
                f"manifest under {name}@{version} claims to be "
                f"{manifest.ref}; registry layout was tampered with"
            )
        return manifest

    def latest(self, name: str) -> ModelManifest:
        """Manifest of the newest (non-tombstoned) version of ``name``."""
        return self.resolve(name)

    def _signature(self, name: str) -> tuple[int, int, int] | None:
        """Cheap change signature for one name directory.

        ``(dir mtime_ns, version count, tombstone count)``: a push adds a
        version dir (bumps mtime *and* count — the count catches pushes
        landing within the filesystem's mtime granularity), and a
        tombstone/untombstone changes the marker count without touching
        the name dir at all.
        """
        model_dir = self.root / name
        try:
            mtime_ns = os.stat(model_dir).st_mtime_ns
        except OSError:
            return None
        versions = self._versions(name)
        tombstones = sum(
            1
            for v in versions
            if (self._dir(name, v) / _TOMBSTONE_FILE).exists()
        )
        return (mtime_ns, len(versions), tombstones)

    def latest_version(self, name: str) -> int:
        """Latest live version of ``name``, cached against a directory
        signature so repeated per-request resolution skips manifest reads.

        The cache is keyed on ``(mtime_ns, version count, tombstone
        count)`` — comparing the counts as well as the mtime means a push
        from another process is seen even when two pushes land within the
        directory mtime granularity (coarse-mtime filesystems).
        """
        signature = self._signature(name)
        if signature is None:
            self._latest_cache.pop(name, None)
            return self.resolve(name).version  # raises RegistryError
        cached = self._latest_cache.get(name)
        if cached is not None and cached[0] == signature:
            return cached[1]
        version = self.resolve(name).version
        self._latest_cache[name] = (signature, version)
        return version

    # ---------------------------------------------------- change cursor
    def _signature_map(self) -> dict[str, str]:
        """Compact ``name -> signature`` map over every stored name."""
        signatures: dict[str, str] = {}
        for name in self.names():
            signature = self._signature(name)
            if signature is not None:
                signatures[name] = ":".join(str(part) for part in signature)
        return signatures

    def change_cursor(self) -> str:
        """Opaque cursor capturing the store's current change state.

        Feed it back to :meth:`changed_models` to learn which names have
        changed since — a push, tombstone, untombstone, GC, or removal
        all bump a name's signature (see :meth:`_signature`).
        """
        return encode_change_cursor(self._signature_map())

    def changed_models(self, cursor: str | None) -> tuple[list[str], str]:
        """Names changed since ``cursor``, plus a fresh cursor.

        ``None`` (or an undecodable cursor, e.g. from a different store
        generation) means "no prior view": every stored name is reported
        as changed, which makes the first call a full sync.  Names that
        disappeared since the cursor (GC removed the last version) are
        reported as changed too, so consumers can drop stale state.
        """
        signatures = self._signature_map()
        new_cursor = encode_change_cursor(signatures)
        old = decode_change_cursor(cursor) if cursor else None
        if old is None:
            return sorted(signatures), new_cursor
        changed = {
            name
            for name, signature in signatures.items()
            if old.get(name) != signature
        }
        changed |= set(old) - set(signatures)
        return sorted(changed), new_cursor

    def get(self, ref: str) -> tuple[Artifact, ModelManifest]:
        """Load an artifact by reference, verifying its content hash.

        Returns ``(artifact, manifest)``.  Raises :class:`RegistryError`
        for unknown references, hash mismatches (tampering), and
        corrupted payloads; :class:`TombstoneError` for blocked versions.
        """
        manifest = self.resolve(ref)
        path = self._dir(manifest.name, manifest.version) / "model.json"
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise RegistryError(
                f"missing model payload for {manifest.ref} under {self.root}"
            ) from None
        return decode_payload(payload, manifest), manifest

    # ------------------------------------------------------------ blobs
    def blob_path(self, content_hash: str) -> Path:
        """Path of the payload whose sha256 is ``content_hash``.

        The content-addressed view of the registry: the HTTP server
        serves ``GET /v1/blobs/{sha256}`` through this.  The index is
        rebuilt lazily from manifests when a hash is unknown or stale.
        """
        located = self._blob_index.get(content_hash)
        if located is not None:
            path = self._dir(*located) / "model.json"
            if path.is_file():
                return path
            self._blob_index.pop(content_hash, None)
        for name in self.names():
            for version in self._versions(name):
                try:
                    manifest = self.manifest(name, version)
                except RegistryError:
                    continue
                self._blob_index[manifest.content_hash] = (name, version)
        located = self._blob_index.get(content_hash)
        if located is None:
            raise RegistryError(
                f"unknown blob {content_hash[:12]}...: no registered "
                f"version has that content hash"
            )
        return self._dir(*located) / "model.json"

    def open_blob(self, content_hash: str) -> bytes:
        """Payload bytes by content hash, re-verified on read."""
        path = self.blob_path(content_hash)
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise RegistryError(
                f"cannot read blob {content_hash[:12]}...: {exc}"
            ) from None
        digest = _sha256(payload)
        if digest != content_hash:
            raise RegistryError(
                f"blob {content_hash[:12]}... hashes to {digest[:12]}...; "
                f"the stored payload was modified after push"
            )
        return payload

    # ------------------------------------------------------- tombstones
    def tombstone_reason(self, name: str, version: int) -> str | None:
        """The tombstone reason for ``name@version``, or ``None`` if live."""
        path = self._dir(name, version) / _TOMBSTONE_FILE
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            # An unreadable marker still blocks: fail safe.
            return "unreadable tombstone marker"
        return str(data.get("reason", ""))

    def tombstone(
        self,
        ref: str,
        *,
        reason: str = "",
        created_at: str | None = None,
    ) -> None:
        """Block ``name@version`` everywhere without deleting its bytes.

        ``resolve``/``get`` refuse the version afterwards and bare names
        float past it.  Requires an explicit version (tombstoning "the
        latest" silently would invite racing a concurrent push).
        """
        name, version = parse_ref(ref)
        if version is None:
            raise RegistryError(
                f"tombstone takes an explicit name@version (got {ref!r})"
            )
        if version not in self._versions(name):
            raise RegistryError(
                f"cannot tombstone unknown version {version} of {name!r}; "
                f"available: {self._versions(name)}"
            )
        marker = {
            "ref": f"{name}@{version}",
            "reason": reason,
            "created_at": created_at
            or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        (self._dir(name, version) / _TOMBSTONE_FILE).write_text(
            json.dumps(marker, indent=2)
        )

    def untombstone(self, ref: str) -> bool:
        """Lift a tombstone; returns whether a marker was removed."""
        name, version = parse_ref(ref)
        if version is None:
            raise RegistryError(
                f"untombstone takes an explicit name@version (got {ref!r})"
            )
        path = self._dir(name, version) / _TOMBSTONE_FILE
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    # --------------------------------------------------------------- gc
    def gc(self, keep: int, *, dry_run: bool = False) -> GCReport:
        """Prune old versions, keeping the newest ``keep`` live versions.

        Per name, the cutoff is the ``keep``-th newest non-tombstoned
        version; every version strictly older is deleted (tombstoned or
        not).  Versions at or above the cutoff are never touched, so the
        highest version number always survives and numbers are never
        reused by a later push.  Names with no live versions are left
        alone (everything is blocked; deleting would destroy the only
        rollback evidence).
        """
        if keep < 1:
            raise RegistryError(f"gc keeps at least 1 version; got {keep}")
        removed: list[str] = []
        kept: list[str] = []
        bytes_freed = 0
        for name in self.names():
            versions = self._versions(name)
            live = self._live_versions(name)
            if not live:
                kept.extend(f"{name}@{v}" for v in versions)
                continue
            cutoff = live[-keep] if len(live) >= keep else live[0]
            for version in versions:
                ref = f"{name}@{version}"
                if version >= cutoff:
                    kept.append(ref)
                    continue
                target = self._dir(name, version)
                size = sum(
                    p.stat().st_size for p in target.iterdir() if p.is_file()
                )
                bytes_freed += size
                removed.append(ref)
                if not dry_run:
                    for p in target.iterdir():
                        p.unlink()
                    target.rmdir()
        if removed and not dry_run:
            self._blob_index.clear()
            self._latest_cache.clear()
        return GCReport(
            keep=keep,
            removed=tuple(removed),
            kept=tuple(kept),
            bytes_freed=bytes_freed,
            dry_run=dry_run,
        )

    # ------------------------------------------------------------ list
    def list(self) -> list[ModelManifest]:
        """Every stored manifest, sorted by (name, version).

        Includes tombstoned versions — listing is inventory, not
        resolution; check :meth:`tombstone_reason` for status.
        """
        return [
            self.manifest(name, version)
            for name in self.names()
            for version in self._versions(name)
        ]

    def listing(self) -> list[tuple[ModelManifest, str | None]]:
        """Every stored manifest with its tombstone reason (``None`` if live)."""
        return [(m, self.tombstone_reason(m.name, m.version)) for m in self.list()]
