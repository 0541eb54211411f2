"""The registry backend protocol.

``repro`` started with one registry: a directory of ``name@version``
artifact dirs (:class:`~repro.registry.local.ModelRegistry`).  Growing a
training box into a fleet means the *consumers* of that registry — the
prediction server's resident-model cache, the CLI, benches — must not
care whether artifacts come from a local directory or a remote artifact
service.  :class:`RegistryBackend` is the seam: the read/resolve/push
surface both :class:`~repro.registry.local.ModelRegistry` and
:class:`~repro.registry.client.HttpBackend` implement.

The protocol is structural (:func:`typing.runtime_checkable`), so any
object with these methods serves; new backends (an object store, a
database) slot in without touching the serving layer.

Semantics every backend must preserve:

* references are ``name`` (floats to the newest *live* version) or
  ``name@version`` (pinned);
* ``get`` verifies the payload's SHA-256 against the manifest and raises
  :class:`~repro.registry.local.RegistryError` on any mismatch or
  corruption, with the shared descriptive messages from
  :func:`~repro.registry.local.decode_payload`;
* tombstoned versions are refused by ``resolve``/``get`` with a
  :class:`~repro.registry.local.TombstoneError` and skipped by bare-name
  resolution — blocking never deletes bytes.

One surface is *optional*: ``changed_models(cursor) -> (names, cursor)``,
the incremental change feed both stock backends implement (the HTTP
backend additionally returns ``None`` when its server predates the
feature).  Consumers discover it with ``getattr``/``hasattr`` and fall
back to ``names()``/``list()`` full scans — it is deliberately absent
from the protocol so minimal third-party backends stay conformant.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .local import Artifact, ModelManifest

__all__ = ["RegistryBackend"]


@runtime_checkable
class RegistryBackend(Protocol):
    """What the serving layer needs from any model registry."""

    def describe(self) -> str:
        """Human-readable backend location (a path or URL), for logs."""
        ...

    def names(self) -> list[str]:
        """Distinct model names with at least one version, sorted."""
        ...

    def list(self) -> list[ModelManifest]:
        """Every stored manifest (tombstoned included), sorted."""
        ...

    def resolve(self, ref: str) -> ModelManifest:
        """``name``/``name@version`` -> manifest; raises ``RegistryError``."""
        ...

    def latest(self, name: str) -> ModelManifest:
        """Manifest of the newest live version of ``name``."""
        ...

    def latest_version(self, name: str) -> int:
        """Newest live version number (may be cached by the backend)."""
        ...

    def get(self, ref: str) -> tuple[Artifact, ModelManifest]:
        """Load and hash-verify an artifact by reference."""
        ...

    def push(
        self, name: str, artifact: Artifact, *, created_at: str | None = None
    ) -> ModelManifest:
        """Store ``artifact`` as the next version of ``name``."""
        ...

    def tombstone_reason(self, name: str, version: int) -> str | None:
        """Tombstone reason for one version, or ``None`` if live."""
        ...
