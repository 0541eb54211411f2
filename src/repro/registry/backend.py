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
  resolution — blocking never deletes bytes;
* ``changed_models(cursor)`` returns ``(names, cursor)``: the names whose
  versions or tombstones changed since ``cursor`` (removed names too)
  and a fresh cursor.  ``None`` or an undecodable cursor means "no prior
  view" and reports every name, so the first call is a full sync.

:func:`call_backend` is how an event loop calls any of these methods, and
:func:`call_listing` how an HTTP handler calls a listing.
"""

from __future__ import annotations

import asyncio
from typing import Protocol, runtime_checkable

from .local import Artifact, ModelManifest, ModelRegistry, RegistryError

__all__ = ["RegistryBackend", "call_backend", "call_listing"]


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

    def listing(self) -> list[tuple[ModelManifest, str | None]]:
        """:meth:`list` with each version's :meth:`tombstone_reason`.

        One read of the store for the whole inventory: a remote backend
        answers it with one request, not one per version.
        """
        ...

    def changed_models(self, cursor: str | None) -> tuple[list[str], str]:
        """Names changed since ``cursor``, plus a fresh cursor."""
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


async def call_backend(backend, fn, *args):
    """``fn(*args)``, a call that reads ``backend``, from an event loop.

    A local :class:`~repro.registry.local.ModelRegistry` reads the local
    filesystem, and its per-request call (``latest_version``) is a stat
    and a cached dict lookup, cheaper than a thread-pool hop, so it runs
    inline.  Any other backend may block on a socket for its whole
    timeout, so it runs in a worker thread and the loop keeps serving.
    """
    if isinstance(backend, ModelRegistry):
        return fn(*args)
    return await asyncio.to_thread(fn, *args)


async def call_listing(backend, fn, *args):
    """:func:`call_backend` for a listing that an HTTP handler answers.

    A registry fault is not the handler's own failure, so it never reads
    as a 500: a registry that cannot be reached answers 503
    ``upstream_unavailable`` and one that answers garbage 502
    ``bad_upstream``, each naming the registry.
    """
    from ..serve.http import HTTPError  # repro.serve imports this module

    try:
        return await call_backend(backend, fn, *args)
    except OSError as exc:
        raise HTTPError(
            503, "upstream_unavailable",
            f"registry {backend.describe()} is unreachable: {exc}",
        ) from None
    except RegistryError as exc:
        raise HTTPError(
            502, "bad_upstream",
            f"registry {backend.describe()} failed the listing: {exc}",
        ) from None
