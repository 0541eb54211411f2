"""The model registry subsystem: local store, HTTP service, cached client.

Layout:

* :mod:`repro.registry.local` — the versioned on-disk store
  (:class:`ModelRegistry`) with integrity hashing, tombstones, and GC;
* :mod:`repro.registry.backend` — the :class:`RegistryBackend` protocol
  every backend implements;
* :mod:`repro.registry.server` — :class:`RegistryServer`, the HTTP
  artifact service (manifests, content-addressed blobs, authenticated
  push);
* :mod:`repro.registry.client` — :class:`HttpBackend`, the remote
  backend with a local content-addressed cache and outage fallback.
"""

from .backend import RegistryBackend
from .client import HttpBackend
from .local import (
    GCReport,
    ModelManifest,
    ModelRegistry,
    RegistryError,
    TombstoneError,
    decode_payload,
    parse_ref,
    tombstone_message,
    verify_payload,
)
from .server import RegistryServer, RegistryServerThread

__all__ = [
    "GCReport",
    "HttpBackend",
    "ModelManifest",
    "ModelRegistry",
    "RegistryBackend",
    "RegistryError",
    "RegistryServer",
    "RegistryServerThread",
    "TombstoneError",
    "decode_payload",
    "parse_ref",
    "tombstone_message",
    "verify_payload",
]
