"""Local registry backend: tombstones, GC, blobs, latest-version cache.

The original push/resolve/get semantics are pinned by
``tests/serve/test_registry.py``; this module covers what the registry
subsystem added on top.
"""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.registry import (
    ModelRegistry,
    RegistryBackend,
    RegistryError,
    TombstoneError,
)


class TestBackendProtocol:
    def test_local_registry_satisfies_protocol(self, store):
        assert isinstance(store, RegistryBackend)

    def test_describe_names_the_root(self, store):
        assert str(store.root) == store.describe()


class _Interrupted(Exception):
    pass


class TestAtomicPush:
    """A version appears with both files or not at all."""

    def test_interrupted_push_leaves_the_store_unchanged(
        self, store, point_predictor, monkeypatch
    ):
        store.push("m", point_predictor)
        before = store.list()
        write_bytes = Path.write_bytes

        def write_then_die(path, data):
            write_bytes(path, data)
            raise _Interrupted(path.name)

        monkeypatch.setattr(Path, "write_bytes", write_then_die)
        with pytest.raises(_Interrupted, match="model.json"):
            store.push("m", point_predictor)
        monkeypatch.undo()
        assert store.resolve("m").version == 1
        assert store.list() == before
        assert store.push("m", point_predictor).version == 2

    def test_leftover_staging_dir_is_invisible(self, store, point_predictor):
        """What a killed push leaves behind is skipped by every reader."""
        store.push("m", point_predictor)
        leftover = store.root / "m" / ".push-1-abc"
        leftover.mkdir()
        (leftover / "model.json").write_text("{}")
        assert store.names() == ["m"]
        assert [m.ref for m in store.list()] == ["m@1"]
        assert store.push("m", point_predictor).version == 2
        assert store.resolve("m").version == 2

    def test_concurrent_pushes_get_distinct_versions(
        self, store, point_predictor, monkeypatch
    ):
        """Eight pushers (more than the cores) read the same version list
        before any publishes, so all first try the same number."""
        store.push("m", point_predictor)
        pushers = 8
        all_read = threading.Barrier(pushers, timeout=10)
        versions = ModelRegistry._versions
        waited: set[int] = set()

        def racing_versions(registry, name):
            found = versions(registry, name)
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                all_read.wait()
            return found

        monkeypatch.setattr(ModelRegistry, "_versions", racing_versions)
        pushed, errors = [], []

        def push():
            try:
                pushed.append(ModelRegistry(store.root).push("m", point_predictor))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=push) for _ in range(pushers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(m.version for m in pushed) == list(range(2, pushers + 2))
        monkeypatch.undo()
        assert [m.version for m in store.list()] == list(range(1, pushers + 2))


class TestTombstones:
    def test_pinned_tombstoned_version_is_refused(self, populated_store):
        populated_store.tombstone("point@2", reason="bad calibration")
        with pytest.raises(TombstoneError, match="bad calibration") as exc:
            populated_store.resolve("point@2")
        assert exc.value.reason == "bad calibration"
        assert "bytes retained" in str(exc.value)
        with pytest.raises(TombstoneError):
            populated_store.get("point@2")

    def test_bare_name_floats_past_tombstone(self, populated_store):
        populated_store.tombstone("point@2", reason="rollback")
        assert populated_store.resolve("point").version == 1
        assert populated_store.latest("point").version == 1
        assert populated_store.latest_version("point") == 1

    def test_all_versions_tombstoned(self, populated_store):
        populated_store.tombstone("point@1")
        populated_store.tombstone("point@2")
        with pytest.raises(TombstoneError, match="every version"):
            populated_store.resolve("point")

    def test_bytes_survive_tombstoning(self, populated_store):
        populated_store.tombstone("point@2")
        assert (populated_store.root / "point" / "2" / "model.json").is_file()

    def test_untombstone_restores_resolution(self, populated_store):
        populated_store.tombstone("point@2")
        assert populated_store.untombstone("point@2") is True
        assert populated_store.resolve("point").version == 2
        assert populated_store.untombstone("point@2") is False

    def test_tombstone_requires_pinned_ref(self, populated_store):
        with pytest.raises(RegistryError, match="explicit name@version"):
            populated_store.tombstone("point")
        with pytest.raises(RegistryError, match="explicit name@version"):
            populated_store.untombstone("point")

    def test_tombstone_unknown_version(self, populated_store):
        with pytest.raises(RegistryError, match="unknown version 9"):
            populated_store.tombstone("point@9")

    def test_unreadable_marker_fails_safe(self, populated_store):
        populated_store.tombstone("point@2")
        marker = populated_store.root / "point" / "2" / "tombstone.json"
        marker.write_text("{not json")
        reason = populated_store.tombstone_reason("point", 2)
        assert reason == "unreadable tombstone marker"
        with pytest.raises(TombstoneError):
            populated_store.resolve("point@2")

    def test_reason_none_for_live_and_unknown(self, populated_store):
        assert populated_store.tombstone_reason("point", 1) is None
        assert populated_store.tombstone_reason("point", 99) is None

    def test_listing_includes_tombstoned(self, populated_store):
        populated_store.tombstone("point@2")
        refs = [m.ref for m in populated_store.list()]
        assert "point@2" in refs


class TestGC:
    def _push_versions(self, store, artifact, n, name="m"):
        for _ in range(n):
            store.push(name, artifact)

    def test_keeps_newest_n(self, store, point_predictor):
        self._push_versions(store, point_predictor, 5)
        report = store.gc(keep=2)
        assert report.removed == ("m@1", "m@2", "m@3")
        assert sorted(store._versions("m")) == [4, 5]
        assert report.bytes_freed > 0
        assert "removed 3 version(s)" in report.summary()

    def test_dry_run_deletes_nothing(self, store, point_predictor):
        self._push_versions(store, point_predictor, 4)
        report = store.gc(keep=1, dry_run=True)
        assert report.dry_run and len(report.removed) == 3
        assert sorted(store._versions("m")) == [1, 2, 3, 4]
        assert "would remove" in report.summary()

    def test_version_numbers_never_reused(self, store, point_predictor):
        self._push_versions(store, point_predictor, 3)
        store.gc(keep=1)
        manifest = store.push("m", point_predictor)
        assert manifest.version == 4  # not 2: the max version survived

    def test_tombstoned_old_versions_are_pruned(self, store, point_predictor):
        self._push_versions(store, point_predictor, 4)
        store.tombstone("m@1", reason="bad")
        report = store.gc(keep=2)
        # live = [2, 3, 4]; cutoff = 3; versions 1 and 2 go.
        assert report.removed == ("m@1", "m@2")

    def test_recent_tombstoned_versions_keep_their_bytes(
        self, store, point_predictor
    ):
        self._push_versions(store, point_predictor, 3)
        store.tombstone("m@3", reason="bad")
        report = store.gc(keep=2)
        # live = [1, 2]; cutoff = 1: nothing is older than the cutoff.
        assert report.removed == ()
        assert (store.root / "m" / "3" / "model.json").is_file()

    def test_fully_tombstoned_name_is_untouched(self, store, point_predictor):
        self._push_versions(store, point_predictor, 2)
        store.tombstone("m@1")
        store.tombstone("m@2")
        report = store.gc(keep=1)
        assert report.removed == ()
        assert sorted(store._versions("m")) == [1, 2]

    def test_keep_must_be_positive(self, store):
        with pytest.raises(RegistryError, match="at least 1"):
            store.gc(keep=0)

    def test_gc_invalidates_latest_cache(self, store, point_predictor):
        self._push_versions(store, point_predictor, 3)
        assert store.latest_version("m") == 3
        store.gc(keep=1)
        assert store._latest_cache == {}
        assert store.latest_version("m") == 3


class TestBlobs:
    def test_blob_roundtrip(self, populated_store):
        manifest = populated_store.resolve("point@1")
        payload = populated_store.open_blob(manifest.content_hash)
        model_path = populated_store.root / "point" / "1" / "model.json"
        assert payload == model_path.read_bytes()

    def test_unknown_hash(self, populated_store):
        with pytest.raises(RegistryError, match="unknown blob"):
            populated_store.blob_path("0" * 64)

    def test_modified_blob_is_refused(self, populated_store):
        manifest = populated_store.resolve("band@1")
        path = populated_store.blob_path(manifest.content_hash)
        path.write_bytes(path.read_bytes() + b" ")
        with pytest.raises(RegistryError, match="modified after push"):
            populated_store.open_blob(manifest.content_hash)

    def test_index_heals_after_gc(self, store, point_predictor, ensemble):
        store.push("m", point_predictor)
        first = store.resolve("m@1")
        store.blob_path(first.content_hash)  # build the index
        store.push("m", ensemble)
        store.gc(keep=1)
        second = store.resolve("m@2")
        assert store.blob_path(second.content_hash).is_file()
        with pytest.raises(RegistryError, match="unknown blob"):
            store.blob_path(first.content_hash)


class TestLatestVersionCache:
    def test_cached_between_calls(self, populated_store):
        assert populated_store.latest_version("point") == 2
        assert "point" in populated_store._latest_cache
        assert populated_store.latest_version("point") == 2

    def test_same_second_push_is_seen(self, store, point_predictor):
        """Regression: two pushes within the directory-mtime granularity.

        The old cache compared only the name directory's mtime_ns, so on
        a coarse-mtime filesystem a second push landing in the same tick
        kept serving the stale version.  The signature now also counts
        versions.
        """
        store.push("m", point_predictor)
        assert store.latest_version("m") == 1
        stat = os.stat(store.root / "m")
        store.push("m", point_predictor)
        # Simulate coarse mtime: the second push leaves mtime unchanged.
        os.utime(store.root / "m", ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert store.latest_version("m") == 2

    def test_tombstone_invalidates_without_mtime_change(
        self, store, point_predictor
    ):
        """Tombstoning writes inside the version dir: the name dir's
        mtime and version count both stay put, so the signature counts
        tombstone markers too."""
        store.push("m", point_predictor)
        store.push("m", point_predictor)
        assert store.latest_version("m") == 2
        stat = os.stat(store.root / "m")
        store.tombstone("m@2", reason="bad")
        os.utime(store.root / "m", ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert store.latest_version("m") == 1
        store.untombstone("m@2")
        os.utime(store.root / "m", ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert store.latest_version("m") == 2

    def test_unknown_name_raises_through_cache(self, store):
        with pytest.raises(RegistryError, match="unknown model"):
            store.latest_version("ghost")


class TestManifestTamper:
    def test_swapped_version_dirs_detected(self, populated_store):
        one = populated_store.root / "point" / "1" / "manifest.json"
        data = json.loads(one.read_text())
        data["version"] = 2
        one.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="tampered"):
            populated_store.manifest("point", 1)
