"""Read-replica mirroring: serving an HttpBackend as a pull-through cache.

``repro registry serve --mirror URL`` wraps an :class:`HttpBackend` in a
:class:`RegistryServer`.  The replica answers manifest reads from the
upstream and blob reads through :meth:`HttpBackend.blob_path`, which
caches by content hash — so the upstream is hit once per artifact, no
matter how many clients read through the replica.
"""

import http.client
import json

import pytest

from repro.registry import (
    HttpBackend,
    RegistryError,
    RegistryServerThread,
)


@pytest.fixture
def upstream(populated_store):
    """The origin registry server (read-only is fine for replicas)."""
    with RegistryServerThread(populated_store) as handle:
        yield handle


@pytest.fixture
def replica_backend(upstream, tmp_path):
    """An HttpBackend on the upstream, acting as the replica's storage."""
    return HttpBackend(
        f"http://127.0.0.1:{upstream.port}", tmp_path / "replica-cache"
    )


@pytest.fixture
def replica(replica_backend):
    """A live replica server whose backend is the pull-through client."""
    with RegistryServerThread(replica_backend) as handle:
        yield handle


class TestBlobPullThrough:
    def test_miss_pulls_verifies_and_caches(self, replica_backend, populated_store):
        manifest = populated_store.resolve("point@1")
        path = replica_backend.blob_path(manifest.content_hash)
        assert path.is_file()
        assert path.read_bytes() == populated_store.blob_path(
            manifest.content_hash
        ).read_bytes()

    def test_hit_is_served_without_http(self, replica_backend, populated_store):
        manifest = populated_store.resolve("point@1")
        replica_backend.blob_path(manifest.content_hash)
        before = replica_backend.http_requests
        path = replica_backend.blob_path(manifest.content_hash)
        assert replica_backend.http_requests == before
        assert path.is_file()

    def test_unknown_blob_refused(self, replica_backend):
        with pytest.raises(RegistryError, match="unknown blob|refused blob"):
            replica_backend.blob_path("0" * 64)

    def test_unreachable_upstream_with_cold_cache(self, tmp_path):
        backend = HttpBackend(
            "http://127.0.0.1:1", tmp_path / "cache", timeout_s=0.2
        )
        with pytest.raises(RegistryError, match="unreachable"):
            backend.blob_path("0" * 64)


class TestReplicaServing:
    def test_client_reads_through_replica(
        self, replica, populated_store, tmp_path
    ):
        client = HttpBackend(
            f"http://127.0.0.1:{replica.port}", tmp_path / "client-cache"
        )
        artifact, manifest = client.get("point@1")
        want = populated_store.resolve("point@1")
        assert manifest.content_hash == want.content_hash
        assert artifact.is_fitted

    def test_replica_lists_upstream_models(self, replica, tmp_path):
        client = HttpBackend(
            f"http://127.0.0.1:{replica.port}", tmp_path / "client-cache"
        )
        assert set(client.names()) == {"band", "point"}

    def test_second_read_skips_upstream(
        self, replica, replica_backend, populated_store, tmp_path
    ):
        manifest = populated_store.resolve("point@1")
        first = HttpBackend(
            f"http://127.0.0.1:{replica.port}", tmp_path / "c1"
        )
        first.get("point@1")
        upstream_calls = replica_backend.http_requests
        second = HttpBackend(
            f"http://127.0.0.1:{replica.port}", tmp_path / "c2"
        )
        second.get("point@1")
        # The second client's blob read is served from the replica's
        # cache: the replica may re-resolve the manifest upstream, but
        # never re-downloads the blob.
        assert replica_backend.blob_path(manifest.content_hash).is_file()
        assert replica_backend.http_requests <= upstream_calls + 2

    def test_replica_is_read_only(self, replica, tmp_path, populated_store):
        client = HttpBackend(
            f"http://127.0.0.1:{replica.port}",
            tmp_path / "client-cache",
            token="any-token",
        )
        artifact, _ = client.get("point@1")
        with pytest.raises(RegistryError, match="read-only|403|push"):
            client.push("point", artifact)


def _get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read().decode())
    finally:
        conn.close()


class TestReplicaListings:
    """A replica lists its models from the upstream's own listing.

    Each listed manifest carries its tombstone status, and the upstream's
    listing already does, so asking the upstream once per version would
    cost a round trip per version on every listing.
    """

    @pytest.mark.parametrize(
        "path,requests",
        [("/v1/models", 1), ("/v1/models?since=0", 2), ("/v1/models/point", 1)],
        ids=["listing", "change-feed", "model-info"],
    )
    def test_upstream_requests_do_not_grow_with_versions(
        self, store, point_predictor, tmp_path, path, requests
    ):
        for _ in range(5):
            store.push("point", point_predictor)
        store.tombstone("point@3", reason="drifted on e5649")
        seen = []
        with RegistryServerThread(store) as origin:
            backend = HttpBackend(
                f"http://127.0.0.1:{origin.port}", tmp_path / "replica-cache"
            )
            with RegistryServerThread(backend) as replica:
                for more in (0, 3):
                    for _ in range(more):
                        store.push("point", point_predictor)
                    want = _get_json(origin.port, path)
                    before = backend.http_requests
                    got = _get_json(replica.port, path)
                    seen.append(backend.http_requests - before)
                    key = "versions" if "versions" in want else "models"
                    assert got[key] == want[key]
                    reasons = {m["version"]: m["tombstone"] for m in got[key]}
                    assert reasons[3] == "drifted on e5649"
                    assert [v for v, r in reasons.items() if r is not None] == [3]
                    assert len(reasons) == 5 + more
        assert seen == [requests, requests]

    def test_listing_matches_per_version_tombstones(
        self, store, point_predictor, tmp_path
    ):
        """Online and from the cache of a down upstream alike."""
        for _ in range(3):
            store.push("point", point_predictor)
        store.tombstone("point@2", reason="bad fit")
        with RegistryServerThread(store) as origin:
            backend = HttpBackend(
                f"http://127.0.0.1:{origin.port}", tmp_path / "cache",
                timeout_s=0.5,
            )
            online = backend.listing()
        offline = backend.listing()
        want = [(m, store.tombstone_reason(m.name, m.version)) for m in store.list()]
        assert online == want
        assert offline == want
        assert [reason for _m, reason in want] == [None, "bad fit", None]
