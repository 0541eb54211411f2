"""Change cursor: incremental sync for pollers, end to end.

``GET /v1/models?since=<cursor>`` returns only what changed since the
cursor (O(changes), not O(models)); a listing without a ``cursor`` is a
protocol error the client names, and no ``since=`` text causes a 500.
"""

import base64
import json
import urllib.request
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

from repro.registry import HttpBackend, ModelRegistry, RegistryServerThread
from repro.registry.local import decode_change_cursor, encode_change_cursor

from .conftest import PUSH_TOKEN


class TestCursorCodec:
    def test_round_trip(self):
        signatures = {"point": "1:2:0", "band": "9:1:1"}
        assert decode_change_cursor(encode_change_cursor(signatures)) == (
            signatures
        )

    def test_garbage_decodes_to_none(self):
        assert decode_change_cursor("0") is None
        assert decode_change_cursor("not base64 at all!") is None
        # Valid base64 ("[1]"), but not a JSON object.
        assert decode_change_cursor("WzFd") is None

    def test_hostile_cursors_decode_to_none(self):
        # JSON nested past the parser's recursion limit ...
        deep = base64.urlsafe_b64encode(b"[" * 5000).decode()
        assert decode_change_cursor(deep) is None
        # ... and objects whose values are not signature strings.
        for data in ({"point": 1}, {"point": ["1:2:0"]}, {"point": None}):
            raw = json.dumps(data).encode()
            assert decode_change_cursor(base64.urlsafe_b64encode(raw).decode()) is None

    def test_url_safe(self):
        cursor = encode_change_cursor({"a" * 40: "1:2:3"})
        assert all(c.isalnum() or c in "-_" for c in cursor)


class TestLocalChangedModels:
    def test_initial_call_reports_everything(self, populated_store):
        changed, cursor = populated_store.changed_models(None)
        assert changed == ["band", "point"]
        assert cursor == populated_store.change_cursor()

    def test_quiet_store_reports_nothing(self, populated_store):
        _, cursor = populated_store.changed_models(None)
        changed, again = populated_store.changed_models(cursor)
        assert changed == []
        assert again == cursor

    def test_push_changes_one_name(self, populated_store, other_predictor):
        _, cursor = populated_store.changed_models(None)
        populated_store.push("band", other_predictor)
        changed, _ = populated_store.changed_models(cursor)
        assert changed == ["band"]

    def test_tombstone_and_rollback_both_change(self, populated_store):
        _, cursor = populated_store.changed_models(None)
        populated_store.tombstone("point@1", reason="drift")
        changed, cursor = populated_store.changed_models(cursor)
        assert "point" in changed
        populated_store.untombstone("point@1")
        changed, _ = populated_store.changed_models(cursor)
        assert "point" in changed

    def test_invalid_cursor_degrades_to_full_sync(self, populated_store):
        changed, _ = populated_store.changed_models("0")
        assert changed == ["band", "point"]

    def test_removed_name_is_reported(self, store, point_predictor):
        import shutil

        store.push("doomed", point_predictor)
        _, cursor = store.changed_models(None)
        shutil.rmtree(store.root / "doomed")
        changed, _ = store.changed_models(cursor)
        assert changed == ["doomed"]


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}"
    ) as response:
        return json.loads(response.read().decode())


class TestServerSinceParam:
    def test_plain_listing_is_unchanged(self, registry_server):
        body = _get(registry_server.port, "/v1/models")
        assert "cursor" not in body
        assert len(body["models"]) == 3

    def test_since_zero_is_a_full_sync_with_cursor(self, registry_server):
        body = _get(registry_server.port, "/v1/models?since=0")
        assert body["changed"] == ["band", "point"]
        assert len(body["models"]) == 3
        assert isinstance(body["cursor"], str)

    def test_incremental_listing_carries_only_changes(
        self, registry_server, populated_store, other_predictor
    ):
        cursor = _get(registry_server.port, "/v1/models?since=0")["cursor"]
        body = _get(registry_server.port, f"/v1/models?since={cursor}")
        assert body == {"models": [], "changed": [], "cursor": cursor}
        populated_store.push("band", other_predictor)
        body = _get(registry_server.port, f"/v1/models?since={cursor}")
        assert body["changed"] == ["band"]
        assert {m["name"] for m in body["models"]} == {"band"}
        assert body["cursor"] != cursor


@pytest.fixture(scope="module")
def since_server(tmp_path_factory, point_predictor):
    store = ModelRegistry(tmp_path_factory.mktemp("since") / "store")
    store.push("point", point_predictor)
    with RegistryServerThread(store) as handle:
        yield handle


def _assert_full_sync(port, since):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/models?since={quote(since, safe='')}"
    ) as response:
        assert response.status == 200
        body = json.loads(response.read().decode())
    assert set(body) == {"models", "changed", "cursor"}
    assert "point" in body["changed"]


class TestHostileSince:
    """No ``since=`` text causes a 500: an unusable cursor is a full sync.

    (An empty ``since=`` reads as no ``since`` at all: a plain listing.)
    """

    def test_deeply_nested_cursor(self, since_server):
        deep = base64.urlsafe_b64encode(b"[" * 5000).decode()
        _assert_full_sync(since_server.port, deep)

    @settings(max_examples=200, deadline=None)
    @given(
        since=st.text(
            st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=300
        )
    )
    def test_any_text(self, since_server, since):
        _assert_full_sync(since_server.port, since)

    @settings(max_examples=100, deadline=None)
    @given(data=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    ))
    def test_any_json_cursor(self, since_server, data):
        raw = json.dumps(data).encode()
        cursor = base64.urlsafe_b64encode(raw).decode().rstrip("=")
        _assert_full_sync(since_server.port, cursor)


class TestHttpBackendChangedModels:
    @pytest.fixture
    def remote(self, registry_server, cache_dir):
        return HttpBackend(
            f"http://127.0.0.1:{registry_server.port}",
            cache_dir,
            token=PUSH_TOKEN,
        )

    def test_sync_then_incremental(
        self, remote, populated_store, other_predictor
    ):
        changed, cursor = remote.changed_models(None)
        assert changed == ["band", "point"]
        assert remote.changed_models(cursor) == ([], cursor)
        populated_store.push("point", other_predictor)
        changed, _ = remote.changed_models(cursor)
        assert changed == ["point"]

    def test_manifests_land_in_the_cache(self, remote):
        remote.changed_models(None)
        # All three manifests arrived with the initial sync — resolving
        # a pinned version now needs no further listing.
        assert remote._cached_manifest("point", 2) is not None
        assert remote._cached_manifest("band", 1) is not None

    def test_never_counts_as_a_full_listing(self, remote):
        _, cursor = remote.changed_models(None)
        remote.changed_models(cursor)
        assert remote.full_list_requests == 0
        remote.names()
        assert remote.full_list_requests == 1
