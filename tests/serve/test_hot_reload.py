"""Hot-reload: the server notices new pushes and tombstones, no restart.

A polling task pre-warms newly pushed latest versions into the
resident-model LRU (so the first request after a push pays no artifact
load) and evicts residents whose version was tombstoned.

Also pins the shutdown ordering: a poll in flight when ``stop()`` is
called must finish its current backend call, then *discard* its work —
never install a model or touch the backend again after the drain has
begun (cancelling the task alone leaves its ``asyncio.to_thread`` call
running in an abandoned executor thread).
"""

import threading
import time

import pytest

from repro.serve.client import PredictionClient
from repro.serve.server import ServerThread


def _wait_until(predicate, timeout_s=5.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def reloading_server(populated_registry):
    with ServerThread(
        populated_registry, max_wait_ms=1.0, hot_reload_s=0.05
    ) as handle:
        yield handle


@pytest.fixture
def client(reloading_server):
    with PredictionClient("127.0.0.1", reloading_server.port) as c:
        yield c


def _metric(client, name):
    return client.metrics().get(name, 0.0)


class TestPrewarm:
    def test_initial_poll_prewarms_every_model(self, client):
        assert _wait_until(
            lambda: _metric(client, "repro_serve_hot_reload_loads_total")
            >= 2.0
        )
        # Both models are resident before any /v1/predict arrived, so the
        # first prediction is a cache hit, not a miss.
        assert _metric(client, "repro_serve_model_cache_misses_total") == 0.0

    def test_new_push_is_picked_up_without_restart(
        self, client, populated_registry, other_predictor, feature_dicts
    ):
        _wait_until(
            lambda: _metric(client, "repro_serve_hot_reload_loads_total")
            >= 2.0
        )
        populated_registry.push("point", other_predictor)  # point@2
        assert _wait_until(
            lambda: _metric(client, "repro_serve_hot_reload_loads_total")
            >= 3.0
        )
        misses_before = _metric(
            client, "repro_serve_model_cache_misses_total"
        )
        body = client.predict(feature_dicts[0], model="point")
        assert body["model"] == "point@2"
        # The poller already loaded point@2: serving it cost no miss.
        assert (
            _metric(client, "repro_serve_model_cache_misses_total")
            == misses_before
        )


class TestTombstoneEviction:
    def test_tombstoned_resident_is_evicted(
        self, client, populated_registry, feature_dicts
    ):
        _wait_until(
            lambda: _metric(client, "repro_serve_hot_reload_loads_total")
            >= 2.0
        )
        populated_registry.tombstone("band@1", reason="drift")
        assert _wait_until(
            lambda: _metric(
                client, "repro_serve_hot_reload_evictions_total"
            )
            >= 1.0
        )
        # The evicted version is now refused end to end.
        from repro.serve.client import ClientError

        with pytest.raises(ClientError) as excinfo:
            client.predict(feature_dicts[0], model="band@1")
        assert excinfo.value.status == 404
        assert "tombstoned" in str(excinfo.value)

    def test_bare_name_floats_to_surviving_version(
        self, client, populated_registry, other_predictor, feature_dicts
    ):
        # Let the initial prewarm finish first, so point@1 is resident
        # before point@2 supersedes it as the latest.
        assert _wait_until(
            lambda: _metric(client, "repro_serve_hot_reload_loads_total")
            >= 2.0
        )
        populated_registry.push("point", other_predictor)  # point@2
        assert _wait_until(
            lambda: _metric(client, "repro_serve_hot_reload_loads_total")
            >= 3.0
        )
        assert (
            client.predict(feature_dicts[0], model="point")["model"]
            == "point@2"
        )
        populated_registry.tombstone("point@2", reason="rollback")
        assert _wait_until(
            lambda: _metric(
                client, "repro_serve_hot_reload_evictions_total"
            )
            >= 1.0
        )
        body = client.predict(feature_dicts[0], model="point")
        assert body["model"] == "point@1"


class _MidPollBackend:
    """A backend whose first poll call blocks until the test releases it.

    Not a ``ModelRegistry`` subclass, so the server resolves it via
    ``asyncio.to_thread`` — exactly the code path where a cancelled poll
    keeps running in its executor thread.  Both entry points a poll may
    start with are gated (``changed_models`` on the cursor path,
    ``names()`` on the full-scan fallback), and every call after the
    gate opens is recorded, so the test can prove the poll discarded its
    work instead of continuing into ``latest()``/``get()``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.poll_entered = threading.Event()
        self.release_poll = threading.Event()
        self.poll_returned_at = None
        self.calls_after_poll = []

    def _gate(self):
        self.poll_entered.set()
        assert self.release_poll.wait(timeout=10.0)

    def changed_models(self, cursor):
        self._gate()
        result = self._inner.changed_models(cursor)
        self.poll_returned_at = time.monotonic()
        return result

    def names(self):
        self._gate()
        result = self._inner.names()
        self.poll_returned_at = time.monotonic()
        return result

    def latest(self, name):
        self.calls_after_poll.append(("latest", name))
        return self._inner.latest(name)

    def get(self, ref):
        self.calls_after_poll.append(("get", ref))
        return self._inner.get(ref)

    def tombstone_reason(self, name, version):
        self.calls_after_poll.append(("tombstone_reason", name))
        return self._inner.tombstone_reason(name, version)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TestStopDuringPoll:
    def test_stop_waits_for_the_poll_and_discards_its_work(
        self, populated_registry
    ):
        backend = _MidPollBackend(populated_registry)
        handle = ServerThread(
            backend, max_wait_ms=1.0, hot_reload_s=0.05
        ).start()
        server = handle.server
        try:
            # The first poll is now blocked inside its first backend
            # call on the executor thread — stop() begins mid-poll.
            assert backend.poll_entered.wait(timeout=10.0)

            def release_soon():
                time.sleep(0.2)
                backend.release_poll.set()

            releaser = threading.Thread(target=release_soon, daemon=True)
            releaser.start()
            handle.stop()
            stopped_at = time.monotonic()
            releaser.join(timeout=5.0)
        finally:
            backend.release_poll.set()
            handle.stop()
        # stop() waited for the in-flight backend call instead of
        # abandoning it mid-air...
        assert backend.poll_returned_at is not None
        assert stopped_at >= backend.poll_returned_at
        # ...and the poll then discarded its work: no further backend
        # calls, nothing installed into the LRU after the drain began.
        assert backend.calls_after_poll == []
        assert server._resident == {}
        assert server._hot_reload_loads == 0
    def test_polling_disabled_by_default(self, populated_registry):
        with ServerThread(populated_registry, max_wait_ms=1.0) as handle:
            with PredictionClient("127.0.0.1", handle.port) as client:
                time.sleep(0.15)
                assert (
                    _metric(client, "repro_serve_hot_reload_loads_total")
                    == 0.0
                )


class TestChangeCursorPolling:
    """The poller syncs via ``?since=`` — no full listings after sync."""

    def test_remote_polls_issue_zero_full_listings(
        self, populated_registry, other_predictor, tmp_path
    ):
        import asyncio

        from repro.registry import HttpBackend, RegistryServerThread
        from repro.serve.server import PredictionServer

        with RegistryServerThread(populated_registry) as registry_handle:
            backend = HttpBackend(
                f"http://127.0.0.1:{registry_handle.port}",
                tmp_path / "hot-reload-cache",
            )
            server = PredictionServer(backend)

            async def drive():
                await server.hot_reload_once()  # initial sync
                assert {
                    r.manifest.ref for r in server._resident.values()
                } == {"point@1", "band@1"}
                # A quiet store costs exactly one ?since= round-trip.
                before = backend.http_requests
                await server.hot_reload_once()
                assert backend.http_requests == before + 1
                # A push is picked up through the cursor alone.
                populated_registry.push("point", other_predictor)
                await server.hot_reload_once()
                assert "point@2" in {
                    r.manifest.ref for r in server._resident.values()
                }

            asyncio.run(drive())
        assert backend.full_list_requests == 0
