"""Admission control: bounded backlog, 429 + Retry-After, shed metrics.

An overloaded server must refuse quickly instead of queueing without
bound.  ``MicroBatcher(max_backlog=...)`` rejects a request whose rows
do not all fit the pending queue, all or none; the server maps the
rejection to ``429 Too Many Requests`` with a ``Retry-After`` hint and
counts every shed row into ``repro_serve_shed_total``.
"""

import asyncio
import http.client
import json

import numpy as np
import pytest

from repro.serve.batcher import BacklogFullError, MicroBatcher
from repro.serve.client import ClientError, PredictionClient
from repro.serve.server import ServerThread


def _echo_sum(X: np.ndarray) -> np.ndarray:
    return X.sum(axis=1)


class TestBatcherBackpressure:
    def test_backlog_floor(self):
        with pytest.raises(ValueError, match="max_backlog"):
            MicroBatcher(_echo_sum, max_backlog=0)

    def test_unbounded_by_default(self):
        batcher = MicroBatcher(_echo_sum)
        assert batcher.max_backlog is None

    def test_overflow_rows_are_shed(self):
        async def run():
            # A one-minute deadline and a huge max_batch mean nothing
            # flushes while the submits pile up, so the fourth and fifth
            # rows deterministically find a full backlog.
            batcher = MicroBatcher(
                _echo_sum, max_batch=64, max_wait_ms=60_000.0, max_backlog=3
            )
            rows = [np.array([float(i)]) for i in range(5)]
            gathered = asyncio.gather(
                *(batcher.submit(r) for r in rows), return_exceptions=True
            )
            await asyncio.sleep(0)  # every submit queues or is rejected
            await batcher.drain()   # resolve the queued rows now
            return await gathered, batcher.stats

        results, stats = asyncio.run(run())
        rejected = [r for r in results if isinstance(r, BacklogFullError)]
        accepted = [r for r in results if isinstance(r, float)]
        assert len(rejected) == 2
        assert len(accepted) == 3
        assert stats.shed == 2
        assert stats.rows == 3  # shed rows never reach a flush

    def test_multi_row_request_is_admitted_all_or_none(self):
        async def run():
            batcher = MicroBatcher(
                _echo_sum, max_batch=64, max_wait_ms=60_000.0, max_backlog=2
            )
            rows = [np.array([float(i)]) for i in range(5)]
            with pytest.raises(BacklogFullError) as excinfo:
                await batcher.submit_many(rows)
            # Nothing was queued, so the rejected rows cannot flush later.
            pending = batcher.pending
            await batcher.drain()
            return excinfo.value, pending, batcher.stats

        exc, pending, stats = asyncio.run(run())
        assert pending == 0
        assert stats.shed == 5
        assert stats.batches == 0 and stats.rows == 0
        assert "max_backlog=2" in str(exc)
        assert "request of 5 rows" in str(exc)
        assert exc.retry_after_s == 60

    def test_request_that_fits_is_admitted_whole(self):
        async def run():
            batcher = MicroBatcher(
                _echo_sum, max_batch=64, max_wait_ms=60_000.0, max_backlog=4
            )
            queued = asyncio.ensure_future(batcher.submit(np.array([1.0])))
            await asyncio.sleep(0)
            # 1 queued + 3 requested == max_backlog: admitted.
            fits = asyncio.ensure_future(
                batcher.submit_many([np.array([float(i)]) for i in range(3)])
            )
            await asyncio.sleep(0)
            # 4 queued + 2 requested > max_backlog: shed whole.
            with pytest.raises(BacklogFullError):
                await batcher.submit_many([np.array([7.0]), np.array([8.0])])
            await batcher.drain()
            return await queued, await fits, batcher.stats

        single, many, stats = asyncio.run(run())
        assert single == 1.0
        assert many == [0.0, 1.0, 2.0]
        assert stats.shed == 2
        assert stats.rows == 4 and stats.batches == 1

    def test_rejection_names_the_limit_and_retry(self):
        async def run():
            batcher = MicroBatcher(
                _echo_sum, max_batch=64, max_wait_ms=60_000.0, max_backlog=1
            )
            queued = asyncio.ensure_future(batcher.submit(np.array([1.0])))
            await asyncio.sleep(0)
            with pytest.raises(BacklogFullError) as excinfo:
                await batcher.submit(np.array([2.0]))
            await batcher.drain()
            await queued
            return excinfo.value

        exc = asyncio.run(run())
        assert "max_backlog=1" in str(exc)
        # retry hint is the drain horizon: the oldest queued row flushes
        # within max_wait_ms, so ceil(max_wait_ms / 1000) — exactly 60
        # for a one-minute deadline, not 61 (the old formula over-backed
        # clients off by a second per retry).
        assert exc.retry_after_s == 60

    @pytest.mark.parametrize(
        ("max_wait_ms", "expected_s"),
        [
            (0.0, 1),        # immediate flushes still need a whole second
            (100.0, 1),      # sub-second horizons round up to the floor
            (1000.0, 1),     # exactly one second stays one second
            (1500.0, 2),     # fractional seconds round up, never down
            (60_000.0, 60),  # whole minutes don't gain a spurious +1
        ],
    )
    def test_retry_after_is_the_ceil_of_the_drain_horizon(
        self, max_wait_ms, expected_s
    ):
        async def run():
            batcher = MicroBatcher(
                _echo_sum,
                max_batch=64,
                max_wait_ms=max_wait_ms,
                max_backlog=1,
            )
            queued = asyncio.ensure_future(batcher.submit(np.array([1.0])))
            await asyncio.sleep(0)
            with pytest.raises(BacklogFullError) as excinfo:
                await batcher.submit(np.array([2.0]))
            await batcher.drain()
            await queued
            return excinfo.value

        assert asyncio.run(run()).retry_after_s == expected_s


@pytest.fixture
def tight_server(populated_registry):
    """A server whose per-model backlog holds only two pending rows."""
    with ServerThread(
        populated_registry,
        max_batch=64,
        max_wait_ms=100.0,
        max_backlog=2,
    ) as handle:
        yield handle


class TestServer429:
    def test_oversized_batch_is_shed(self, tight_server, feature_dicts):
        # Five rows hit a two-row backlog; max_batch is far away, so the
        # overflow rows are rejected the moment they arrive.
        with PredictionClient("127.0.0.1", tight_server.port) as client:
            with pytest.raises(ClientError) as excinfo:
                client.predict_batch(feature_dicts[:5], model="point")
            assert excinfo.value.status == 429
            assert "backlog full" in str(excinfo.value)
            assert "max_backlog=2" in str(excinfo.value)

    def test_retry_after_header(self, tight_server, feature_dicts):
        conn = http.client.HTTPConnection(
            "127.0.0.1", tight_server.port, timeout=30.0
        )
        try:
            conn.request(
                "POST",
                "/v1/predict",
                body=json.dumps(
                    {"model": "point", "instances": feature_dicts[:5]}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 429
            # max_wait_ms=100 -> the backlog drains within a second.
            assert response.getheader("Retry-After") == "1"
            response.read()
        finally:
            conn.close()

    def test_rejected_request_queues_and_predicts_nothing(
        self, tight_server, feature_dicts
    ):
        # Five rows against a two-row backlog: the whole request is shed
        # before any row is queued, so no micro-batch ever runs for it.
        with PredictionClient("127.0.0.1", tight_server.port) as client:
            with pytest.raises(ClientError) as excinfo:
                client.predict_batch(feature_dicts[:5], model="point")
            assert excinfo.value.status == 429
            samples = client.metrics()
        assert samples["repro_serve_batch_size_count"] == 0.0
        assert samples["repro_serve_batch_size_sum"] == 0.0
        assert samples["repro_serve_shed_total"] == 5.0
        assert samples["repro_serve_predictions_total"] == 0.0

    def test_shed_rows_reach_the_metrics(self, tight_server, feature_dicts):
        with PredictionClient("127.0.0.1", tight_server.port) as client:
            with pytest.raises(ClientError):
                client.predict_batch(feature_dicts[:6], model="point")
            samples = client.metrics()
            assert samples["repro_serve_shed_total"] >= 1.0
            assert (
                samples['repro_serve_errors_total{reason="backlog_full"}']
                >= 1.0
            )
            assert (
                samples['repro_serve_requests_total{endpoint="/v1/predict",status="429"}']
                >= 1.0
            )

    def test_within_budget_requests_still_served(
        self, tight_server, feature_dicts, point_predictor, feature_rows
    ):
        with PredictionClient("127.0.0.1", tight_server.port) as client:
            body = client.predict(feature_dicts[0], model="point")
            expected = float(point_predictor.predict_rows(feature_rows[0:1])[0])
            assert body["prediction"] == expected
