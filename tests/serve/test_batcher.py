"""Tests for the micro-batching queue.

The load-bearing property is the last test class: coalescing must change
throughput, never results — batched predictions are compared to serial
ones with exact float equality, like PR 1's serial==parallel test.
"""

import asyncio

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher


def _echo_sum(X: np.ndarray) -> np.ndarray:
    """A deterministic stand-in predict function."""
    return X.sum(axis=1)


class TestValidation:
    def test_max_batch_floor(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(_echo_sum, max_batch=0)

    def test_negative_wait(self):
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(_echo_sum, max_wait_ms=-1.0)

    def test_rejects_matrix_submit(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=4)
            with pytest.raises(ValueError, match="1-D feature row"):
                await batcher.submit(np.ones((2, 3)))

        asyncio.run(run())


class TestCoalescing:
    def test_concurrent_submits_share_one_flush(self):
        sizes = []

        async def run():
            batcher = MicroBatcher(
                lambda X: (sizes.append(X.shape[0]) or _echo_sum(X)),
                max_batch=64,
                max_wait_ms=5.0,
            )
            rows = [np.array([float(i), 1.0]) for i in range(10)]
            return await asyncio.gather(*(batcher.submit(r) for r in rows))

        results = asyncio.run(run())
        assert sizes == [10]  # one deadline flush carried all ten rows
        assert results == [float(i) + 1.0 for i in range(10)]

    def test_max_batch_triggers_size_flush(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=4, max_wait_ms=60_000.0)
            rows = [np.array([float(i)]) for i in range(8)]
            await asyncio.gather(*(batcher.submit(r) for r in rows))
            return batcher.stats

        stats = asyncio.run(run())
        # A 1-minute deadline can't have fired: both flushes were size-driven.
        assert stats.flush_reasons == {"size": 2}
        assert stats.rows == 8 and stats.batches == 2

    def test_deadline_flushes_partial_batch(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=64, max_wait_ms=1.0)
            result = await batcher.submit(np.array([2.0, 3.0]))
            return result, batcher.stats

        result, stats = asyncio.run(run())
        assert result == 5.0
        assert stats.flush_reasons == {"deadline": 1}
        assert stats.rows == 1 and stats.batches == 1

    def test_multi_row_request_does_not_wait_out_the_deadline(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=32, max_wait_ms=60_000.0)
            rows = [np.array([float(i)]) for i in range(33)]
            # One full batch plus a one-row tail; a minute-long deadline
            # would time this out if the tail waited for it.
            results = await asyncio.wait_for(batcher.submit_many(rows), 5)
            return results, batcher.stats

        results, stats = asyncio.run(run())
        assert results == [float(i) for i in range(33)]
        assert stats.flush_reasons == {"size": 1, "request": 1}
        assert stats.rows == 33 and stats.batches == 2

    def test_one_row_batch_form_request_does_not_wait(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=32, max_wait_ms=60_000.0)
            # The request's form decides, not its row count: one row in
            # batch form flushes on the next turn, not after a minute.
            results = await asyncio.wait_for(
                batcher.submit_many([np.array([2.0, 3.0])]), 5
            )
            return results, batcher.stats

        results, stats = asyncio.run(run())
        assert results == [5.0]
        assert stats.flush_reasons == {"request": 1}

    def test_single_form_row_waits_for_company(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=32, max_wait_ms=60_000.0)
            lone = asyncio.ensure_future(batcher.submit(np.array([1.0])))
            for _ in range(5):
                await asyncio.sleep(0)
            waiting = (lone.done(), batcher.pending)
            # A batch-form request flushes everything pending with it.
            many = await asyncio.wait_for(
                batcher.submit_many([np.array([4.0])]), 5
            )
            return waiting, await lone, many, batcher.stats

        waiting, lone, many, stats = asyncio.run(run())
        assert waiting == (False, 1)
        assert (lone, many) == (1.0, [4.0])
        assert stats.flush_reasons == {"request": 1}
        assert stats.rows == 2 and stats.batches == 1

    def test_max_batch_one_disables_coalescing(self):
        sizes = []

        async def run():
            batcher = MicroBatcher(
                lambda X: (sizes.append(X.shape[0]) or _echo_sum(X)),
                max_batch=1,
            )
            rows = [np.array([float(i)]) for i in range(5)]
            return await asyncio.gather(*(batcher.submit(r) for r in rows))

        asyncio.run(run())
        assert sizes == [1, 1, 1, 1, 1]

    def test_tuple_results_fan_out_per_row(self):
        async def run():
            batcher = MicroBatcher(
                lambda X: (X.sum(axis=1), X.prod(axis=1)),
                max_batch=4,
                max_wait_ms=1.0,
            )
            rows = [np.array([2.0, float(i)]) for i in range(4)]
            return await asyncio.gather(*(batcher.submit(r) for r in rows))

        results = asyncio.run(run())
        assert results == [(2.0 + i, 2.0 * i) for i in range(4)]

    def test_drain_flushes_pending(self):
        async def run():
            batcher = MicroBatcher(_echo_sum, max_batch=64, max_wait_ms=60_000.0)
            task = asyncio.ensure_future(batcher.submit(np.array([1.0, 2.0])))
            await asyncio.sleep(0)  # let the submit queue itself
            assert batcher.pending == 1
            await batcher.drain()
            assert batcher.pending == 0
            return await task, batcher.stats

        result, stats = asyncio.run(run())
        assert result == 3.0
        assert stats.flush_reasons == {"drain": 1}
        assert stats.rows == 1 and stats.batches == 1


class TestErrorPropagation:
    def test_predict_failure_reaches_every_awaiter(self):
        def explode(_X):
            raise RuntimeError("model melted")

        async def run():
            batcher = MicroBatcher(explode, max_batch=3, max_wait_ms=1.0)
            rows = [np.array([1.0]) for _ in range(3)]
            return await asyncio.gather(
                *(batcher.submit(r) for r in rows), return_exceptions=True
            )

        results = asyncio.run(run())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_failure_does_not_poison_next_batch(self):
        calls = []

        def flaky(X):
            calls.append(X.shape[0])
            if len(calls) == 1:
                raise RuntimeError("transient")
            return _echo_sum(X)

        async def run():
            batcher = MicroBatcher(flaky, max_batch=1)
            with pytest.raises(RuntimeError):
                await batcher.submit(np.array([1.0]))
            return await batcher.submit(np.array([4.0, 5.0]))

        assert asyncio.run(run()) == 9.0


class TestBatchedEqualsSerial:
    """Micro-batching must never change a prediction's bits."""

    def _serve(self, predictor, rows, max_batch):
        async def run():
            batcher = MicroBatcher(
                predictor.predict_rows, max_batch=max_batch, max_wait_ms=1.0
            )
            return await asyncio.gather(*(batcher.submit(r) for r in rows))

        return asyncio.run(run())

    @pytest.mark.parametrize("fixture", ["point_predictor", "neural_predictor"])
    def test_point_predictor_exact(self, request, fixture, feature_rows, observations):
        predictor = request.getfixturevalue(fixture)
        if fixture == "neural_predictor":
            from repro.core.feature_sets import FeatureSet

            rows = np.array(
                [
                    [obs.feature_value(f) for f in FeatureSet.B.features]
                    for obs in observations[:12]
                ]
            )
        else:
            rows = feature_rows
        serial = self._serve(predictor, list(rows), max_batch=1)
        batched = self._serve(predictor, list(rows), max_batch=len(rows))
        assert serial == batched  # exact float equality, not approx
        # And both equal the direct one-row calls.
        direct = [float(predictor.predict_rows(r[None, :])[0]) for r in rows]
        assert serial == direct

    def test_ensemble_exact(self, ensemble, feature_rows):
        serial = self._serve(ensemble, list(feature_rows), max_batch=1)
        batched = self._serve(ensemble, list(feature_rows), max_batch=len(feature_rows))
        assert serial == batched
        means, stds = ensemble.predict_rows(feature_rows)
        assert serial == [(float(m), float(s)) for m, s in zip(means, stds)]

    def test_mixed_batch_sizes_exact(self, point_predictor, feature_rows):
        """Odd flush boundaries (size 5 over 12 rows) change nothing."""
        chunked = self._serve(point_predictor, list(feature_rows), max_batch=5)
        serial = self._serve(point_predictor, list(feature_rows), max_batch=1)
        assert chunked == serial
