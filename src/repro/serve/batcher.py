"""Micro-batching for the prediction hot path.

One HTTP request carries one (or a few) feature rows, but the underlying
models are vectorized: predicting 32 rows in one call costs barely more
than predicting one.  The :class:`MicroBatcher` exploits that by queueing
concurrent requests for the same model and flushing them as a single
``(n, k)`` matrix through one predict call, whichever comes first of

* the batch reaching ``max_batch`` rows,
* a batch-form request (:meth:`MicroBatcher.submit_many`) having queued
  all its rows: whatever is pending flushes on the next event-loop turn
  rather than waiting for company the request does not need, however
  few rows it carries, or
* the oldest queued row waiting ``max_wait_ms`` milliseconds.

The request's form, not its row count, decides: only a single-form
request (:meth:`MicroBatcher.submit`) waits out the deadline, because
that wait is how concurrent clients' rows coalesce into one batch.

Correctness contract: because the serving predictors reduce each row with
shape-stable kernels (``predict_stable``), a row's prediction is
bit-identical whether it is flushed alone or with 63 neighbours — batching
changes throughput, never results.  ``tests/serve/test_batcher.py`` pins
that with exact float equality.

The batcher is event-loop-confined: all methods must be called from the
loop that created it (the server guarantees this); the synchronous predict
function runs inline on the loop, which is fine at model sizes where a
batched call is tens of microseconds.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.trace import current_span, get_tracer

__all__ = ["BacklogFullError", "BatcherStats", "MicroBatcher"]

#: predict_fn: (n, k) matrix -> (n,) array, or a tuple of (n,) arrays
#: (ensembles return (means, stds)).
PredictFn = Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, ...]"]


class BacklogFullError(RuntimeError):
    """A row was shed because the batcher's backlog bound was hit.

    The server maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` of :attr:`retry_after_s` seconds (one deadline
    flush is guaranteed to run within ``max_wait_ms``, so the backlog
    will have drained by then).
    """

    def __init__(self, message: str, *, retry_after_s: int = 1) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass
class BatcherStats:
    """Flush accounting for one batcher (merged into /metrics)."""

    rows: int = 0
    batches: int = 0
    #: Rows rejected by admission control (``max_backlog``); exported as
    #: ``repro_serve_shed_total``.
    shed: int = 0
    #: Flushes by reason: ``size`` (the batch filled up), ``deadline``
    #: (``max_wait_ms`` elapsed), ``request`` (a batch-form request's
    #: rows, flushed at once) and ``drain`` (shutdown).
    flush_reasons: dict[str, int] = field(default_factory=dict)

    def record_flush(self, size: int, reason: str) -> None:
        """Count one flush of ``size`` rows for ``reason``."""
        self.rows += size
        self.batches += 1
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1

    def record_shed(self, rows: int = 1) -> None:
        """Count rows rejected by admission control."""
        self.shed += int(rows)


class MicroBatcher:
    """Coalesce concurrent predict calls into vectorized batches.

    A request enters in one of two forms, and its form decides when its
    rows flush: :meth:`submit` (one row, the single form) waits up to
    ``max_wait_ms`` for other requests' rows to share its batch, while
    :meth:`submit_many` (the batch form) flushes on the next event-loop
    turn, even when it carries a single row.

    Parameters
    ----------
    predict_fn:
        Vectorized prediction over an ``(n, k)`` matrix.  May return one
        array (point predictors) or a tuple of arrays (ensembles return
        means and stds); :meth:`submit` resolves to the row's scalar or
        tuple of scalars respectively.
    max_batch:
        Flush as soon as this many rows are queued.  ``1`` disables
        coalescing (every request is its own batch) — the baseline the
        throughput bench compares against.
    max_wait_ms:
        Deadline for the *oldest* queued row; bounds the latency cost a
        lone single-form request (:meth:`submit`) pays waiting for
        company.  A batch-form request (:meth:`submit_many`) never waits
        it out, even with one row.
    max_backlog:
        Admission bound, per request: rows that would take the queue past
        this many are shed with :class:`BacklogFullError` (counted in
        :attr:`BatcherStats.shed`) instead of growing the queue.  A
        multi-row request is admitted all or none.  ``None`` (default)
        never sheds.
    on_flush:
        Optional callback ``(batch_size, reason)`` — the server uses it
        to feed the batch-size histogram.
    on_phase:
        Optional callback ``(phase, seconds)`` — fed one ``"batch_wait"``
        observation per flushed row (submit to flush start) and one
        ``"predict"`` observation per flush (the vectorized call itself).
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_backlog: int | None = None,
        on_flush: Callable[[int, str], None] | None = None,
        on_phase: Callable[[str, float], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0.0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_backlog is not None and max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 (or None)")
        self.predict_fn = predict_fn
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_backlog = max_backlog
        self.on_flush = on_flush
        self.on_phase = on_phase
        self.stats = BatcherStats()
        # (row, future, submit perf_counter time, submitting request span).
        self._pending: list[tuple[np.ndarray, asyncio.Future, float, object]] = []
        # The scheduled flush of the queued rows: the deadline timer, or a
        # batch-form request's next-turn flush.
        self._timer: asyncio.Handle | None = None

    @property
    def pending(self) -> int:
        """Rows currently queued and not yet flushed."""
        return len(self._pending)

    async def submit(self, row: np.ndarray):
        """Queue a single-form request's row; resolves to its prediction.

        The row waits for company: it flushes with the batch it joins,
        when that batch fills or when its oldest row has waited
        ``max_wait_ms``.  Returns a float for point predictors, or a
        tuple of floats for tuple-returning predict functions (e.g.
        ``(mean, std)``).  Exceptions raised by ``predict_fn`` propagate
        to every request in the affected batch.  Raises
        :class:`BacklogFullError` without queueing when ``max_backlog``
        is set and already reached.
        """
        (future,) = self._enqueue([row])
        if self._pending and self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                self.max_wait_ms / 1000.0, self._flush, "deadline"
            )
        return await future

    async def submit_many(self, rows) -> list:
        """Queue a batch-form request's rows; resolves to their predictions.

        Admission is all or none: when ``max_backlog`` is set and the
        rows do not all fit, none is queued, every row counts as shed, and
        :class:`BacklogFullError` is raised at once.  Admitted rows batch
        exactly as if submitted one by one, in order, except that the
        request never waits out the deadline, whatever its length: once
        its rows are queued, whatever is pending flushes on the next
        event-loop turn (reason ``"request"``).  A batch-form caller has
        batched its rows already; holding them for other requests' rows
        would only add latency.  The flush is scheduled rather than run
        inline so that work already ready on the loop (another request's
        submit, a drain) still runs first.
        """
        futures = self._enqueue(rows)
        if self._pending:
            if self._timer is not None:
                self._timer.cancel()
            self._timer = asyncio.get_running_loop().call_soon(
                self._flush, "request"
            )
        if len(futures) == 1:
            return [await futures[0]]
        return list(await asyncio.gather(*futures))

    def _enqueue(self, rows) -> list[asyncio.Future]:
        """Admit and queue one request's rows, flushing full batches."""
        rows = [np.asarray(row, dtype=float) for row in rows]
        for row in rows:
            if row.ndim != 1:
                raise ValueError(
                    f"submit takes one 1-D feature row; got {row.shape}"
                )
        self._admit(len(rows))
        loop = asyncio.get_running_loop()
        parent = current_span() if get_tracer().enabled else None
        futures = []
        for row in rows:
            future: asyncio.Future = loop.create_future()
            self._pending.append((row, future, time.perf_counter(), parent))
            futures.append(future)
            if len(self._pending) >= self.max_batch:
                self._flush("size")
        return futures

    def _admit(self, n: int) -> None:
        """Shed all ``n`` rows of a request the backlog cannot take."""
        pending = len(self._pending)
        if self.max_backlog is None or pending + n <= self.max_backlog:
            return
        self.stats.record_shed(n)
        # The drain horizon: the oldest queued row flushes within
        # max_wait_ms, so the backlog has space again by then.
        # ceil, not int()+1 — a 60 s deadline means retry after 60 s,
        # not 61; floor of 1 s because Retry-After is whole seconds.
        retry_after_s = max(1, math.ceil(self.max_wait_ms / 1000.0))
        detail = ""
        if n > 1:
            detail = f" and a request of {n} rows does not fit"
            if n > self.max_backlog:
                detail += " even into an empty queue (split it)"
        raise BacklogFullError(
            f"backlog full: {pending} row(s) already queued "
            f"(max_backlog={self.max_backlog}){detail}; retry after "
            f"{retry_after_s}s",
            retry_after_s=retry_after_s,
        )

    def _flush(self, reason: str) -> None:
        """Run one batch through ``predict_fn`` and resolve its futures."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        rows = np.stack([row for row, _future, _t, _span in batch])
        self.stats.record_flush(len(batch), reason)
        if self.on_flush is not None:
            self.on_flush(len(batch), reason)
        tracer = get_tracer()
        flush_started = time.perf_counter()
        if self.on_phase is not None:
            for _row, _future, submitted, _span in batch:
                self.on_phase("batch_wait", flush_started - submitted)
        if tracer.enabled:
            # Each row's wait is only known now — record it retroactively,
            # parented to the request span that submitted the row.
            for _row, _future, submitted, span in batch:
                tracer.record_span(
                    "serve.batch_wait",
                    start=submitted,
                    end=flush_started,
                    parent=span,
                    reason=reason,
                )
        try:
            result = self.predict_fn(rows)
        except Exception as exc:  # noqa: BLE001 - forwarded to awaiters
            for _row, future, _t, _span in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        predict_done = time.perf_counter()
        if self.on_phase is not None:
            self.on_phase("predict", predict_done - flush_started)
        if tracer.enabled:
            # One vectorized call serves the whole batch; the span joins
            # the first submitter's trace and carries the batch size.
            tracer.record_span(
                "serve.predict",
                start=flush_started,
                end=predict_done,
                parent=batch[0][3],
                batch_size=len(batch),
                reason=reason,
            )
        for i, (_row, future, _t, _span) in enumerate(batch):
            if future.done():  # cancelled awaiter; nothing to deliver
                continue
            if isinstance(result, tuple):
                future.set_result(tuple(float(part[i]) for part in result))
            else:
                future.set_result(float(result[i]))

    async def drain(self) -> None:
        """Flush anything pending immediately (graceful shutdown)."""
        self._flush("drain")
        # Give resolved futures a tick so awaiters observe their results
        # before the server closes connections.
        await asyncio.sleep(0)
