"""Worker processes for the multi-process serving tier.

Each worker is a full :class:`~repro.serve.server.PredictionServer` in
its own process — its own event loop, resident-model LRU, micro-batchers,
and (when enabled) hot-reload poller — bound to an ephemeral loopback
port that it reports back to the parent over a pipe.  The router
(:mod:`repro.serve.router`) dispatches each request to the worker that
owns the model's shard.

Workers are spawned with the ``spawn`` start method: a clean interpreter
per worker, no inherited event loop or thread state, which keeps the
tier safe to start from threaded parents (pytest, the bench harness).
Because the child re-imports this module, everything the worker needs
travels pickled: the registry backend object itself plus a plain config
dict.  Each worker unpickles its own backend instance, so per-worker
hot-reload pollers and latest-version caches never share mutable
state; workers over an :class:`~repro.registry.client.HttpBackend`
share only its on-disk content-addressed cache, whose writes are atomic
per process.

**Drain protocol.**  A worker stops on any of three signals — a
``"stop"`` message on its control pipe, ``SIGTERM``, or the pipe
reaching EOF (the parent died) — and each triggers the same graceful
sequence: the listener closes, the hot-reload poller (if any) is stopped
*before* the batchers drain, queued rows flush, in-flight requests
finish, and the process exits 0.  In-flight requests are never dropped;
the integration tests pin that under concurrent load.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import threading

__all__ = ["WorkerProcess"]

#: How long the parent waits for a spawned worker to report its port.
_READY_TIMEOUT_S = 60.0
#: How long a graceful stop may take before the parent escalates.
_STOP_TIMEOUT_S = 15.0


async def _serve(backend, config: dict, conn) -> None:
    """The worker's event loop body: serve until told to stop, drain, exit."""
    from .server import PredictionServer

    config = dict(config)
    trace_stream = config.pop("trace_stream", None)
    tracer = None
    if trace_stream:
        # Stream this worker's spans (serve.request, batcher waits,
        # predicts) to the tier's collector; resource attributes let the
        # export tell the workers apart.
        import os

        from ..obs.stream import SpanSender, StreamingTracer
        from ..obs.trace import set_tracer

        worker_id = config.get("worker_id")
        tracer = StreamingTracer(
            SpanSender(
                trace_stream,
                resource={
                    "service": f"serve-worker-{worker_id}",
                    "worker": worker_id,
                    "pid": os.getpid(),
                },
            )
        )
        set_tracer(tracer)
    server = PredictionServer(backend, host="127.0.0.1", port=0, **config)
    await server.start()
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stopping.set)
    # The parent's SIGINT (^C at the CLI) reaches the whole process
    # group; the parent coordinates the drain, so workers ignore it and
    # wait for the pipe/SIGTERM.
    loop.add_signal_handler(signal.SIGINT, lambda: None)

    def watch_pipe() -> None:
        # Blocking reader thread: a "stop" message or EOF (parent died)
        # both end the worker gracefully.
        try:
            while True:
                message = conn.recv()
                if message == "stop":
                    break
        except (EOFError, OSError):
            pass
        loop.call_soon_threadsafe(stopping.set)

    watcher = threading.Thread(
        target=watch_pipe, name="repro-worker-control", daemon=True
    )
    watcher.start()
    conn.send(("ready", server.port))
    await stopping.wait()
    await server.stop()
    if tracer is not None:
        # Ship whatever the sender still holds before the process exits;
        # without this the last batch of spans dies with the worker.
        await asyncio.to_thread(tracer.close)
    try:
        conn.send(("stopped", server.metrics.request_count))
    except (BrokenPipeError, OSError):
        pass


def worker_main(backend, config: dict, conn) -> None:
    """Entry point of a spawned worker process."""
    try:
        asyncio.run(_serve(backend, config, conn))
    except Exception as exc:  # noqa: BLE001 - report startup failures upward
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        raise SystemExit(1) from exc
    finally:
        conn.close()


class WorkerProcess:
    """Parent-side handle for one spawned serving worker.

    ``start()`` spawns the process and blocks until the worker reports
    the port it bound; ``stop()`` runs the graceful drain protocol
    (pipe message, then SIGTERM, then kill) and records the exit code.
    """

    def __init__(self, index: int, backend, config: dict) -> None:
        self.index = index
        self.backend = backend
        self.config = dict(config)
        self.port: int | None = None
        self.exitcode: int | None = None
        #: HTTP requests the worker reported handling when it stopped
        #: (the integration tests balance this against client successes).
        self.final_request_count: int | None = None
        self._process: multiprocessing.process.BaseProcess | None = None
        self._conn = None

    def start(self) -> "WorkerProcess":
        """Spawn the worker and wait for its ``("ready", port)`` report."""
        if self._process is not None:
            raise RuntimeError(f"worker {self.index} is already running")
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(self.backend, self.config, child_conn),
            name=f"repro-serve-worker-{self.index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        if not self._conn.poll(_READY_TIMEOUT_S):
            self.terminate()
            raise RuntimeError(
                f"worker {self.index} did not report ready within "
                f"{_READY_TIMEOUT_S:.0f}s"
            )
        kind, value = self._conn.recv()
        if kind != "ready":
            self.terminate()
            raise RuntimeError(f"worker {self.index} failed to start: {value}")
        self.port = int(value)
        return self

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def stop(self, timeout_s: float = _STOP_TIMEOUT_S) -> int | None:
        """Graceful drain: pipe message -> SIGTERM -> kill; returns exit code."""
        process = self._process
        if process is None:
            return self.exitcode
        try:
            self._conn.send("stop")
        except (BrokenPipeError, OSError):
            pass
        process.join(timeout=timeout_s)
        if process.is_alive():
            process.terminate()  # SIGTERM: the worker drains on this too
            process.join(timeout=timeout_s)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        try:
            while self._conn.poll(0):
                message = self._conn.recv()
                if (
                    isinstance(message, tuple)
                    and len(message) == 2
                    and message[0] == "stopped"
                ):
                    self.final_request_count = int(message[1])
        except (EOFError, OSError):
            pass
        self.exitcode = process.exitcode
        self._conn.close()
        self._process = None
        return self.exitcode

    def terminate(self) -> None:
        """Hard stop (startup failures only; skips the drain protocol)."""
        process = self._process
        if process is None:
            return
        process.kill()
        process.join(timeout=5.0)
        self.exitcode = process.exitcode
        self._conn.close()
        self._process = None
