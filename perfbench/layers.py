"""Benchmark-side spans and counts at the boundary into each layer.

Only traced worker processes use this module.  Every span is opened on
the benchmark's side of the public API: around the workloads' own calls,
and inside a :class:`~repro.sim.engine.SimulationEngine` subclass and a
:class:`~repro.sched.service.RemoteScorer` subclass that the workloads
hand to the library through its public arguments.  The program's own
tracer (``repro.obs``) stays off, so no metric here depends on span or
counter names inside ``src/``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.sched.service import RemoteScorer
from repro.sim import SimulationEngine

__all__ = ["Recorder", "Span", "TracedEngine", "TracedScorer"]


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "phase", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, phase: str, attrs: dict) -> None:
        self.name = name
        self.phase = phase
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.seconds - self.child_s


class Recorder:
    """Thread-safe in-memory span store.

    Spans nest per thread: a span's parent is the innermost span still
    open on the thread that opened it.  ``phase`` ("setup" or "timed") is
    stamped on each span when it opens.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, self.phase, attrs)
        parent = stack[-1] if stack else None
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.seconds
            with self._lock:
                self._spans.append(span)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)


class TracedEngine(SimulationEngine):
    """Engine whose batched runs and single solves open spans.

    ``sim.solve`` counts a miss when the engine's solve cache grew during
    the call, and sums fixed-point iterations over misses only (a hit
    returns the cached state's iteration count without iterating).
    """

    def __init__(self, processor, recorder: Recorder, **kwargs) -> None:
        super().__init__(processor, **kwargs)
        self.recorder = recorder

    def run_batch(self, items):
        with self.recorder.span("sim.run_batch") as span:
            runs = super().run_batch(items)
            span.attrs["scenarios"] = len(runs)
            span.attrs["iterations"] = sum(run.iterations for run in runs)
        return runs

    def solve_steady_state(self, apps, pstate=None, *, fixed_occupancies=None):
        cached = len(self.cache) if self.cache is not None else 0
        with self.recorder.span("sim.solve") as span:
            state = super().solve_steady_state(
                apps, pstate, fixed_occupancies=fixed_occupancies
            )
            miss = self.cache is None or len(self.cache) > cached
            span.attrs["misses"] = int(miss)
            span.attrs["iterations"] = state.iterations if miss else 0
        return state


class TracedScorer(RemoteScorer):
    """Scorer whose batched predict round trips open spans."""

    def __init__(self, host: str, port: int, *, model: str, recorder: Recorder):
        super().__init__(host, port, model=model)
        self.recorder = recorder

    def predict_rows(self, rows):
        with self.recorder.span("serve.predict_rows", rows=len(rows)):
            return super().predict_rows(rows)
