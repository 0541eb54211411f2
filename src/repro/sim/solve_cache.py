"""Memoization and observability for the steady-state engine.

The Table V loop nest drives thousands of independent fixed-point solves,
and both the homogeneous co-location sweeps and the random-sampling
ablation revisit identical (applications, P-state) scenarios many times.
Two facts make exact memoization possible:

* :meth:`~repro.sim.engine.SimulationEngine.solve_steady_state` is a pure
  function of the processor, the P-state frequency, the behavioural
  parameters of the co-located applications, and any pinned occupancies —
  run length (``instructions``) and application names do not enter the
  rate computation; and
* measurement noise is applied to reported times *outside* the solve, so
  a cached steady state reproduces the exact run a fresh solve would.

:class:`SolveCache` memoizes on exactly that key (:func:`solve_key`,
built from per-application :func:`app_signature` tuples).
:class:`EngineStats` is the matching observability record: every engine
tracks solve counts, cache hits, the fixed-point iteration distribution,
and convergence failures, and the parallel collection layer
(:mod:`repro.harness.parallel`) merges worker-process stats back into the
caller's engine.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs.registry import Exposition
from ..workloads.app import ApplicationSpec

__all__ = [
    "EngineStats",
    "GLOBAL_ENGINE_STATS",
    "SolveCache",
    "app_signature",
    "solve_key",
]


#: Instance attribute under which :func:`app_signature` memoizes.
_SIGNATURE_ATTR = "_solve_signature"


def app_signature(app: ApplicationSpec) -> tuple:
    """Hashable signature of everything that affects an app's steady state.

    Deliberately excludes ``name``, ``suite``, and ``instructions``: the
    fixed point solves *rates*, so two applications that differ only in
    identity or run length share one solve.

    The signature is computed once per application object and kept on
    the instance, the way :func:`functools.cached_property` keeps its
    value (the frozen dataclass blocks ``setattr``, not its ``__dict__``).
    It cannot go stale: every changed copy (``dataclasses.replace``,
    :meth:`~repro.workloads.app.ApplicationSpec.scaled`) is a new object
    that computes its own.
    """
    memo = app.__dict__
    signature = memo.get(_SIGNATURE_ATTR)
    if signature is None:
        reuse = app.reuse
        signature = memo[_SIGNATURE_ATTR] = (
            float(app.base_cpi),
            float(app.accesses_per_instruction),
            float(app.mlp),
            float(reuse.compulsory),
            tuple(
                (float(c.working_set_bytes), float(c.weight), float(c.sharpness))
                for c in reuse.components
            ),
        )
    return signature


def solve_key(
    processor_name: str,
    frequency_hz: float,
    apps: tuple[ApplicationSpec, ...],
    fixed_occupancies: np.ndarray | None = None,
) -> tuple:
    """Cache key for one steady-state solve.

    ``(processor name, P-state frequency, per-app signature tuple, pinned
    occupancies)`` — everything :meth:`solve_steady_state` depends on.
    """
    pinned = (
        None
        if fixed_occupancies is None
        else tuple(float(x) for x in np.asarray(fixed_occupancies, dtype=float))
    )
    return (
        processor_name,
        float(frequency_hz),
        tuple(app_signature(a) for a in apps),
        pinned,
    )


class SolveCache:
    """LRU memo of steady-state solves, shareable across engines.

    Keys are :func:`solve_key` tuples; values are frozen
    :class:`~repro.sim.engine.SteadyState` records.  Unbounded by default;
    pass ``max_entries`` to evict least-recently-used solves (the engine
    counts hits, misses and evictions in its :class:`EngineStats` — a
    long suite run with a bounded cache stays bounded *observably*).  A
    cache may back several engines, but only engines whose processors
    genuinely share a configuration should share one (keys include the
    processor *name*, not its full geometry).

    A cache survives its process: :meth:`dump` / :meth:`load` round-trip
    the entries through pickle, which is how the suite runner
    (:mod:`repro.suite.runner`) shares steady-state solves across
    processes and across runs via its artifact store.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple):
        """The cached steady state for ``key``, or ``None`` on a miss."""
        state = self._entries.get(key)
        if state is not None:
            self._entries.move_to_end(key)
        return state

    def put(self, key: tuple, state) -> bool:
        """Store one solve, evicting the least-recently-used if bounded.

        Returns ``True`` when the insert pushed an older entry out, so
        engines can tally the eviction in their :class:`EngineStats`.
        """
        self._entries[key] = state
        self._entries.move_to_end(key)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            return True
        return False

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    # -------------------------------------------------------- persistence
    def dump_bytes(self) -> bytes:
        """Serialize the entries for a later process.

        Entries travel in recency order, so a bounded cache restored via
        :meth:`load_bytes` evicts in the same order the donor would have.
        """
        return pickle.dumps(list(self._entries.items()), protocol=4)

    def load_bytes(self, payload: bytes) -> int:
        """Merge entries serialized by :meth:`dump_bytes`; returns count.

        Existing entries win on key collisions (both sides hold the same
        pure-function solve, so either copy is exact).  Loading respects
        ``max_entries``: overflow evicts least-recently-used as usual.
        """
        try:
            items = pickle.loads(payload)
        except Exception as exc:
            raise ValueError(f"solve cache payload is corrupt: {exc}") from None
        loaded = 0
        for key, state in items:
            if key in self._entries:
                continue
            self.put(key, state)
            loaded += 1
        return loaded

    def dump(self, path: str | Path) -> int:
        """Write the entries to ``path``; returns how many were written."""
        Path(path).write_bytes(self.dump_bytes())
        return len(self._entries)

    def load(self, path: str | Path) -> int:
        """Merge entries from a file written by :meth:`dump`."""
        return self.load_bytes(Path(path).read_bytes())


#: Fixed-point iteration bucket bounds for ``repro_engine_solve_iterations``.
ENGINE_ITERATION_BUCKETS = (25, 50, 100, 200, 400, 600)


@dataclass
class EngineStats:
    """Running observability counters for one engine.

    Attributes
    ----------
    solves:
        Fixed-point solves actually performed (cache misses + uncached).
    cache_hits / cache_misses:
        Lookups served from / missed by the engine's :class:`SolveCache`
        (both stay 0 on an engine without a cache).
    cache_evictions:
        Entries a bounded :class:`SolveCache` pushed out to stay within
        ``max_entries`` (0 for unbounded caches).
    convergence_failures:
        Solves that raised :class:`~repro.sim.engine.ConvergenceError`.
    iteration_counts:
        Map from fixed-point iteration count to how many solves needed
        exactly that many iterations.
    batches:
        Batched fixed-point solves performed
        (:meth:`~repro.sim.engine.SimulationEngine.solve_steady_state_batched`
        calls that reached the stacked solver).
    batched_scenarios:
        Scenarios requested across all batched solves (cache hits and
        in-batch duplicates included) — divide by :attr:`batches` for the
        mean batch width.
    batch_dedupe_hits:
        Scenarios inside a batch whose :func:`solve_key` duplicated an
        earlier member of the *same* batch and were served from its solve
        instead of entering the stack.
    frozen_iterations_saved:
        Stacked iterations skipped because converged scenarios freeze:
        the sum over batch members of (batch iteration count - member's
        own convergence iteration).
    """

    solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    convergence_failures: int = 0
    iteration_counts: dict[int, int] = field(default_factory=dict)
    batches: int = 0
    batched_scenarios: int = 0
    batch_dedupe_hits: int = 0
    frozen_iterations_saved: int = 0

    @property
    def requests(self) -> int:
        """Total steady-state requests (cache hits + actual solves)."""
        return self.cache_hits + self.solves

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when idle)."""
        return self.cache_hits / self.requests if self.requests else 0.0

    def record_solve(self, iterations: int) -> None:
        """Count one completed fixed-point solve."""
        self.solves += 1
        self.iteration_counts[iterations] = (
            self.iteration_counts.get(iterations, 0) + 1
        )

    def record_hit(self) -> None:
        """Count one cache-served request."""
        self.cache_hits += 1

    def record_miss(self) -> None:
        """Count one cache lookup that fell through to a solve."""
        self.cache_misses += 1

    def record_eviction(self) -> None:
        """Count one bounded-cache LRU eviction."""
        self.cache_evictions += 1

    def record_failure(self) -> None:
        """Count one solve that failed to converge."""
        self.convergence_failures += 1

    def record_batch(
        self, scenarios: int, dedupe_hits: int, iterations_saved: int
    ) -> None:
        """Count one batched solve and its dedupe/freezing savings."""
        self.batches += 1
        self.batched_scenarios += scenarios
        self.batch_dedupe_hits += dedupe_hits
        self.frozen_iterations_saved += iterations_saved

    def merge(self, other: "EngineStats") -> None:
        """Fold another stats record (e.g. a worker process's) into this one."""
        self.solves += other.solves
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.convergence_failures += other.convergence_failures
        self.batches += other.batches
        self.batched_scenarios += other.batched_scenarios
        self.batch_dedupe_hits += other.batch_dedupe_hits
        self.frozen_iterations_saved += other.frozen_iterations_saved
        for iterations, count in other.iteration_counts.items():
            self.iteration_counts[iterations] = (
                self.iteration_counts.get(iterations, 0) + count
            )

    def render_prometheus(self) -> str:
        """This record's ``repro_engine_*`` families as Prometheus text."""
        out = Exposition()
        for name, help_text, value in (
            ("solves_total", "Fixed-point solves performed.", self.solves),
            ("cache_hits_total", "Steady-state cache hits.", self.cache_hits),
            ("cache_misses_total", "Steady-state cache misses.", self.cache_misses),
            ("cache_evictions_total", "Bounded solve-cache LRU evictions.",
             self.cache_evictions),
            ("convergence_failures_total", "Solves that failed to converge.",
             self.convergence_failures),
            ("batches_total", "Batched steady-state solves performed.",
             self.batches),
            ("batched_scenarios_total",
             "Scenarios requested across batched solves.",
             self.batched_scenarios),
            ("batch_dedupe_hits_total",
             "Scenarios served by deduplicating a repeated solve key within "
             "one batch.", self.batch_dedupe_hits),
            ("frozen_iterations_saved_total",
             "Stacked iterations skipped by freezing converged scenarios.",
             self.frozen_iterations_saved),
        ):
            out.counter(f"repro_engine_{name}", help_text, value)
        counts = [0] * (len(ENGINE_ITERATION_BUCKETS) + 1)
        for iterations, n in self.iteration_counts.items():
            counts[bisect_left(ENGINE_ITERATION_BUCKETS, iterations)] += n
        total = sum(i * n for i, n in self.iteration_counts.items())
        out.histogram(
            "repro_engine_solve_iterations",
            "Fixed-point iterations per solve.",
            [({}, ENGINE_ITERATION_BUCKETS, counts, total)],
        )
        return out.text()


#: Process-wide aggregate across every engine in this process.  Each solve
#: feeds both its engine's own ``stats`` and this record; the parallel
#: layers fold worker-process chunk stats in so one scrape of the metrics
#: registry (:mod:`repro.obs`) sees the whole run.
GLOBAL_ENGINE_STATS = EngineStats()
