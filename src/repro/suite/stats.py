"""Suite-run counters and their Prometheus exposition.

Mirrors the pattern set by :class:`repro.sim.engine.EngineStats` /
``GLOBAL_ENGINE_STATS``: every :class:`~repro.suite.runner.SuiteRunner`
carries its own :class:`SuiteStats`, and each recording call also bumps
the process-wide :data:`GLOBAL_SUITE_STATS` aggregate, which is what the
``/metrics`` endpoint reads (``suite run --stats`` prints the runner's
own record through the same exposition).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.registry import Exposition

__all__ = ["GLOBAL_SUITE_STATS", "SuiteStats"]


@dataclass
class SuiteStats:
    """Counters for suite runs.

    ``nodes_skipped`` counts store hits during a run (the incremental
    win); ``nodes_resumed`` is the subset of skips attributable to a
    *prior* run of the same suite — i.e. manifests that already existed
    when the run started.
    """

    runs: int = 0
    nodes_run: int = 0
    nodes_skipped: int = 0
    nodes_failed: int = 0
    nodes_resumed: int = 0
    store_hits: int = 0
    store_misses: int = 0
    solve_cache_entries_loaded: int = 0
    solve_cache_entries_saved: int = 0

    def record_run(self) -> None:
        self.runs += 1
        if self is not GLOBAL_SUITE_STATS:
            GLOBAL_SUITE_STATS.runs += 1

    def record_node_run(self) -> None:
        self.nodes_run += 1
        self.store_misses += 1
        if self is not GLOBAL_SUITE_STATS:
            GLOBAL_SUITE_STATS.nodes_run += 1
            GLOBAL_SUITE_STATS.store_misses += 1

    def record_node_skipped(self, *, resumed: bool) -> None:
        self.nodes_skipped += 1
        self.store_hits += 1
        self.nodes_resumed += resumed
        if self is not GLOBAL_SUITE_STATS:
            GLOBAL_SUITE_STATS.nodes_skipped += 1
            GLOBAL_SUITE_STATS.store_hits += 1
            GLOBAL_SUITE_STATS.nodes_resumed += resumed

    def record_node_failed(self) -> None:
        self.nodes_failed += 1
        if self is not GLOBAL_SUITE_STATS:
            GLOBAL_SUITE_STATS.nodes_failed += 1

    def record_solve_cache(self, *, loaded: int = 0, saved: int = 0) -> None:
        self.solve_cache_entries_loaded += loaded
        self.solve_cache_entries_saved += saved
        if self is not GLOBAL_SUITE_STATS:
            GLOBAL_SUITE_STATS.solve_cache_entries_loaded += loaded
            GLOBAL_SUITE_STATS.solve_cache_entries_saved += saved

    def render_prometheus(self) -> str:
        """This record's ``repro_suite_*`` families as Prometheus text."""
        out = Exposition()
        for name, help_text, value in (
            ("runs_total", "Suite runs started.", self.runs),
            ("nodes_run_total", "Suite nodes executed.", self.nodes_run),
            ("nodes_skipped_total", "Suite nodes resolved from the store.",
             self.nodes_skipped),
            ("nodes_failed_total", "Suite nodes that raised.", self.nodes_failed),
            ("nodes_resumed_total", "Store hits left by a prior run.",
             self.nodes_resumed),
            ("store_hits_total", "Artifact-store node manifest hits.",
             self.store_hits),
            ("store_misses_total", "Artifact-store node manifest misses.",
             self.store_misses),
            ("solve_cache_loaded_total",
             "Solve-cache entries loaded from the store.",
             self.solve_cache_entries_loaded),
            ("solve_cache_saved_total",
             "Solve-cache entries persisted to the store.",
             self.solve_cache_entries_saved),
        ):
            out.counter(f"repro_suite_{name}", help_text, value)
        return out.text()


#: Process-wide aggregate across every runner in this process.
GLOBAL_SUITE_STATS = SuiteStats()
