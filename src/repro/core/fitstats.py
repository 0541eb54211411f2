"""Observability counters for the model-fitting pipeline.

The Figures 1–4 grid is 100 random 70/30 splits x 12 models x 2 machines,
and every neural fit multiplies that by SCG restarts — the fitting half of
the methodology is where the bench wall-time goes.  :class:`FitStats` is
the fitting counterpart of the simulation layer's
:class:`~repro.sim.solve_cache.EngineStats`: a mergeable record of fits,
restarts, SCG iterations, gradient evaluations, and wall time, carried
per-fit by :class:`~repro.core.neural.NeuralNetworkModel` (``fit_stats_``),
accumulated per-model-instance (``stats``), and aggregated across
repetitions by the validation protocols (``ValidationResult.fit_stats``).

The validation layer's process-parallel path returns one record per
repetition and merges them **in repetition order**, so every count (though
not wall time, which is measured per process) is identical no matter how
many workers ran the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.registry import Exposition

__all__ = ["FitStats", "GLOBAL_FIT_STATS"]


@dataclass
class FitStats:
    """Running counters for model fitting.

    Attributes
    ----------
    fits:
        Completed ``fit`` calls (one per repetition/fold/restart group).
    restarts:
        Independent weight initializations optimized (equals ``fits`` for
        deterministic models, ``fits * n_restarts`` for neural fits).
    scg_iterations:
        SCG iterations advanced, summed over restarts.
    function_evals / gradient_evals:
        Loss / gradient evaluations (evaluated jointly by the neural loss,
        so the two usually match).
    wall_time_s:
        Wall-clock seconds spent inside ``fit``.  Under process-parallel
        validation this sums per-worker time, which can exceed elapsed
        time — that surplus *is* the parallel speedup.
    """

    fits: int = 0
    restarts: int = 0
    scg_iterations: int = 0
    function_evals: int = 0
    gradient_evals: int = 0
    wall_time_s: float = 0.0

    def record_fit(
        self,
        *,
        restarts: int = 1,
        scg_iterations: int = 0,
        function_evals: int = 0,
        gradient_evals: int = 0,
        wall_time_s: float = 0.0,
    ) -> None:
        """Count one completed ``fit`` call."""
        self.fits += 1
        self.restarts += restarts
        self.scg_iterations += scg_iterations
        self.function_evals += function_evals
        self.gradient_evals += gradient_evals
        self.wall_time_s += wall_time_s

    def merge(self, other: "FitStats") -> None:
        """Fold another record (e.g. a worker process's) into this one."""
        self.fits += other.fits
        self.restarts += other.restarts
        self.scg_iterations += other.scg_iterations
        self.function_evals += other.function_evals
        self.gradient_evals += other.gradient_evals
        self.wall_time_s += other.wall_time_s

    def render_prometheus(self) -> str:
        """This record's ``repro_fit_*`` families as Prometheus text."""
        out = Exposition()
        for name, help_text, value in (
            ("fits_total", "Completed model fit calls.", self.fits),
            ("restarts_total", "SCG weight initializations optimized.",
             self.restarts),
            ("scg_iterations_total", "SCG iterations advanced.",
             self.scg_iterations),
            ("function_evals_total", "Loss evaluations.", self.function_evals),
            ("gradient_evals_total", "Gradient evaluations.",
             self.gradient_evals),
            ("wall_seconds_total", "Wall seconds inside fit calls (sums "
             "per-process time under parallel validation).", self.wall_time_s),
        ):
            out.counter(f"repro_fit_{name}", help_text, value)
        return out.text()


#: Process-wide aggregate across every model fit in this process.  Neural
#: fits feed it directly; the validation layer's process-parallel path
#: folds worker chunk records in, so one scrape of the metrics registry
#: (:mod:`repro.obs`) sees the whole run.
GLOBAL_FIT_STATS = FitStats()
