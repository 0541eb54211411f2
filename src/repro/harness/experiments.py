"""Per-table and per-figure experiment drivers (paper, Sections IV–V).

Each ``table*``/``figure*`` function regenerates the data behind one table
or figure of the paper from the simulated testbed.  Heavy artifacts — the
per-machine baseline tables, Table V training datasets, and 12-model
evaluations — are cached on an :class:`ExperimentContext` so the benchmark
suite shares one collection pass, mirroring how the paper collects data
once and evaluates many models on it.
"""

from __future__ import annotations

import numpy as np

from ..core.feature_sets import FEATURE_SETS, FeatureSet
from ..core.features import FEATURE_DESCRIPTIONS, Feature
from ..core.fitstats import FitStats
from ..core.methodology import (
    ModelEvaluation,
    ModelKind,
    PerformancePredictor,
    evaluate_models,
)
from ..core.metrics import percent_errors
from ..machine.processor import PROCESSOR_CATALOG, MulticoreProcessor
from ..sim.engine import SimulationEngine
from ..workloads.suite import all_applications, get_application, intended_class
from .baselines import BaselineTable, collect_baselines
from .collection import TRAINING_SETUPS, collect_training_data
from .datasets import ObservationDataset

__all__ = [
    "ExperimentContext",
    "default_context",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
    "figure_series",
    "figure5a_distributions",
    "figure5b_errors",
]

#: Reference machine for Table III intensities ("baseline measurements for
#: one specific system").
REFERENCE_MACHINE = "e5649"


class ExperimentContext:
    """Caches engines, baselines, datasets, and model evaluations.

    Parameters
    ----------
    seed:
        Root seed for all measurement noise and model randomness.
    repetitions:
        Random sub-sampling repetitions for the model evaluations; the
        paper uses 100.  Lower values trade headline fidelity for runtime.
    workers:
        Process-pool width for the validation sweeps inside
        :func:`~repro.core.methodology.evaluate_models`; results are
        bit-identical for any count.
    """

    def __init__(
        self,
        *,
        seed: int = 2015,
        repetitions: int = 100,
        workers: int = 1,
    ) -> None:
        self.seed = seed
        self.repetitions = repetitions
        self.workers = workers
        self.fit_stats = FitStats()
        self._engines: dict[str, SimulationEngine] = {}
        self._baselines: dict[str, BaselineTable] = {}
        self._datasets: dict[str, ObservationDataset] = {}
        self._evaluations: dict[str, list[ModelEvaluation]] = {}

    @staticmethod
    def processor(key: str) -> MulticoreProcessor:
        """Catalog machine for a short key (``"e5649"``/``"e5-2697v2"``)."""
        try:
            return PROCESSOR_CATALOG[key]
        except KeyError:
            known = ", ".join(sorted(PROCESSOR_CATALOG))
            raise KeyError(f"unknown machine {key!r}; catalog: {known}") from None

    def engine(self, key: str) -> SimulationEngine:
        """Cached simulation engine for one machine."""
        if key not in self._engines:
            self._engines[key] = SimulationEngine(self.processor(key))
        return self._engines[key]

    def baselines(self, key: str) -> BaselineTable:
        """Cached baseline table (all 11 apps x all 6 P-states, solo)."""
        if key not in self._baselines:
            self._baselines[key] = collect_baselines(
                self.engine(key), all_applications()
            )
        return self._baselines[key]

    def dataset(self, key: str) -> ObservationDataset:
        """Cached Table V training dataset for one machine."""
        if key not in self._datasets:
            self._datasets[key] = collect_training_data(
                self.engine(key),
                baselines=self.baselines(key),
                rng=np.random.default_rng([self.seed, len(key)]),
            )
        return self._datasets[key]

    def evaluations(self, key: str) -> list[ModelEvaluation]:
        """Cached 12-model evaluation (Figures 1–4 data) for one machine."""
        if key not in self._evaluations:
            self._evaluations[key] = evaluate_models(
                list(self.dataset(key)),
                repetitions=self.repetitions,
                seed=self.seed,
                workers=self.workers,
                stats=self.fit_stats,
            )
        return self._evaluations[key]


_DEFAULT_CONTEXT: ExperimentContext | None = None


def default_context() -> ExperimentContext:
    """Process-wide shared context (used by the benchmark suite)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ExperimentContext()
    return _DEFAULT_CONTEXT


# --------------------------------------------------------------- Tables


def table1_rows() -> list[list[str]]:
    """Table I: feature name and the aspect of execution it measures."""
    return [[f.value, FEATURE_DESCRIPTIONS[f]] for f in Feature]


def table2_rows() -> list[list[str]]:
    """Table II: feature set name and its feature groups."""
    return [
        [fs.value, ", ".join(f.value for f in FEATURE_SETS[fs])] for fs in FeatureSet
    ]


def table3_rows(ctx: ExperimentContext | None = None) -> list[list[object]]:
    """Table III: application, suite, baseline memory intensity, class.

    Intensities are measured from the baseline profiles on the reference
    machine at the fastest P-state, exactly as a real harness would.
    """
    ctx = ctx or default_context()
    baselines = ctx.baselines(REFERENCE_MACHINE)
    fmax = ctx.processor(REFERENCE_MACHINE).pstates.fastest.frequency_ghz
    rows = []
    for app in all_applications():
        profile = baselines.get(app.name, fmax)
        rows.append(
            [
                f"{app.name} ({app.suite[0]})",
                profile.memory_intensity,
                intended_class(app.name).roman,
            ]
        )
    return rows


def table4_rows() -> list[list[object]]:
    """Table IV: processor, cores, L3 size, frequency range."""
    rows = []
    for proc in PROCESSOR_CATALOG.values():
        ladder = proc.pstates
        rows.append(
            [
                proc.name,
                proc.num_cores,
                f"{proc.llc.size_mb:.0f}MB",
                f"{ladder.slowest.frequency_ghz:.2f}-{ladder.fastest.frequency_ghz:.2f} GHz",
            ]
        )
    return rows


def table5_rows() -> list[list[object]]:
    """Table V: per-machine P-state frequencies and co-location counts."""
    rows = []
    for key, setup in TRAINING_SETUPS.items():
        proc = PROCESSOR_CATALOG[key]
        rows.append(
            [
                proc.name,
                ", ".join(f"{f:.2f}" for f in proc.pstates.frequencies_ghz),
                ", ".join(str(c) for c in setup.co_location_counts),
            ]
        )
    return rows


def table6_rows(ctx: ExperimentContext | None = None) -> list[list[object]]:
    """Table VI: canneal vs increasing cg co-runners on the 12-core Xeon.

    Columns: co-located cg count, measured execution time, normalized
    execution time, and the feature-set-F linear and neural models'
    percent error on each point (models trained on the machine's Table V
    dataset).
    """
    ctx = ctx or default_context()
    key = "e5-2697v2"
    engine = ctx.engine(key)
    baselines = ctx.baselines(key)
    dataset = ctx.dataset(key)
    fmax = engine.processor.pstates.fastest
    canneal, cg = get_application("canneal"), get_application("cg")
    canneal_base = baselines.get("canneal", fmax.frequency_ghz)
    cg_base = baselines.get("cg", fmax.frequency_ghz)

    linear = PerformancePredictor(ModelKind.LINEAR, FeatureSet.F, seed=ctx.seed)
    linear.fit(list(dataset))
    neural = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F, seed=ctx.seed)
    neural.fit(list(dataset))

    rng = np.random.default_rng([ctx.seed, 6])
    rows: list[list[object]] = []
    for n in range(1, engine.processor.max_co_located + 1):
        run = engine.run(canneal, [cg] * n, pstate=fmax, rng=rng)
        actual = run.target.execution_time_s
        co_bases = [cg_base] * n
        pred_lin = linear.predict_time(canneal_base, co_bases)
        pred_nn = neural.predict_time(canneal_base, co_bases)
        rows.append(
            [
                n,
                actual,
                actual / canneal_base.wall_time_s,
                abs(pred_lin - actual) / actual * 100.0,
                abs(pred_nn - actual) / actual * 100.0,
            ]
        )
    return rows


# --------------------------------------------------------------- Figures


def figure_series(
    ctx: ExperimentContext | None,
    machine_key: str,
    metric: str,
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Figures 1–4 data: error versus feature set for one machine.

    Parameters
    ----------
    machine_key:
        ``"e5649"`` (Figures 1/3) or ``"e5-2697v2"`` (Figures 2/4).
    metric:
        ``"mpe"`` (Figures 1/2) or ``"nrmse"`` (Figures 3/4).

    Returns ``(x_labels, series)`` with one series per
    (technique, train/test) pair, each an array over feature sets A–F.
    """
    if metric not in ("mpe", "nrmse"):
        raise ValueError(f"metric must be 'mpe' or 'nrmse', got {metric!r}")
    ctx = ctx or default_context()
    evaluations = ctx.evaluations(machine_key)
    x_labels = [fs.value for fs in FeatureSet]
    series: dict[str, np.ndarray] = {}
    for kind in (ModelKind.LINEAR, ModelKind.NEURAL):
        for split in ("train", "test"):
            values = []
            for fs in FeatureSet:
                ev = next(
                    e
                    for e in evaluations
                    if e.kind is kind and e.feature_set is fs
                )
                values.append(getattr(ev.result, f"mean_{split}_{metric}"))
            series[f"{kind.value} {split}"] = np.array(values)
    return x_labels, series


def figure5a_distributions(
    ctx: ExperimentContext | None = None,
) -> dict[str, np.ndarray]:
    """Figure 5(a): per-application execution time samples on the 6-core.

    Every co-location test of the machine's dataset contributes its
    measured target execution time to its target application's
    distribution.
    """
    ctx = ctx or default_context()
    dataset = ctx.dataset(REFERENCE_MACHINE)
    return {
        name: np.array(
            [o.actual_time_s for o in dataset if o.target_name == name]
        )
        for name in dataset.target_names()
    }


def figure5b_errors(
    ctx: ExperimentContext | None = None,
    *,
    repetitions: int = 10,
    test_fraction: float = 0.3,
) -> dict[str, np.ndarray]:
    """Figure 5(b): per-application percent error of the neural/F model.

    Pools *held-out* percent errors across ``repetitions`` random 70/30
    splits so every distribution reflects predictions on unseen data, as
    in the paper's testing protocol.
    """
    ctx = ctx or default_context()
    dataset = ctx.dataset(REFERENCE_MACHINE)
    observations = list(dataset)
    n = len(observations)
    n_test = max(int(round(n * test_fraction)), 1)
    rng = np.random.default_rng([ctx.seed, 55])
    pooled: dict[str, list[float]] = {name: [] for name in dataset.target_names()}
    for _ in range(repetitions):
        perm = rng.permutation(n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        predictor = PerformancePredictor(
            ModelKind.NEURAL, FeatureSet.F, seed=int(rng.integers(2**31))
        )
        predictor.fit([observations[i] for i in train_idx])
        test_obs = [observations[i] for i in test_idx]
        preds = predictor.predict_observations(test_obs)
        actuals = np.array([o.actual_time_s for o in test_obs])
        errors = percent_errors(preds, actuals)
        for obs, err in zip(test_obs, errors):
            pooled[obs.target_name].append(float(err))
    return {name: np.array(vals) for name, vals in pooled.items() if vals}
