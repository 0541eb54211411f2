"""The end-to-end modeling methodology (paper, Section III).

Ties the pieces together:

* :func:`make_model` — one of the paper's 12 models (2 techniques x 6
  feature sets);
* :func:`evaluate_models` — the Figures 1–4 evaluation: every model,
  repeated random sub-sampling, MPE + NRMSE on train and test partitions;
* :class:`PerformancePredictor` — the deployable artifact: a model trained
  on one machine's co-location data that predicts execution time for a
  *prospective* co-location from baseline profiles alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..counters.hpcrun import FlatProfile
from .feature_sets import FeatureSet
from .features import CoLocationObservation, feature_matrix, feature_row
from .fitstats import FitStats
from .linear import LinearModel
from .neural import NeuralNetworkModel, default_hidden_units
from .validation import RegressionModel, ValidationResult, repeated_random_subsampling

__all__ = [
    "ModelKind",
    "ModelEvaluation",
    "PerformancePredictor",
    "evaluate_models",
    "make_model",
]


class ModelKind(enum.Enum):
    """The two machine-learning techniques of Section III."""

    LINEAR = "linear"
    NEURAL = "neural"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def make_model(
    kind: ModelKind,
    feature_set: FeatureSet,
    *,
    rng: np.random.Generator | None = None,
) -> RegressionModel:
    """Instantiate one unfitted model of the paper's 12-model grid.

    The neural variant sizes its hidden layer from the feature count
    (Section III-D's "ten to twenty nodes depending on the model feature
    set").  ``rng`` seeds the network initialization; linear models are
    deterministic and ignore it.
    """
    if kind is ModelKind.LINEAR:
        return LinearModel()
    n_features = len(feature_set.features)
    model = NeuralNetworkModel(hidden_units=default_hidden_units(n_features))
    if rng is not None:
        # Bind the rng into fit so the validation protocol (fit(X, y))
        # stays uniform across model kinds.  A partial of the bound method
        # (not a closure) keeps the model picklable.
        model.fit = partial(model.fit, rng=rng)  # type: ignore[method-assign]
    return model


@dataclass(frozen=True)
class ModelEvaluation:
    """One point of Figures 1–4: a (technique, feature set) pair's errors."""

    kind: ModelKind
    feature_set: FeatureSet
    result: ValidationResult

    @property
    def label(self) -> str:
        """Short identifier, e.g. ``"neural/F"``."""
        return f"{self.kind.value}/{self.feature_set.value}"


def evaluate_models(
    observations: list[CoLocationObservation],
    *,
    kinds: tuple[ModelKind, ...] = (ModelKind.LINEAR, ModelKind.NEURAL),
    feature_sets: tuple[FeatureSet, ...] = tuple(FeatureSet),
    repetitions: int = 100,
    test_fraction: float = 0.3,
    seed: int = 0,
    workers: int = 1,
    stats: FitStats | None = None,
) -> list[ModelEvaluation]:
    """Run the paper's full model evaluation over one machine's dataset.

    Returns one :class:`ModelEvaluation` per (kind, feature set) pair —
    twelve by default, matching Section V-A.  Each pair gets an
    independent, deterministic RNG stream (split permutations plus one
    spawned fit stream per repetition), so results do not depend on
    evaluation order or on ``workers`` — ``workers=N`` fans the
    repetitions across a process pool with bit-identical output.
    ``stats`` (optional, shared) accumulates every fit's
    :class:`~repro.core.fitstats.FitStats`.
    """
    evaluations = []
    for kind in kinds:
        for fs in feature_sets:
            X, y = feature_matrix(observations, fs.features)
            rng = np.random.default_rng([seed, ord(kind.value[0]), ord(fs.value)])
            result = repeated_random_subsampling(
                partial(make_model, kind, fs),
                X,
                y,
                test_fraction=test_fraction,
                repetitions=repetitions,
                rng=rng,
                workers=workers,
                stats=stats,
            )
            evaluations.append(ModelEvaluation(kind=kind, feature_set=fs, result=result))
    return evaluations


class PerformancePredictor:
    """A trained co-location performance model for one machine.

    Train once on a machine's collected observations; then predict the
    co-located execution time of any prospective placement from baseline
    profiles only::

        predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F)
        predictor.fit(observations)
        t = predictor.predict_time(target_baseline, co_app_baselines)
    """

    def __init__(
        self,
        kind: ModelKind = ModelKind.NEURAL,
        feature_set: FeatureSet = FeatureSet.F,
        *,
        seed: int = 0,
    ) -> None:
        self.kind = kind
        self.feature_set = feature_set
        self._rng = np.random.default_rng(seed)
        self._model: RegressionModel | None = None
        self._processor_name: str | None = None
        self._train_size: int | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has been called."""
        return self._model is not None

    @property
    def train_size(self) -> int | None:
        """Observations the predictor was fitted on (None before fitting
        or for artifacts loaded from disk without provenance)."""
        return self._train_size

    @property
    def processor_name(self) -> str | None:
        """Machine the predictor was trained for (None before fitting).

        A co-location model encodes one machine's contention behaviour
        (Section IV trains per machine); prediction methods reject
        baseline profiles measured on a different machine.
        """
        return self._processor_name

    def fit(self, observations: list[CoLocationObservation]) -> "PerformancePredictor":
        """Train on collected co-location observations (one machine's)."""
        machines = {obs.processor_name for obs in observations}
        if len(machines) > 1:
            raise ValueError(
                f"training data mixes machines {sorted(machines)}; the "
                f"methodology trains one model per machine"
            )
        X, y = feature_matrix(observations, self.feature_set.features)
        model = make_model(self.kind, self.feature_set, rng=self._rng)
        model.fit(X, y)
        self._model = model
        self._processor_name = next(iter(machines))
        self._train_size = len(observations)
        return self

    def _check_fitted(self) -> None:
        if self._model is None:
            raise RuntimeError("predictor is not fitted; call fit() first")

    def _check_machine(self, profiles: list[FlatProfile]) -> None:
        if self._processor_name is None:
            return  # loaded from disk without provenance; trust the caller
        for p in profiles:
            if p.processor_name != self._processor_name:
                raise ValueError(
                    f"profile of {p.app_name!r} is from "
                    f"{p.processor_name!r} but this predictor was trained "
                    f"on {self._processor_name!r}"
                )

    def predict_time(
        self,
        target_baseline: FlatProfile,
        co_app_baselines: list[FlatProfile],
    ) -> float:
        """Predicted co-located execution time, in seconds.

        ``target_baseline`` must be measured at the P-state the placement
        will run at (the baseExTime feature is per P-state) and, like the
        co-app baselines, on the machine the predictor was trained for.
        """
        self._check_fitted()
        self._check_machine([target_baseline] + list(co_app_baselines))
        row = feature_row(target_baseline, co_app_baselines, self.feature_set.features)
        return float(self._model.predict(row[None, :])[0])

    def predict_slowdown(
        self,
        target_baseline: FlatProfile,
        co_app_baselines: list[FlatProfile],
    ) -> float:
        """Predicted normalized execution time (>= ~1.0 for real contention)."""
        return self.predict_time(target_baseline, co_app_baselines) / target_baseline.wall_time_s

    def predict_observations(
        self, observations: list[CoLocationObservation]
    ) -> np.ndarray:
        """Vectorized prediction over labeled observations (for evaluation)."""
        self._check_fitted()
        X, _y = feature_matrix(observations, self.feature_set.features)
        return self._model.predict(X)

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """Serving-path prediction over raw feature rows.

        ``X`` is ``(n, k)`` with columns in ``feature_set.features`` order.
        Uses the row-stable kernel, so the prediction for a row is
        bit-identical whether it is served alone or inside a micro-batch.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        expected = len(self.feature_set.features)
        if X.ndim != 2 or X.shape[1] != expected:
            raise ValueError(
                f"feature rows must be (n, {expected}) for set "
                f"{self.feature_set.value}; got {X.shape}"
            )
        return self._model.predict_stable(X)
