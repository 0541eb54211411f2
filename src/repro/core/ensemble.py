"""Ensemble prediction with uncertainty estimates.

The paper reports point predictions; a resource manager acting on them
also needs to know *how much to trust each one* — a placement predicted at
300 ± 5 s is a different decision than 300 ± 60 s.  This module provides
the standard bootstrap-ensemble answer: train ``n_members`` models, each on
a bootstrap resample of the training observations with its own weight
initialization, and report the member spread alongside the mean.

The spread is a model-disagreement signal, not a calibrated posterior: it
grows off the training distribution (tested), which is exactly the alarm a
scheduler needs before trusting an exotic placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..counters.hpcrun import FlatProfile
from ..obs.trace import get_tracer
from ..parallel import map_chunks, spawn_streams, split_chunks
from .feature_sets import FeatureSet
from .features import CoLocationObservation, feature_matrix, feature_row
from .fitstats import GLOBAL_FIT_STATS, FitStats
from .methodology import ModelKind, make_model

__all__ = ["PredictionInterval", "EnsemblePredictor"]


def _fit_members(shared, chunk) -> list:
    """Fit one chunk of members, each on its resample with its own stream."""
    kind, feature_set, X, y = shared
    members = []
    for idx, rng in chunk:
        model = make_model(kind, feature_set, rng=rng)
        model.fit(X[idx], y[idx])
        members.append(model)
    return members


@dataclass(frozen=True)
class PredictionInterval:
    """An ensemble prediction: mean with a disagreement band."""

    mean_s: float
    std_s: float
    member_predictions: tuple[float, ...]

    @property
    def relative_spread(self) -> float:
        """Member standard deviation over the mean (dimensionless)."""
        return self.std_s / self.mean_s if self.mean_s else float("inf")

    def interval(self, k: float = 2.0) -> tuple[float, float]:
        """``mean ± k * std`` band."""
        return (self.mean_s - k * self.std_s, self.mean_s + k * self.std_s)


class EnsemblePredictor:
    """Bootstrap ensemble of co-location performance models.

    Parameters
    ----------
    kind, feature_set:
        As for :class:`~repro.core.methodology.PerformancePredictor`.
    n_members:
        Ensemble size; 5–10 gives stable spread estimates.
    seed:
        Root seed for resampling and member initialization.
    workers:
        Process-pool width for member fitting.  Members get
        SeedSequence-spawned per-member streams (resamples are drawn up
        front from the root generator), so any worker count produces the
        identical ensemble.
    """

    def __init__(
        self,
        kind: ModelKind = ModelKind.NEURAL,
        feature_set: FeatureSet = FeatureSet.F,
        *,
        n_members: int = 5,
        seed: int = 0,
        workers: int = 1,
    ) -> None:
        if n_members < 2:
            raise ValueError("an ensemble needs at least two members")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.kind = kind
        self.feature_set = feature_set
        self.n_members = n_members
        self.workers = workers
        self._rng = np.random.default_rng(seed)
        self._members: list | None = None
        self._processor_name: str | None = None
        self._train_size: int | None = None
        self.fit_stats_: FitStats | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has been called."""
        return self._members is not None

    @property
    def processor_name(self) -> str | None:
        """Machine the ensemble was trained for (None before fitting)."""
        return self._processor_name

    @property
    def train_size(self) -> int | None:
        """Observations the ensemble was fitted on (None before fitting
        or for artifacts loaded from disk without provenance)."""
        return self._train_size

    def fit(self, observations: list[CoLocationObservation]) -> "EnsemblePredictor":
        """Train every member on its own bootstrap resample."""
        machines = {o.processor_name for o in observations}
        if len(machines) > 1:
            raise ValueError(
                f"training data mixes machines {sorted(machines)}"
            )
        X, y = feature_matrix(observations, self.feature_set.features)
        n = X.shape[0]
        # All bootstrap resamples come off the root stream up front and
        # each member's initialization gets its own spawned child stream,
        # so the ensemble is identical for any ``workers`` count.
        resamples = [
            self._rng.integers(0, n, size=n) for _ in range(self.n_members)
        ]
        member_rngs = spawn_streams(self._rng, self.n_members)
        chunks = split_chunks(zip(resamples, member_rngs), self.workers)
        with get_tracer().span(
            "fit.ensemble",
            members=self.n_members,
            samples=n,
            workers=self.workers,
        ):
            members = [
                member
                for chunk in map_chunks(
                    _fit_members,
                    (self.kind, self.feature_set, X, y),
                    chunks,
                    workers=self.workers,
                )
                for member in chunk
            ]
        aggregate = FitStats()
        for member in members:
            member_stats = getattr(member, "fit_stats_", None)
            if isinstance(member_stats, FitStats):
                aggregate.merge(member_stats)
                if len(chunks) > 1:
                    # The fit fed its worker process's (discarded)
                    # process-wide record; count it in this one instead.
                    GLOBAL_FIT_STATS.merge(member_stats)
            else:
                # Models without their own record (the linear model)
                # count once here and once in the process-wide record.
                aggregate.record_fit()
                GLOBAL_FIT_STATS.record_fit()
        self.fit_stats_ = aggregate
        self._members = members
        self._processor_name = next(iter(machines))
        self._train_size = len(observations)
        return self

    def _check_fitted(self) -> None:
        if self._members is None:
            raise RuntimeError("ensemble is not fitted; call fit() first")

    def predict_interval(
        self,
        target_baseline: FlatProfile,
        co_app_baselines: list[FlatProfile],
    ) -> PredictionInterval:
        """Predict one placement with a disagreement band."""
        self._check_fitted()
        if self._processor_name is not None:
            for p in [target_baseline] + list(co_app_baselines):
                if p.processor_name != self._processor_name:
                    raise ValueError(
                        f"profile of {p.app_name!r} is from "
                        f"{p.processor_name!r}; ensemble trained on "
                        f"{self._processor_name!r}"
                    )
        row = feature_row(
            target_baseline, co_app_baselines, self.feature_set.features
        )[None, :]
        preds = np.array([float(m.predict(row)[0]) for m in self._members])
        return PredictionInterval(
            mean_s=float(preds.mean()),
            std_s=float(preds.std()),
            member_predictions=tuple(preds),
        )

    def predict_observations(
        self, observations: list[CoLocationObservation]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(means, stds)`` over labeled observations."""
        self._check_fitted()
        X, _y = feature_matrix(observations, self.feature_set.features)
        all_preds = np.stack([m.predict(X) for m in self._members])
        return all_preds.mean(axis=0), all_preds.std(axis=0)

    def predict_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Serving-path ``(means, stds)`` over raw feature rows.

        ``X`` is ``(n, k)`` with columns in ``feature_set.features`` order.
        Every member uses the row-stable kernel and the cross-member
        reductions are per-column, so each row's interval is bit-identical
        whether served alone or inside a micro-batch.
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
        all_preds = np.stack([m.predict_stable(X) for m in self._members])
        return all_preds.mean(axis=0), all_preds.std(axis=0)
