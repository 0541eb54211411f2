"""Greedy forward feature selection.

Table II's sets are hand-designed around what a resource manager learns
first.  Forward selection asks the data the same question: starting from
nothing, repeatedly add whichever feature reduces the cross-validated MPE
most.  The resulting order is a data-driven counterpart to Table II —
``bench_ablation_feature_order.py`` compares the two and checks the paper's
"co-app cache information matters most" conclusion a different way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .feature_sets import FeatureSet
from .features import CoLocationObservation, Feature, feature_matrix
from .validation import RegressionModel, repeated_random_subsampling

__all__ = ["SelectionStep", "forward_selection", "rank_feature_sets"]


@dataclass(frozen=True)
class SelectionStep:
    """One round of forward selection."""

    added: Feature
    selected: tuple[Feature, ...]
    test_mpe: float


def forward_selection(
    make_model: Callable[[], RegressionModel],
    observations: list[CoLocationObservation],
    *,
    candidates: tuple[Feature, ...] = tuple(Feature),
    max_features: int | None = None,
    repetitions: int = 10,
    test_fraction: float = 0.3,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> list[SelectionStep]:
    """Greedily grow a feature set by cross-validated MPE.

    Parameters
    ----------
    make_model:
        Fresh-model factory (same protocol as the validator).  The model
        is refit many times — ``O(max_features * |candidates| *
        repetitions)`` fits — but ``workers=N`` amortizes the cost by
        fanning each candidate's repetitions across a process pool, which
        makes even neural selection at full repetitions practical.
    observations:
        The dataset searched over.
    candidates:
        Features considered (defaults to all of Table I).
    max_features:
        Stop after this many features (default: all candidates).
    repetitions, test_fraction:
        Passed to the repeated random sub-sampling used to score each
        candidate set.
    rng:
        Split randomness; each candidate evaluation gets a child stream so
        scores are comparable within a round.
    workers:
        Process-pool width for each candidate's validation sweep; scores
        are bit-identical to ``workers=1`` (picklable factories only).

    Returns
    -------
    One :class:`SelectionStep` per round, in selection order.  Selection
    is *not* stopped early when the error plateaus — the full trajectory
    is the interesting output.
    """
    if not candidates:
        raise ValueError("need at least one candidate feature")
    if max_features is None:
        max_features = len(candidates)
    if not 1 <= max_features <= len(candidates):
        raise ValueError(
            f"max_features must be in [1, {len(candidates)}], got {max_features}"
        )
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    remaining = list(candidates)
    selected: list[Feature] = []
    steps: list[SelectionStep] = []
    for _round in range(max_features):
        scores = []
        seeds = rng.integers(0, 2**31, size=len(remaining))
        for candidate, seed in zip(remaining, seeds):
            trial = tuple(selected) + (candidate,)
            X, y = feature_matrix(observations, trial)
            result = repeated_random_subsampling(
                make_model,
                X,
                y,
                test_fraction=test_fraction,
                repetitions=repetitions,
                rng=np.random.default_rng(int(seed)),
                workers=workers,
            )
            scores.append(result.mean_test_mpe)
        best_idx = int(np.argmin(scores))
        best = remaining.pop(best_idx)
        selected.append(best)
        steps.append(
            SelectionStep(
                added=best,
                selected=tuple(selected),
                test_mpe=float(scores[best_idx]),
            )
        )
    return steps


def rank_feature_sets(
    make_model: Callable[[], RegressionModel],
    observations: list[CoLocationObservation],
    *,
    feature_sets: tuple[FeatureSet, ...] = tuple(FeatureSet),
    repetitions: int = 10,
    test_fraction: float = 0.3,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> list[tuple[FeatureSet, float]]:
    """Rank Table II's feature sets by cross-validated test MPE.

    The whole-set counterpart of :func:`forward_selection`: instead of
    growing a set feature-by-feature, score each predefined set with
    repeated random sub-sampling and sort ascending by mean test MPE.
    Each set gets a child seed drawn from ``rng`` in ``feature_sets``
    order, so the ranking is deterministic and ``workers`` only changes
    wall time (one validation sweep per set fans its repetitions across
    the pool, same contract as the validator).

    Returns ``(feature_set, mean_test_mpe)`` pairs, best first; ties keep
    ``feature_sets`` order (`sorted` is stable).
    """
    if not feature_sets:
        raise ValueError("need at least one feature set to rank")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    seeds = rng.integers(0, 2**31, size=len(feature_sets))
    scored = []
    for fs, seed in zip(feature_sets, seeds):
        X, y = feature_matrix(observations, fs.features)
        result = repeated_random_subsampling(
            make_model,
            X,
            y,
            test_fraction=test_fraction,
            repetitions=repetitions,
            rng=np.random.default_rng(int(seed)),
            workers=workers,
        )
        scored.append((fs, result.mean_test_mpe))
    return sorted(scored, key=lambda pair: pair[1])
