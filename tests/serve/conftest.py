"""Shared fixtures for the serving subsystem tests.

Artifacts are linear models (instant to fit) except where a test needs
neural coverage explicitly; the served contract is identical for both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import EnsemblePredictor
from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.registry import ModelRegistry


@pytest.fixture(scope="session")
def observations(small_dataset):
    """The reduced training dataset as a plain list."""
    return list(small_dataset)


@pytest.fixture(scope="session")
def point_predictor(observations):
    """A fitted linear point predictor on feature set F."""
    return PerformancePredictor(
        ModelKind.LINEAR, FeatureSet.F, seed=3
    ).fit(observations)


@pytest.fixture(scope="session")
def other_predictor(observations):
    """A second, distinct artifact (different seed => different bytes)."""
    return PerformancePredictor(
        ModelKind.LINEAR, FeatureSet.F, seed=7
    ).fit(observations)


@pytest.fixture(scope="session")
def neural_predictor(observations):
    """A fitted neural predictor (small feature set keeps it fast)."""
    return PerformancePredictor(
        ModelKind.NEURAL, FeatureSet.B, seed=3
    ).fit(observations)


@pytest.fixture(scope="session")
def ensemble(observations):
    """A fitted 3-member linear bootstrap ensemble."""
    return EnsemblePredictor(
        ModelKind.LINEAR, FeatureSet.F, n_members=3, seed=3
    ).fit(observations)


@pytest.fixture(scope="session")
def feature_rows(observations):
    """Feature-set-F rows for the first dozen observations."""
    return np.array(
        [
            [obs.feature_value(f) for f in FeatureSet.F.features]
            for obs in observations[:12]
        ]
    )


@pytest.fixture(scope="session")
def feature_dicts(feature_rows):
    """The same rows as JSON-ready feature dicts."""
    names = [f.value for f in FeatureSet.F.features]
    return [
        {name: float(value) for name, value in zip(names, row)}
        for row in feature_rows
    ]


@pytest.fixture
def registry(tmp_path):
    """A fresh empty registry rooted in the test's tmp dir."""
    return ModelRegistry(tmp_path / "registry")


@pytest.fixture
def populated_registry(registry, point_predictor, ensemble):
    """A registry holding ``point@1`` and ``band@1``."""
    registry.push("point", point_predictor)
    registry.push("band", ensemble)
    return registry
