"""Shared fixtures for the scheduling tests."""

from __future__ import annotations

import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, PerformancePredictor
from repro.harness.baselines import collect_baselines
from repro.machine import XEON_E5649
from repro.sched.cluster import JobRequest
from repro.workloads.suite import all_applications, get_application


@pytest.fixture(scope="session")
def sched_predictor(small_dataset):
    """A fitted linear predictor (feature set F) for placement scoring."""
    return PerformancePredictor(ModelKind.LINEAR, FeatureSet.F, seed=3).fit(
        list(small_dataset)
    )


@pytest.fixture(scope="session")
def baselines_12core(engine_12core):
    """Baseline table for all 11 apps on the 12-core machine."""
    return collect_baselines(engine_12core, all_applications())


def batch(names: list[str]) -> list[JobRequest]:
    """A batch: every job arrives at t = 0, offered in list order."""
    return [
        JobRequest(app=get_application(n), arrival_s=0.0, job_id=i)
        for i, n in enumerate(names)
    ]


def heaviest_first(names: list[str]) -> list[str]:
    """Job names by solo memory intensity, the most intensive first."""
    llc_bytes = float(XEON_E5649.llc.size_bytes)
    return sorted(
        names,
        key=lambda n: get_application(n).solo_memory_intensity(llc_bytes),
        reverse=True,
    )
