"""Shared fixtures for the benchmark/reproduction harness.

Running ``pytest benchmarks/ --benchmark-only`` regenerates every table and
figure of the paper at full fidelity (100 random sub-sampling repetitions,
matching Section IV-B4) and writes each one under ``benchmarks/results/``.

Set ``REPRO_REPETITIONS`` to trade fidelity for speed (e.g. 10 for a quick
pass); the qualitative shapes are stable well below 100.

The model evaluations fan their validation sweeps out across
``REPRO_WORKERS`` processes (default: the machine's core count, capped at
8).  Any worker count is bit-identical to a serial sweep, so the reported
figures do not depend on it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.experiments import ExperimentContext


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """Full-fidelity experiment context shared across all benches."""
    repetitions = int(os.environ.get("REPRO_REPETITIONS", "100"))
    workers = int(os.environ.get("REPRO_WORKERS", "0")) or (os.cpu_count() or 1)
    return ExperimentContext(
        seed=2015,
        repetitions=repetitions,
        workers=min(workers, 8),
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture
def emit(results_dir):
    """Print a reproduced artifact and persist it under results/."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
