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

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
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


def _git_sha() -> str:
    """The checkout's HEAD commit, or ``"unknown"`` outside a checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


@pytest.fixture(scope="session")
def bench_env() -> dict:
    """What a recorded point was measured with: code, host and versions."""
    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@pytest.fixture
def record(results_dir, bench_env):
    """Merge measurements into one ``results/BENCH_*.json`` trajectory file.

    ``record("BENCH_engine.json", solves_per_s=...)`` updates the named
    keys and leaves the file's other keys alone; ``env`` holds
    :func:`bench_env` of the latest write.
    """

    def _record(filename: str, **values) -> None:
        path = results_dir / filename
        payload = json.loads(path.read_text()) if path.exists() else {}
        payload.update(values)
        payload["env"] = bench_env
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _record
