"""Baseline (solo) measurement collection (paper, Section IV-B3).

"Initial baseline tests were run that measured each application's execution
without co-location across six P-state frequencies" — this module runs the
flat profiler on every application at every P-state of a machine and indexes
the resulting profiles by (application, frequency).

Baselines are measured *without* noise by default: they are the reference
the models and the normalized-time reports divide by.  Pass an ``rng`` to
model noisy baseline profiling instead (used by robustness tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..counters.hpcrun import FlatProfile, flat_profile_from_run
from ..sim.engine import SimulationEngine
from ..workloads.app import ApplicationSpec
from .parallel import map_scenario_batches, spawn_streams

__all__ = ["BaselineTable", "collect_baselines"]


@dataclass
class BaselineTable:
    """Solo profiles indexed by application name and P-state frequency."""

    processor_name: str
    profiles: dict[tuple[str, float], FlatProfile] = field(default_factory=dict)

    @staticmethod
    def _key(app_name: str, frequency_ghz: float) -> tuple[str, float]:
        return (app_name, round(float(frequency_ghz), 6))

    def add(self, profile: FlatProfile) -> None:
        """Index one baseline profile (duplicates are rejected)."""
        if profile.processor_name != self.processor_name:
            raise ValueError(
                f"profile from {profile.processor_name!r} in a "
                f"{self.processor_name!r} table"
            )
        key = self._key(profile.app_name, profile.frequency_ghz)
        if key in self.profiles:
            raise ValueError(f"duplicate baseline for {key}")
        self.profiles[key] = profile

    def get(self, app_name: str, frequency_ghz: float) -> FlatProfile:
        """Baseline profile of one app at one P-state."""
        key = self._key(app_name, frequency_ghz)
        try:
            return self.profiles[key]
        except KeyError:
            raise KeyError(
                f"no baseline for {app_name!r} at {frequency_ghz} GHz on "
                f"{self.processor_name}"
            ) from None

    def base_ex_times(self, app_name: str) -> dict[float, float]:
        """baseExTime at all measured P-states (Table I's first feature)."""
        out = {
            freq: p.wall_time_s
            for (name, freq), p in self.profiles.items()
            if name == app_name
        }
        if not out:
            raise KeyError(f"no baselines recorded for {app_name!r}")
        return dict(sorted(out.items(), reverse=True))

    def app_names(self) -> list[str]:
        """Distinct applications with baselines, sorted."""
        return sorted({name for (name, _freq) in self.profiles})


def _profile_scenario_batch(
    engine: SimulationEngine, payloads
) -> list[FlatProfile]:
    """Solo profiling runs as one stacked solve (module-level so worker
    processes can pickle it); each profile equals ``hpcrun_flat``'s."""
    runs = engine.run_batch(
        [(app, (), pstate, rng) for app, pstate, rng in payloads]
    )
    return [
        flat_profile_from_run(app, run)
        for (app, _pstate, _rng), run in zip(payloads, runs)
    ]


def collect_baselines(
    engine: SimulationEngine,
    apps: list[ApplicationSpec] | tuple[ApplicationSpec, ...],
    *,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> BaselineTable:
    """Profile every application solo at every P-state of the machine.

    ``workers > 1`` fans the (application, P-state) grid out across a
    process pool.  When an ``rng`` is given, each run draws its noise from
    its own child stream spawned from ``rng`` (keyed by grid index), so
    the table is identical for any worker count.
    """
    pairs = [
        (app, pstate) for app in apps for pstate in engine.processor.pstates
    ]
    streams: list = (
        spawn_streams(rng, len(pairs)) if rng is not None else [None] * len(pairs)
    )
    payloads = [(app, pstate, s) for (app, pstate), s in zip(pairs, streams)]
    profiles = map_scenario_batches(
        engine, _profile_scenario_batch, payloads, workers=workers
    )
    table = BaselineTable(processor_name=engine.processor.name)
    for profile in profiles:
        table.add(profile)
    return table
