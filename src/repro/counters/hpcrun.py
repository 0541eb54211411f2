"""HPCToolkit ``hpcrun-flat`` profiler analog.

The paper collects counter data by running each application once under
HPCToolkit's flat profiler (Section IV-A2), which samples PAPI counters
with very low overhead and emits one profile per run.  This module
reproduces that workflow against the simulator: run an application (solo or
co-located), read the configured PAPI presets, and package everything into
a :class:`FlatProfile` record with the derived metrics the methodology
needs (memory intensity, CM/CA, CA/INS).

Profiles are plain serializable records; :func:`profile_to_dict` /
:func:`profile_from_dict` support persistence in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..machine.pstates import PState
from ..sim.engine import SimulationEngine
from ..workloads.app import ApplicationSpec
from .papi import EventSet, HardwareCounters, PresetEvent

__all__ = [
    "DEFAULT_EVENTS",
    "FlatProfile",
    "flat_profile_from_run",
    "hpcrun_flat",
    "profile_from_dict",
    "profile_to_dict",
]

#: The three counters the paper's testing environment records
#: (Section IV-A3): instructions (NI), LLC accesses (TCA), LLC misses (TCM).
DEFAULT_EVENTS: tuple[PresetEvent, ...] = (
    PresetEvent.PAPI_TOT_INS,
    PresetEvent.PAPI_L3_TCA,
    PresetEvent.PAPI_L3_TCM,
)


@dataclass(frozen=True)
class FlatProfile:
    """One flat-profiler output: wall time plus final counter totals.

    The derived ratios are computed once per profile object: a Table V
    sweep reads each baseline's ratios for every scenario it appears in,
    and ``counts`` is never written after construction.
    """

    app_name: str
    processor_name: str
    frequency_ghz: float
    wall_time_s: float
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def instructions(self) -> float:
        """PAPI_TOT_INS total."""
        return self.counts[PresetEvent.PAPI_TOT_INS.value]

    @property
    def llc_accesses(self) -> float:
        """Last-level total cache accesses (TCA)."""
        return self.counts[PresetEvent.PAPI_L3_TCA.value]

    @property
    def llc_misses(self) -> float:
        """Last-level total cache misses (TCM)."""
        return self.counts[PresetEvent.PAPI_L3_TCM.value]

    @cached_property
    def memory_intensity(self) -> float:
        """LLC misses per instruction (the paper's memory intensity)."""
        return self.llc_misses / self.instructions if self.instructions else 0.0

    @cached_property
    def cm_per_ca(self) -> float:
        """LLC misses per LLC access (Table I's CM/CA)."""
        return self.llc_misses / self.llc_accesses if self.llc_accesses else 0.0

    @cached_property
    def ca_per_ins(self) -> float:
        """LLC accesses per instruction (Table I's CA/INS)."""
        return self.llc_accesses / self.instructions if self.instructions else 0.0


def hpcrun_flat(
    engine: SimulationEngine,
    app: ApplicationSpec,
    *,
    co_runners: list[ApplicationSpec] | tuple[ApplicationSpec, ...] = (),
    pstate: PState | None = None,
    events: tuple[PresetEvent, ...] = DEFAULT_EVENTS,
    rng: np.random.Generator | None = None,
) -> FlatProfile:
    """Profile one application run, the way ``hpcrun-flat`` would.

    Runs ``app`` on ``engine`` (optionally co-located — the paper profiles
    baselines solo, but the harness also verifies that counters behave
    under co-location), wraps the run in the PAPI adapter, and reads the
    requested presets through a properly started/stopped event set.
    """
    run = engine.run(app, co_runners, pstate=pstate, rng=rng)
    return flat_profile_from_run(app, run, events=events)


def flat_profile_from_run(
    app: ApplicationSpec,
    run,
    *,
    events: tuple[PresetEvent, ...] = DEFAULT_EVENTS,
) -> FlatProfile:
    """Wrap an already-simulated :class:`~repro.sim.engine.ColocationRun`.

    The counter-reading half of :func:`hpcrun_flat`, split out so callers
    that simulate runs in bulk (the batched baseline collector) can profile
    them without re-entering the engine.
    """
    hardware = HardwareCounters(run.target, frequency_ghz=run.frequency_ghz)
    event_set = EventSet(hardware)
    for event in events:
        event_set.add_event(event)
    event_set.start()
    counts = event_set.stop()
    return FlatProfile(
        app_name=app.name,
        processor_name=run.processor_name,
        frequency_ghz=run.frequency_ghz,
        wall_time_s=run.target.execution_time_s,
        counts={e.value: v for e, v in counts.items()},
    )


def profile_to_dict(profile: FlatProfile) -> dict:
    """Serialize a profile to a plain dict (JSON/CSV friendly)."""
    return {
        "app_name": profile.app_name,
        "processor_name": profile.processor_name,
        "frequency_ghz": profile.frequency_ghz,
        "wall_time_s": profile.wall_time_s,
        "counts": dict(profile.counts),
    }


def profile_from_dict(data: dict) -> FlatProfile:
    """Inverse of :func:`profile_to_dict`."""
    return FlatProfile(
        app_name=str(data["app_name"]),
        processor_name=str(data["processor_name"]),
        frequency_ghz=float(data["frequency_ghz"]),
        wall_time_s=float(data["wall_time_s"]),
        counts={str(k): float(v) for k, v in data["counts"].items()},
    )
