"""Trace-driven shared-cache co-location simulation.

The slow, faithful counterpart of the analytic engine: synthetic address
traces for every co-located application are interleaved (in proportion to
their access rates) through one shared set-associative LRU cache, and the
per-application miss ratios and occupancies that *emerge* are measured.

This module exists to check the steady-state engine's shared-cache
equilibrium — the rate-proportional occupancy fixed point that
:meth:`repro.sim.engine.SimulationEngine.solve_steady_state` iterates —
against ground truth.  It operates on validation-scale profiles (use
:func:`repro.workloads.tracegen.scaled_profile` to shrink the Table III
applications); driving it with full-size footprints would need billions of
references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.setassoc import SetAssociativeCache
from ..machine.processor import CacheGeometry
from ..cache.reuse import ReuseProfile
from ..workloads.tracegen import generate_trace

__all__ = ["TraceCompetitor", "TraceSharingResult", "simulate_trace_sharing"]


@dataclass(frozen=True)
class TraceCompetitor:
    """One application in a trace-driven sharing experiment.

    ``access_weight`` is the application's relative LLC access rate; the
    interleaver issues its references with this probability.
    """

    name: str
    profile: ReuseProfile
    access_weight: float

    def __post_init__(self) -> None:
        if self.access_weight <= 0.0:
            raise ValueError("access weight must be positive")


@dataclass(frozen=True)
class TraceSharingResult:
    """Measured steady-state behaviour of a shared cache under co-location.

    All arrays are indexed like the competitor list.
    """

    names: tuple[str, ...]
    miss_ratios: np.ndarray
    occupancies_bytes: np.ndarray
    accesses: np.ndarray
    total_references: int


def simulate_trace_sharing(
    competitors: list[TraceCompetitor],
    geometry: CacheGeometry,
    num_references: int,
    rng: np.random.Generator,
    *,
    warmup_fraction: float = 0.3,
) -> TraceSharingResult:
    """Interleave competitor traces through one shared cache.

    Parameters
    ----------
    competitors:
        The co-located applications.
    geometry:
        Shared cache shape.
    num_references:
        Total interleaved references (across all competitors).
    rng:
        Drives both trace generation and the interleaving.
    warmup_fraction:
        Leading fraction of references excluded from the reported stats
        (the cache must reach steady-state occupancy first).

    Notes
    -----
    Each competitor's trace wraps around when exhausted, modeling the
    paper's continuously-restarted co-located applications.
    """
    if not competitors:
        raise ValueError("need at least one competitor")
    if num_references <= 0:
        raise ValueError("need a positive reference budget")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup fraction must be in [0, 1)")

    weights = np.array([c.access_weight for c in competitors], dtype=float)
    weights = weights / weights.sum()

    # Pre-generate one trace per competitor, sized to its expected share.
    traces = []
    for c, w in zip(competitors, weights):
        length = max(int(num_references * w), 1024)
        traces.append(generate_trace(c.profile, geometry.line_bytes, length, rng))

    owners = rng.choice(len(competitors), size=num_references, p=weights)
    cache = SetAssociativeCache(geometry)
    cursors = np.zeros(len(competitors), dtype=np.int64)

    warmup = int(num_references * warmup_fraction)
    for step, owner in enumerate(owners):
        if step == warmup:
            cache.reset_stats()
        trace = traces[owner]
        line = int(trace[cursors[owner] % len(trace)])
        cursors[owner] += 1
        cache.access(line, owner=int(owner))

    miss = np.empty(len(competitors))
    acc = np.empty(len(competitors), dtype=np.int64)
    occ = np.empty(len(competitors))
    for i in range(len(competitors)):
        stats = cache.owner_stats(i)
        miss[i] = stats.miss_ratio
        acc[i] = stats.accesses
        occ[i] = cache.occupancy(i) * geometry.line_bytes
    return TraceSharingResult(
        names=tuple(c.name for c in competitors),
        miss_ratios=miss,
        occupancies_bytes=occ,
        accesses=acc,
        total_references=num_references,
    )
