"""Last-level cache substrate: reuse profiles, LRU simulation, sharing.

* :mod:`repro.cache.reuse` — locality descriptions
  (:class:`~repro.cache.reuse.ReuseProfile`) and the miss-ratio curves
  the steady-state engine evaluates;
* :mod:`repro.cache.sharing` — the waterfill split of a shared cache,
  one step of the engine's occupancy fixed point;
* :mod:`repro.cache.setassoc` — a faithful trace-driven set-associative
  LRU cache (slow, ground truth), which :mod:`repro.sim.tracesim` uses to
  check the engine's shared-cache equilibrium.
"""

from .reuse import (
    MissRatioCurve,
    ProfileStack,
    ProfileTable,
    ReuseComponent,
    ReuseProfile,
    ordered_sum,
)
from .replacement import CacheSet, ReplacementPolicy, make_set
from .setassoc import CacheStats, SetAssociativeCache, measure_miss_ratio_curve
from .sharing import waterfill_batched, waterfill_floats

__all__ = [
    "CacheSet",
    "CacheStats",
    "MissRatioCurve",
    "ProfileStack",
    "ProfileTable",
    "ReplacementPolicy",
    "ReuseComponent",
    "ReuseProfile",
    "SetAssociativeCache",
    "make_set",
    "measure_miss_ratio_curve",
    "ordered_sum",
    "waterfill_batched",
    "waterfill_floats",
]
