"""Shared last-level cache occupancy: the waterfill split.

When several applications share an LRU cache, each one's resident capacity
is determined by the competition of their *insertion* streams: an
application inserts a new line on every miss, so in steady state occupancy
gravitates towards being proportional to each co-runner's miss (insertion)
rate.  Because an application's miss rate itself depends on the capacity it
holds (through its miss-ratio curve), the occupancies are the fixed point of

    c_i  =  C * r_i / sum_j r_j,      r_i = rate_i * m_i(c_i)

with two physical refinements:

* an application never occupies more than its footprint (it cannot insert
  lines it does not touch) — freed capacity is redistributed to the
  still-competing applications, and
* a small floor on the insertion pressure keeps nearly-cache-resident
  applications from collapsing to zero occupancy (they still stream cold
  misses through the cache).

The steady-state engine (:mod:`repro.sim.engine`) iterates this fixed
point together with throughput and DRAM latency, and owns the pressure
floor.  This module holds the step it repeats, the capped proportional
split, in two forms that agree bit for bit: :func:`waterfill_floats` for
one scenario and :func:`waterfill_batched` for a stacked sweep.  The
engine's occupancies and miss ratios are checked against the trace-driven
simulator (:mod:`repro.sim.tracesim`) in the test suite.  The sharp,
*nonlinear* growth of a target application's miss ratio as co-runner
footprints approach the cache capacity is the first of the two contention
mechanisms that make the paper's linear models plateau.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .reuse import ordered_sum

__all__ = ["waterfill_batched", "waterfill_floats"]


def waterfill_floats(
    pressure: Sequence[float], demand: Sequence[float], capacity: float
) -> list[float]:
    """Split ``capacity`` proportionally to ``pressure``, capped by ``demand``.

    Classic waterfilling on Python floats, for the few apps of one
    scenario: applications whose proportional share exceeds their demand
    are clipped and the slack re-split among the rest, in at most
    ``len(pressure)`` rounds.  Each round sums the active pressures left
    to right from ``+0.0`` and gives every active entry ``alloc +
    remaining * pressure / total`` (or an even split when no pressure is
    left), the masked arithmetic :func:`waterfill_batched` applies
    row-wise over ``(S, A)`` arrays.  Leaving the inactive entries out of
    a sum is exact, since the masked form adds ``+0.0`` for them, so the
    two are bit-identical per scenario, which the steady-state solvers
    rely on.
    """
    alloc = [0.0] * len(pressure)
    active = list(range(len(pressure)))
    remaining = float(capacity)
    for _ in range(len(pressure)):
        if remaining <= 0.0 or not active:
            break
        total = 0.0
        for i in active:
            total += pressure[i]
        if total <= 0.0:
            # No pressure left: split the remainder evenly among actives.
            even = remaining / len(active)
            proposed = [alloc[i] + even for i in active]
        else:
            proposed = [alloc[i] + remaining * pressure[i] / total for i in active]
        over = [p >= demand[i] for i, p in zip(active, proposed)]
        if not any(over):
            for i, p in zip(active, proposed):
                alloc[i] = p
            break
        # Satisfy the clipped apps fully, retire them, re-split the slack.
        slack = 0.0
        for i, clipped in zip(active, over):
            if clipped:
                slack += demand[i] - alloc[i]
        remaining -= slack
        for i, clipped in zip(active, over):
            if clipped:
                alloc[i] = demand[i]
        # The un-clipped apps are reconsidered next round from scratch so
        # that proportionality is preserved among survivors.
        active = [i for i, clipped in zip(active, over) if not clipped]
    return alloc


def waterfill_batched(
    pressure: np.ndarray,
    demand: np.ndarray,
    capacity: float | np.ndarray,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Scenario-vectorized :func:`waterfill_floats`: one call fills S rows.

    ``pressure`` and ``demand`` are ``(S, A)``; ``capacity`` is a scalar or
    an ``(S,)`` per-scenario vector.  ``valid`` masks padded entries of
    ragged scenario stacks — pad columns never compete, never count toward
    the even-split denominator, and always receive 0.0.

    Row ``s`` of the result is bit-identical to
    ``waterfill_floats(pressure[s, :n_s], demand[s, :n_s], capacity[s])``:
    each round performs the same masked arithmetic, rows finish
    independently (a finished row's allocation is frozen while others
    keep clipping), and all reductions share the sequential-accumulation
    discipline of :func:`~repro.cache.reuse.ordered_sum`.
    """
    pressure = np.asarray(pressure, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if pressure.ndim != 2 or pressure.shape != demand.shape:
        raise ValueError(
            f"pressure and demand must be matching (S, A) arrays, got "
            f"{pressure.shape} and {demand.shape}"
        )
    s, a = pressure.shape
    remaining = np.broadcast_to(np.asarray(capacity, dtype=float), (s,)).astype(float)
    active = (
        np.ones((s, a), dtype=bool) if valid is None else valid.astype(bool).copy()
    )
    alloc = np.zeros((s, a))
    for _ in range(a):
        live = active.any(axis=1) & (remaining > 0.0)
        if not live.any():
            break
        act = active & live[:, None]
        count = act.sum(axis=1)
        total = ordered_sum(np.where(act, pressure, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(
                (total > 0.0)[:, None],
                remaining[:, None] * pressure / total[:, None],
                (remaining / np.maximum(count, 1))[:, None],
            )
        share = np.where(act, share, 0.0)
        proposed = alloc + share
        over = act & (proposed >= demand)
        done = live & ~over.any(axis=1)
        alloc = np.where(done[:, None] & act, proposed, alloc)
        remaining = np.where(done, 0.0, remaining)
        # Clipped entries are satisfied fully and retired; their slack is
        # re-split among that row's survivors next round.
        remaining = remaining - ordered_sum(np.where(over, demand - alloc, 0.0))
        alloc = np.where(over, demand, alloc)
        active &= ~over
    return alloc
