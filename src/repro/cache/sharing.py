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
one scenario's applications and :func:`waterfill_batched` for a stacked
sweep, which holds one column per distinct application of each scenario
(copies of one application always get equal shares) and adds its totals
slot by slot through a :class:`~repro.cache.reuse.SlotLayout`.  The
engine's occupancies and miss ratios are checked against the trace-driven
simulator (:mod:`repro.sim.tracesim`) in the test suite.  The sharp,
*nonlinear* growth of a target application's miss ratio as co-runner
footprints approach the cache capacity is the first of the two contention
mechanisms that make the paper's linear models plateau.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .reuse import SlotLayout

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
    slots: np.ndarray,
) -> np.ndarray:
    """Scenario-vectorized :func:`waterfill_floats`: one call fills S rows.

    ``pressure`` and ``demand`` are ``(S, W)`` columns, one per distinct
    application of each scenario, and ``capacity`` is a scalar or an
    ``(S,)`` per-scenario vector.  ``slots`` is the ``(S, A)``
    slot-to-column index of a :class:`~repro.cache.reuse.SlotLayout`:
    entry ``[s, j]`` is one plus the column that scenario ``s``'s ``j``-th
    application reads, 0 past its last application.  A column no slot
    reads never competes and receives 0.0; a column read by ``k`` slots
    stands for ``k`` copies of one application, which always propose,
    clip and retire together.

    Row ``s`` of the result, laid out per slot, is bit-identical to
    ``waterfill_floats`` over scenario ``s``'s per-slot pressures and
    demands: each round's total and slack add the slots' values in slot
    order from ``+0.0`` (:meth:`~repro.cache.reuse.SlotLayout.sum`), the
    even split divides by the number of active slots (the active
    columns' multiplicities), and every other step is elementwise.  A
    row whose round clips nothing is finished; only the rows that clip
    enter the next round, which is where the per-scenario loop would
    stop the others too.
    """
    pressure = np.asarray(pressure, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if pressure.ndim != 2 or pressure.shape != demand.shape:
        raise ValueError(
            f"pressure and demand must be matching (S, W) arrays, got "
            f"{pressure.shape} and {demand.shape}"
        )
    s, w = pressure.shape
    slots = np.asarray(slots, dtype=np.intp)
    if slots.ndim != 2 or len(slots) != s:
        raise ValueError(
            f"slots must be an (S, A) index with S = {s}, got shape {slots.shape}"
        )
    layout = SlotLayout(slots, w)
    multiplicity = layout.multiplicity()
    active = multiplicity > 0
    remaining = np.empty(s)
    remaining[:] = capacity
    alloc = np.zeros((s, w))
    result = np.zeros((s, w))
    # The rows still competing, as an index into the result once some
    # have dropped out.
    rows = None
    for _ in range(w):
        live = active.any(axis=1) & (remaining > 0.0)
        if not live.all():
            if not live.any():
                break
            keep = np.flatnonzero(live)
            rows = keep if rows is None else rows[keep]
            pressure, demand, multiplicity, active, alloc, remaining = (
                x.take(keep, axis=0)
                for x in (pressure, demand, multiplicity, active, alloc, remaining)
            )
            layout = layout.subset(keep)
        total = layout.sum(np.where(active, pressure, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            share = remaining[:, None] * pressure / total[:, None]
        even = ~(total > 0.0)
        if even.any():
            # No pressure left: split the remainder evenly among the
            # active slots.
            count = np.where(active, multiplicity, 0).sum(axis=1)
            share = np.where(
                even[:, None], (remaining / np.maximum(count, 1))[:, None], share
            )
        proposed = alloc + share
        over = active & (proposed >= demand)
        settled = np.where(active, proposed, alloc)
        if rows is None:
            result = settled
        else:
            result[rows] = settled
        clipped = over.any(axis=1)
        if not clipped.any():
            break
        # Clipped entries are satisfied fully and retired; their slack is
        # re-split among that row's survivors next round.
        keep = np.flatnonzero(clipped)
        rows = keep if rows is None else rows[keep]
        pressure, demand, multiplicity, active, alloc, remaining, over = (
            x.take(keep, axis=0)
            for x in (pressure, demand, multiplicity, active, alloc, remaining, over)
        )
        layout = layout.subset(keep)
        remaining = remaining - layout.sum(np.where(over, demand - alloc, 0.0))
        alloc = np.where(over, demand, alloc)
        active = active & ~over
        result[rows] = alloc
    return result
