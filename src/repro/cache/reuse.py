"""Reuse-distance profiles and miss-ratio curves.

Every synthetic application in :mod:`repro.workloads` carries a
:class:`ReuseProfile` describing its temporal locality: a mixture of
working-set components, each a plateau in the classic miss-ratio-versus-
capacity curve.  From the profile we derive

* a :class:`MissRatioCurve` — miss ratio as a function of allocated LLC
  capacity, which the steady-state engine (:mod:`repro.sim.engine`)
  evaluates on every fixed-point iteration, and
* a stack-distance distribution — used by the synthetic trace generator
  (:mod:`repro.workloads.tracegen`) to emit address streams whose behaviour
  in a real (simulated) LRU cache matches the profile.

The mixture component shape is a Hill function ``1 / (1 + (c / ws)**p)``:
close to 1 when the allocated capacity ``c`` is far below the component's
working-set size ``ws`` and decaying towards 0 once the working set fits,
with sharpness ``p``.  A compulsory (cold) miss floor is never avoidable
regardless of capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ReuseComponent",
    "ReuseProfile",
    "MissRatioCurve",
    "ProfileTable",
    "ProfileStack",
    "SlotLayout",
    "distinct_columns",
    "distinct_index",
    "ordered_sum",
]


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Strict left-to-right sum along the last axis.

    The reduction-order discipline shared by the serial and the batched
    steady-state solvers: ``np.sum`` switches accumulation trees with the
    element count (pairwise blocks kick in at eight elements), so a padded
    ``(S, A)`` row and its unpadded ``(n,)`` serial counterpart would not
    reduce bitwise-identically through it.  A sequential accumulation
    starting from zero is invariant under trailing exact-zero padding —
    ``x + 0.0 == x`` for every finite ``x`` — which is what makes the
    batched solver bit-identical to the per-scenario loop.  The batched
    solver holds one column per distinct application, so it first lays
    its columns out per slot (:meth:`SlotLayout.sum`): the sum then adds
    each application's term once per copy, in slot order, and an empty
    slot past a scenario's last application adds an exact 0.0.

    Returns a scalar ``np.float64`` for 1-D input, an array with the last
    axis reduced otherwise.  The last axis is expected to be small (apps
    per scenario, mixture components): the Python-level loop is a handful
    of vectorized adds.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        total = 0.0
        for v in x.tolist():
            total += v
        return np.float64(total)
    out = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        out += x[..., j]
    return out


def distinct_index(
    rows: Sequence[Sequence[object]], width: int | None = None
) -> tuple[list, np.ndarray]:
    """The distinct objects of ragged ``rows`` and a padded gather index.

    Returns ``(items, index)``: ``items`` lists each distinct object once,
    in first-seen order, and ``index`` is a ``(len(rows), width)`` integer
    array whose ``[s, j]`` entry is one plus the position in ``items`` of
    ``rows[s][j]``, or 0 past the end of row ``s``.  A table with an inert
    pad row 0 followed by one row per item is therefore gathered into
    padded ``(S, A)`` form by a single ``table[index]``.

    Objects are told apart by identity, not equality: hashing a frozen
    dataclass costs about as much as reading the values it holds, while
    a sweep repeats the same few application objects thousands of times.
    ``width`` defaults to the longest row.
    """
    if width is None:
        width = max((len(row) for row in rows), default=0)
    positions: dict[int, int] = {}
    items: list = []
    flat: list[int] = []
    for row in rows:
        for item in row:
            position = positions.get(id(item))
            if position is None:
                items.append(item)
                position = positions[id(item)] = len(items)
            flat.append(position)
        flat.extend([0] * (width - len(row)))
    return items, np.array(flat, dtype=np.intp).reshape(len(rows), width)


def distinct_columns(
    index: np.ndarray, separate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distinct entries of a :func:`distinct_index` index.

    Returns ``(columns, slots)``.  ``columns`` is ``(S, W)``: row ``s``
    lists the distinct nonzero entries of ``index[s]`` in first-seen
    order, then 0s, and ``W`` is the most any row needs.  ``slots`` is
    ``(S, A)``, shaped like ``index``: ``slots[s, j]`` is one plus the
    column holding ``index[s, j]``, or 0 where ``index[s, j]`` is 0.
    ``columns`` gathers tables the way ``index`` does, one entry per
    distinct application of a row, and :class:`SlotLayout` lays the
    column values back out in slot order.

    Rows flagged in the boolean ``separate`` keep one column per slot,
    repeats included.
    """
    index = np.asarray(index, dtype=np.intp)
    s, a = index.shape
    valid = index != 0
    positions = np.arange(a)
    rows = np.arange(s)[:, None]
    # first[s, j]: the leftmost slot of row s holding index[s, j].  Filling
    # a per-row table from the right leaves each entry's leftmost slot.
    stride = int(index.max(initial=0)) + 1
    entries = index + stride * rows
    leftmost = np.empty(stride * s, dtype=np.intp)
    for j in range(a - 1, -1, -1):
        leftmost[entries[:, j]] = j
    first = leftmost[entries]
    first[separate] = positions
    opens = (first == positions) & valid
    column = np.cumsum(opens, axis=1)
    slots = column.ravel()[first + a * rows] * valid
    width = int(column[:, -1].max()) if s and a else 0
    columns = np.zeros((s, width), dtype=np.intp)
    at_row, at_slot = np.nonzero(opens)
    columns[at_row, column[at_row, at_slot] - 1] = index[at_row, at_slot]
    return columns, slots


class SlotLayout:
    """Where each application slot of a column-stacked batch reads.

    A batch stacked one column per distinct application of each row
    (see :func:`distinct_columns`) still has to add its per-application
    terms slot by slot, in the order a per-scenario solve adds them.
    ``slots`` is ``(S, A)``: one plus the column of row ``s`` that slot
    ``j`` reads, 0 for an empty slot; ``width`` is the column count
    ``W``.  :meth:`gather` lays ``(S, W)`` column values out as
    ``(S, A)``, an empty slot reading an exact 0.0, through one flat
    index built here, so every gather of one row set reuses it.
    """

    def __init__(self, slots: np.ndarray, width: int) -> None:
        self.slots = np.asarray(slots, dtype=np.intp)
        self.width = int(width)
        rows = len(self.slots)
        # Row s of the gather buffer is a 0.0 followed by its W columns.
        self._flat = self.slots + (self.width + 1) * np.arange(rows)[:, None]

    def gather(self, columns: np.ndarray) -> np.ndarray:
        """``(S, W)`` column values as ``(S, A)`` slot values."""
        buffer = np.empty((len(columns), self.width + 1))
        buffer[:, 0] = 0.0
        buffer[:, 1:] = columns
        return buffer.ravel()[self._flat]

    def sum(self, columns: np.ndarray) -> np.ndarray:
        """Each row's :func:`ordered_sum` over its slots' values.

        A column read by ``k`` slots is added ``k`` times, each at its
        slot's place in the order, and empty slots add 0.0.
        """
        return ordered_sum(self.gather(columns))

    def multiplicity(self) -> np.ndarray:
        """``(S, W)`` count of the slots that read each column."""
        rows = len(self.slots)
        counts = np.bincount(self._flat.ravel(), minlength=rows * (self.width + 1))
        return counts.reshape(rows, self.width + 1)[:, 1:]

    def subset(self, rows: np.ndarray) -> "SlotLayout":
        """The layout of rows ``rows`` (an index array)."""
        return SlotLayout(self.slots.take(rows, axis=0), self.width)


@dataclass(frozen=True)
class ReuseComponent:
    """One working-set plateau of a reuse profile.

    Attributes
    ----------
    working_set_bytes:
        Capacity at which this component's accesses start hitting.
    weight:
        Fraction of all LLC accesses that belong to this component.
        Weights across a profile's components sum to 1.
    sharpness:
        Hill exponent; larger values give a sharper knee at the working-set
        size.  Typical hardware-measured MRCs have knees with ``p`` in 2–6.
    """

    working_set_bytes: float
    weight: float
    sharpness: float = 3.0

    def __post_init__(self) -> None:
        if self.working_set_bytes <= 0.0:
            raise ValueError("working set size must be positive")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("component weight must be in (0, 1]")
        if self.sharpness <= 0.0:
            raise ValueError("sharpness must be positive")

    def miss_fraction(self, capacity_bytes: np.ndarray | float) -> np.ndarray | float:
        """Fraction of this component's accesses that miss at ``capacity``."""
        c = np.asarray(capacity_bytes, dtype=float)
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + (c / self.working_set_bytes) ** self.sharpness)
        return out if out.ndim else float(out)

    def settled_capacity(self, epsilon: float = 0.05) -> float:
        """Capacity at which this component's miss fraction falls to ``epsilon``.

        The Hill knee sits *at* the working-set size (miss fraction 1/2
        there); an application keeps benefiting from extra capacity until a
        few multiples of the working set.  The settled capacity is where
        the benefit is exhausted to within ``epsilon`` — the natural notion
        of occupancy *demand* for the sharing model.
        """
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        return self.working_set_bytes * ((1.0 - epsilon) / epsilon) ** (
            1.0 / self.sharpness
        )


@dataclass(frozen=True)
class ReuseProfile:
    """Temporal-locality description of one application.

    ``compulsory`` is the floor miss ratio (cold misses and streaming data
    that is never reused); the remaining ``1 - compulsory`` of accesses is
    split across the mixture ``components``.
    """

    components: tuple[ReuseComponent, ...]
    compulsory: float = 0.0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a reuse profile needs at least one component")
        if not 0.0 <= self.compulsory < 1.0:
            raise ValueError("compulsory miss ratio must be in [0, 1)")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"component weights must sum to 1, got {total}")

    @classmethod
    def single(
        cls,
        working_set_bytes: float,
        *,
        compulsory: float = 0.0,
        sharpness: float = 3.0,
    ) -> "ReuseProfile":
        """Profile with one working-set plateau."""
        return cls(
            components=(ReuseComponent(working_set_bytes, 1.0, sharpness),),
            compulsory=compulsory,
        )

    @classmethod
    def mixture(
        cls,
        parts: list[tuple[float, float]] | list[tuple[float, float, float]],
        *,
        compulsory: float = 0.0,
    ) -> "ReuseProfile":
        """Profile from ``(working_set_bytes, weight[, sharpness])`` tuples.

        Weights are normalized so callers can pass relative values.
        """
        if not parts:
            raise ValueError("mixture needs at least one part")
        total = sum(p[1] for p in parts)
        if total <= 0.0:
            raise ValueError("mixture weights must be positive")
        comps = tuple(
            ReuseComponent(
                working_set_bytes=p[0],
                weight=p[1] / total,
                sharpness=p[2] if len(p) > 2 else 3.0,
            )
            for p in parts
        )
        return cls(components=comps, compulsory=compulsory)

    @cached_property
    def footprint_bytes(self) -> float:
        """Occupancy demand: capacity beyond which extra cache barely helps.

        Defined as the largest component's settled capacity (miss fraction
        below 5%); this is what the sharing model uses as the most cache an
        application will hold, and what the trace generator uses to bound
        its LRU stack.  Computed once per profile object: the profile is
        frozen, and a sweep reads it for every scenario the profile is in.
        """
        return max(c.settled_capacity() for c in self.components)

    @property
    def max_working_set_bytes(self) -> float:
        """Largest raw working-set size in the profile (the knee position)."""
        return max(c.working_set_bytes for c in self.components)

    def miss_ratio(self, capacity_bytes: np.ndarray | float) -> np.ndarray | float:
        """Miss ratio when the application owns ``capacity_bytes`` of LLC.

        Vectorized over capacity.  Monotonically non-increasing in capacity
        and bounded to ``[compulsory, 1]``.
        """
        c = np.maximum(np.asarray(capacity_bytes, dtype=float), 0.0)
        mix = np.zeros_like(c, dtype=float)
        for comp in self.components:
            mix = mix + comp.weight * comp.miss_fraction(c)
        out = self.compulsory + (1.0 - self.compulsory) * mix
        return out if out.ndim else float(out)

    def curve(
        self,
        max_capacity_bytes: float,
        *,
        points: int = 256,
    ) -> "MissRatioCurve":
        """Tabulate this profile as a :class:`MissRatioCurve`."""
        caps = np.linspace(0.0, float(max_capacity_bytes), points)
        return MissRatioCurve(capacities=caps, miss_ratios=np.asarray(self.miss_ratio(caps)))

    def stack_distance_distribution(
        self,
        line_bytes: int,
        *,
        max_distance_lines: int | None = None,
        points: int = 512,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Discretized stack-distance distribution implied by the profile.

        For an LRU cache of ``d`` lines, the miss ratio equals the
        probability that an access's stack distance exceeds ``d``.  Hence
        the stack-distance CDF is ``F(d) = 1 - miss_ratio(d * line_bytes)``;
        this method differentiates it over a geometric grid of distances.

        Returns
        -------
        (distances, probabilities):
            ``distances`` are stack distances in *lines* (int64, ascending,
            last entry is a sentinel for "infinite" distance, i.e. a
            compulsory miss); ``probabilities`` sums to 1.
        """
        if line_bytes <= 0:
            raise ValueError("line size must be positive")
        if max_distance_lines is None:
            max_distance_lines = int(4.0 * self.footprint_bytes / line_bytes) + 1
        if max_distance_lines < 1:
            raise ValueError("max distance must be at least one line")
        # Geometric grid: stack distances span orders of magnitude.
        grid = np.unique(
            np.round(np.geomspace(1.0, float(max_distance_lines), points)).astype(np.int64)
        )
        cdf = 1.0 - np.asarray(self.miss_ratio(grid.astype(float) * line_bytes))
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        pmf = np.diff(np.concatenate(([0.0], cdf)))
        # Residual mass above the grid = compulsory / capacity-exceeding
        # accesses; park it on an "infinite" sentinel distance.
        residual = max(1.0 - cdf[-1], 0.0)
        distances = np.concatenate((grid, [np.iinfo(np.int64).max]))
        probabilities = np.concatenate((pmf, [residual]))
        total = probabilities.sum()
        if total <= 0.0:
            raise ValueError("degenerate stack-distance distribution")
        return distances, probabilities / total


class ProfileTable:
    """Miss-ratio evaluation over the few profiles of one co-location.

    The serial steady-state solver evaluates every co-runner's miss ratio
    on each fixed-point iteration, for at most a dozen applications.  At
    that size numpy's per-call overhead dwarfs the arithmetic, so the
    table keeps each real mixture component once, in profile order, and
    :meth:`miss_ratio_floats` evaluates the mixture on Python floats with
    a single numpy call: the ``ratio ** sharpness`` power over all
    components as one contiguous array.  The power stays in numpy because
    Python's ``**`` rounds differently from numpy's on some inputs, and
    :class:`ProfileStack` (the bit-identity partner) evaluates it in
    numpy.

    The padded ``(n, k)`` arrays (``working_sets``, ``weights``,
    ``sharpness``; padding components carry zero weight) are what
    :class:`ProfileStack` gathers from.
    """

    def __init__(self, profiles: list[ReuseProfile] | tuple[ReuseProfile, ...]) -> None:
        if not profiles:
            raise ValueError("profile table needs at least one profile")
        self.profiles = tuple(profiles)
        n = len(profiles)
        k = max(len(p.components) for p in profiles)
        self.working_sets = np.ones((n, k))
        self.weights = np.zeros((n, k))
        self.sharpness = np.ones((n, k))
        self.compulsory = np.empty(n)
        self.footprints = np.empty(n)
        # The float path: one entry per real component, profile by profile.
        self._owners: list[int] = []
        self._working_sets: list[float] = []
        self._weights: list[float] = []
        sharpness: list[float] = []
        for i, p in enumerate(profiles):
            self.compulsory[i] = p.compulsory
            self.footprints[i] = p.footprint_bytes
            for j, comp in enumerate(p.components):
                self.working_sets[i, j] = comp.working_set_bytes
                self.weights[i, j] = comp.weight
                self.sharpness[i, j] = comp.sharpness
                self._owners.append(i)
                self._working_sets.append(float(comp.working_set_bytes))
                self._weights.append(float(comp.weight))
                sharpness.append(float(comp.sharpness))
        self._sharpness = np.array(sharpness)
        self._compulsory: list[float] = self.compulsory.tolist()

    def __len__(self) -> int:
        return len(self.profiles)

    def miss_ratio_floats(self, occupancies_bytes: Sequence[float]) -> list[float]:
        """Per-profile miss ratio at per-profile occupancy, as floats.

        Every operation but the power is an IEEE basic operation on Python
        floats, in the order the padded arrays of :class:`ProfileStack`
        evaluate it, so the two agree bit for bit.  Skipping the padding
        components is exact: each adds ``+0.0`` to a sum that starts at
        ``+0.0``.  A power that overflows yields ``inf`` (a miss fraction
        of 0, the right limit) and numpy warns about it unless the caller
        silences overflow, as the steady-state solver does.
        """
        # np.maximum(occ, 0.0), exactly: NaN passes through, -0.0 gives 0.0.
        occ = [0.0 if o <= 0.0 else o for o in occupancies_bytes]
        ratio = [occ[i] / ws for i, ws in zip(self._owners, self._working_sets)]
        powered = (np.array(ratio) ** self._sharpness).tolist()
        mix = [0.0] * len(self._compulsory)
        for i, w, x in zip(self._owners, self._weights, powered):
            mix[i] += w / (1.0 + x)
        return [c + (1.0 - c) * m for c, m in zip(self._compulsory, mix)]


class ProfileStack:
    """Scenario-batched miss-ratio evaluation: ``(S, A, K)`` padded arrays.

    The batched steady-state solver advances S independent co-location
    scenarios at once; each scenario holds up to A applications, each with
    up to K mixture components.  ``ProfileStack`` is the 3-D analogue of
    :class:`ProfileTable`: one ``miss_ratio`` call evaluates every
    application of every scenario in a handful of vectorized operations.

    The arrays are gathered, not filled cell by cell: the distinct
    profiles go into one :class:`ProfileTable` behind an inert pad row,
    and a ``(S, A)`` index (see :func:`distinct_index`) picks each
    scenario's rows out of it.  A sweep that repeats a dozen applications
    across thousands of scenarios thus reads each profile once.

    Padding is exact: pad applications carry zero weights and zero
    compulsory ratio (their miss ratio is exactly 0.0 and their footprint
    0.0), pad components carry zero weight — under the
    :func:`ordered_sum` reduction discipline neither perturbs the real
    entries by even an ulp relative to the per-scenario
    :class:`ProfileTable` evaluation.
    """

    _ARRAYS = ("working_sets", "weights", "sharpness", "compulsory", "footprints")

    def __init__(
        self,
        profile_rows: list[list[ReuseProfile]] | list[tuple[ReuseProfile, ...]],
        *,
        pad_apps: int | None = None,
    ) -> None:
        if not profile_rows:
            raise ValueError("profile stack needs at least one scenario")
        if any(not row for row in profile_rows):
            raise ValueError("every scenario needs at least one profile")
        a = max(len(row) for row in profile_rows)
        if pad_apps is not None:
            if pad_apps < a:
                raise ValueError(
                    f"pad_apps={pad_apps} below the widest scenario ({a})"
                )
            a = pad_apps
        self._gather(*distinct_index(profile_rows, a))

    @classmethod
    def gather(
        cls, profiles: Sequence[ReuseProfile], index: np.ndarray
    ) -> "ProfileStack":
        """Stack gathered from distinct ``profiles`` through ``index``.

        ``index`` is ``(S, A)`` with the layout :func:`distinct_index`
        returns: ``index[s, j] - 1`` is the position in ``profiles`` of
        scenario ``s``'s ``j``-th application, 0 a pad application.
        Callers that already dedupe their applications pass their own
        index instead of profile rows: the batched solver passes the
        ``(S, W)`` ``columns`` of :func:`distinct_columns`, one per
        distinct application of each scenario.
        """
        stack = cls.__new__(cls)
        stack._gather(profiles, np.asarray(index, dtype=np.intp))
        return stack

    def _gather(self, profiles: Sequence[ReuseProfile], index: np.ndarray) -> None:
        table = ProfileTable(profiles)

        def padded(values: np.ndarray, pad: float) -> np.ndarray:
            pad_row = np.full((1,) + values.shape[1:], pad)
            return np.concatenate((pad_row, values))[index]

        self.working_sets = padded(table.working_sets, 1.0)
        self.weights = padded(table.weights, 0.0)
        self.sharpness = padded(table.sharpness, 1.0)
        self.compulsory = padded(table.compulsory, 0.0)
        self.footprints = padded(table.footprints, 0.0)

    def subset(self, rows: np.ndarray) -> "ProfileStack":
        """The stack of scenarios ``rows`` (an index array or boolean mask).

        The batched solver evaluates only its still-live scenarios, and
        narrows its stack with this whenever some of them converge.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        stack = ProfileStack.__new__(ProfileStack)
        for name in self._ARRAYS:
            setattr(stack, name, getattr(self, name).take(rows, axis=0))
        return stack

    @property
    def shape(self) -> tuple[int, int]:
        """``(scenarios, padded apps per scenario)``."""
        return self.compulsory.shape

    def miss_ratio(self, occupancies_bytes: np.ndarray) -> np.ndarray:
        """Per-app miss ratios at per-app occupancies, scenario-batched.

        ``occupancies_bytes`` is ``(S, A)``.  Pad applications evaluate to
        exactly 0.0.
        """
        occ = np.asarray(occupancies_bytes, dtype=float)
        if occ.shape != self.compulsory.shape:
            raise ValueError(
                f"expected occupancies of shape {self.compulsory.shape}, "
                f"got {occ.shape}"
            )
        ratio = np.maximum(occ, 0.0)[..., None] / self.working_sets
        with np.errstate(over="ignore"):
            mix = ordered_sum(self.weights / (1.0 + ratio**self.sharpness))
        return self.compulsory + (1.0 - self.compulsory) * mix


@dataclass(frozen=True)
class MissRatioCurve:
    """Tabulated miss ratio as a function of allocated capacity.

    The canonical producer is :meth:`ReuseProfile.curve`, but curves can
    also be measured from the trace-driven simulator
    (:func:`repro.cache.setassoc.measure_miss_ratio_curve`) — the agreement
    of the two is a core invariant tested in ``tests/cache``.
    """

    capacities: np.ndarray
    miss_ratios: np.ndarray

    def __post_init__(self) -> None:
        caps = np.asarray(self.capacities, dtype=float)
        mrs = np.asarray(self.miss_ratios, dtype=float)
        if caps.ndim != 1 or mrs.ndim != 1 or caps.size != mrs.size:
            raise ValueError("capacities and miss ratios must be equal-length 1-D")
        if caps.size < 2:
            raise ValueError("a curve needs at least two points")
        if np.any(np.diff(caps) <= 0.0):
            raise ValueError("capacities must be strictly increasing")
        if np.any(mrs < -1e-9) or np.any(mrs > 1.0 + 1e-9):
            raise ValueError("miss ratios must be within [0, 1]")
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "miss_ratios", np.clip(mrs, 0.0, 1.0))

    def __call__(self, capacity_bytes: np.ndarray | float) -> np.ndarray | float:
        """Interpolated miss ratio at the given capacity (clamped at ends)."""
        c = np.asarray(capacity_bytes, dtype=float)
        out = np.interp(c, self.capacities, self.miss_ratios)
        return out if out.ndim else float(out)

    def is_monotone_nonincreasing(self, *, tol: float = 1e-9) -> bool:
        """Whether the tabulated curve never increases with capacity."""
        return bool(np.all(np.diff(self.miss_ratios) <= tol))
