"""Repeated random sub-sampling validation (paper, Section IV-B4).

Model accuracy is estimated the paper's way: withhold a random 30% of the
data, train on the remaining 70%, measure MPE and NRMSE on both partitions,
and repeat one hundred times with fresh random splits; report the averages.
(The paper attributes the approach to the bootstrap literature [EfT94].)

The per-partition spread is also reported — the paper notes each model's
partition errors varied by "at most a quarter of a percent", i.e. tight
confidence intervals, and the reproduction's benches check the same.

Repetitions (and leave-one-group-out folds) are independent, so both
protocols accept ``workers=N`` to fan fits across a process pool — the
fitting counterpart of the collection layer's ``map_scenario_batches``.
The same two rules keep ``workers=N`` bit-identical to ``workers=1``:

* **Stable split stream.**  Every split permutation is drawn up front from
  the caller's ``rng`` in repetition order, exactly as the serial loop
  always has, so the partitions are identical in both modes (and identical
  to historical serial runs).
* **Per-repetition fit streams.**  A model factory that accepts an ``rng``
  keyword receives one SeedSequence-spawned child generator per repetition
  (keyed by repetition index, independent of draw position), so a
  repetition's fit randomness never depends on which process ran it or on
  how many fits preceded it.  Factories without an ``rng`` parameter are
  called with no arguments, as before.

Each protocol aggregates a :class:`~repro.core.fitstats.FitStats` record
across repetitions (merged in repetition order, so every count is
worker-independent; wall time sums per-process fit time).
"""

from __future__ import annotations

import inspect
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..obs.trace import get_tracer
from .fitstats import GLOBAL_FIT_STATS, FitStats
from .metrics import mpe, nrmse

__all__ = [
    "GroupValidationResult",
    "RegressionModel",
    "ValidationResult",
    "leave_one_group_out",
    "repeated_random_subsampling",
]


class RegressionModel(Protocol):
    """Anything trainable on (X, y) that predicts from X."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionModel": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


def _accepts_rng(factory: Callable) -> bool:
    """Whether a model factory declares an ``rng`` parameter.

    Factories that do (e.g. ``functools.partial(make_model, kind, fs)``
    from the methodology layer) receive one spawned child generator per
    repetition; plain zero-argument factories are called as before.
    """
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False
    return "rng" in params


def _spawn_streams(
    rng: np.random.Generator, count: int
) -> list[np.random.Generator]:
    """One child generator per repetition (same scheme as the harness).

    Children derive from the generator's SeedSequence spawn counter, not
    its draw position, so the i-th child is fixed no matter how many
    values (e.g. split permutations) were drawn in between.
    """
    try:
        return list(rng.spawn(count))
    except TypeError:  # bit generator built without a seed sequence
        root = np.random.SeedSequence(int(rng.integers(2**63)))
        return [np.random.default_rng(child) for child in root.spawn(count)]


def _fit_and_score(
    make_model: Callable,
    X: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    fit_rng: np.random.Generator | None,
    stats: FitStats,
) -> tuple[float, float, float, float]:
    """Train one fresh model on a split and score both partitions."""
    started = time.perf_counter()
    model = make_model(rng=fit_rng) if fit_rng is not None else make_model()
    model.fit(X[train_idx], y[train_idx])
    elapsed = time.perf_counter() - started
    fit_stats = getattr(model, "fit_stats_", None)
    if isinstance(fit_stats, FitStats):
        stats.merge(fit_stats)
    else:
        # Models without their own record (e.g. the linear model) still
        # count: once here, once in the process-wide aggregate.  (Neural
        # fits feed the global from inside ``fit`` instead.)
        stats.record_fit(wall_time_s=elapsed)
        GLOBAL_FIT_STATS.record_fit(wall_time_s=elapsed)
    pred_train = model.predict(X[train_idx])
    pred_test = model.predict(X[test_idx])
    return (
        mpe(pred_train, y[train_idx]),
        mpe(pred_test, y[test_idx]),
        nrmse(pred_train, y[train_idx]),
        nrmse(pred_test, y[test_idx]),
    )


# Worker-process state for the validation pool: the dataset and factory are
# shipped once per worker via the pool initializer, not per task.
_FIT_POOL: tuple | None = None


def _init_fit_pool(make_model: Callable, X: np.ndarray, y: np.ndarray) -> None:
    global _FIT_POOL
    _FIT_POOL = (make_model, X, y)


def _run_fit_chunk(chunk):
    pool_state = _FIT_POOL
    assert pool_state is not None, "fit pool used before initialization"
    make_model, X, y = pool_state
    stats = FitStats()
    results = [
        (index, _fit_and_score(make_model, X, y, train_idx, test_idx, fit_rng, stats))
        for index, train_idx, test_idx, fit_rng in chunk
    ]
    return results, stats


def _map_splits(
    make_model: Callable,
    X: np.ndarray,
    y: np.ndarray,
    splits: list,
    fit_rngs: list,
    stats: FitStats,
    workers: int,
    *,
    chunks_per_worker: int = 4,
) -> list[tuple[float, float, float, float]]:
    """Score every ``(train_idx, test_idx)`` split, in order.

    ``workers=1`` runs inline; otherwise splits are chunked across a
    process pool, results are reassembled in split order, and each chunk's
    :class:`FitStats` is merged back in chunk order — both of which keep
    the parallel path's outputs and counters identical to serial.
    """
    tasks = [
        (index, train_idx, test_idx, fit_rngs[index])
        for index, (train_idx, test_idx) in enumerate(splits)
    ]
    tracer = get_tracer()
    if workers == 1 or len(tasks) <= 1:
        rows = []
        for index, train_idx, test_idx, fit_rng in tasks:
            with tracer.span("validation.repetition", repetition=index):
                rows.append(
                    _fit_and_score(
                        make_model, X, y, train_idx, test_idx, fit_rng, stats
                    )
                )
        return rows
    n_chunks = min(len(tasks), workers * chunks_per_worker)
    chunk_size = -(-len(tasks) // n_chunks)
    chunks = [
        tasks[start : start + chunk_size]
        for start in range(0, len(tasks), chunk_size)
    ]
    results: list = [None] * len(tasks)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_fit_pool,
        initargs=(make_model, X, y),
    ) as pool:
        for chunk_results, chunk_stats in pool.map(_run_fit_chunk, chunks):
            stats.merge(chunk_stats)
            # Worker processes fed their own (discarded) global aggregate;
            # fold the chunk's counters into this process's record instead.
            GLOBAL_FIT_STATS.merge(chunk_stats)
            for index, row in chunk_results:
                results[index] = row
    return results


@dataclass(frozen=True)
class ValidationResult:
    """Per-repetition error arrays plus their summary statistics."""

    train_mpe: np.ndarray
    test_mpe: np.ndarray
    train_nrmse: np.ndarray
    test_nrmse: np.ndarray
    fit_stats: FitStats | None = field(default=None, compare=False)

    @property
    def repetitions(self) -> int:
        """Number of random partitions evaluated."""
        return self.train_mpe.size

    @property
    def mean_train_mpe(self) -> float:
        """Average training MPE across partitions (a Figure 1/2 point)."""
        return float(self.train_mpe.mean())

    @property
    def mean_test_mpe(self) -> float:
        """Average testing MPE across partitions (a Figure 1/2 point)."""
        return float(self.test_mpe.mean())

    @property
    def mean_train_nrmse(self) -> float:
        """Average training NRMSE across partitions (a Figure 3/4 point)."""
        return float(self.train_nrmse.mean())

    @property
    def mean_test_nrmse(self) -> float:
        """Average testing NRMSE across partitions (a Figure 3/4 point)."""
        return float(self.test_nrmse.mean())

    @property
    def test_mpe_std(self) -> float:
        """Partition-to-partition spread of the testing MPE."""
        return float(self.test_mpe.std())


def repeated_random_subsampling(
    make_model: Callable[[], RegressionModel],
    X: np.ndarray,
    y: np.ndarray,
    *,
    test_fraction: float = 0.3,
    repetitions: int = 100,
    rng: np.random.Generator | None = None,
    workers: int = 1,
    stats: FitStats | None = None,
) -> ValidationResult:
    """Estimate a model family's accuracy by repeated random splits.

    Parameters
    ----------
    make_model:
        Factory producing a fresh, unfitted model per repetition.  A
        factory declaring an ``rng`` parameter receives one spawned child
        generator per repetition (see the module docstring); with
        ``workers > 1`` it must also be picklable — a module-level
        function or :func:`functools.partial`, not a lambda.
    X, y:
        The full dataset; each repetition withholds ``test_fraction`` of
        the rows (at least two so NRMSE is defined on the test partition,
        at most all-but-two so the model can fit).
    test_fraction:
        Withheld share; the paper uses 0.3.
    repetitions:
        Number of random partitions; the paper uses 100.
    rng:
        Split randomness (seeded for reproducibility).
    workers:
        Process-pool width; repetitions fan out across workers with
        results bit-identical to ``workers=1``.
    stats:
        Optional shared :class:`FitStats` that additionally accumulates
        the aggregate recorded on the returned result.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, k) with y of length n")
    n = X.shape[0]
    if n < 4:
        raise ValueError(
            "need at least four samples to split into train/test partitions "
            "of two or more rows each"
        )
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must be in (0, 1)")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    # A 1-sample test split always has zero range, which makes NRMSE
    # undefined; keep both partitions at >= 2 rows.
    n_test = min(max(int(round(n * test_fraction)), 2), n - 2)
    # Permutations are drawn up front, in repetition order — the same
    # stream positions the historical serial loop consumed.
    splits = []
    for _ in range(repetitions):
        perm = rng.permutation(n)
        splits.append((perm[n_test:], perm[:n_test]))  # (train, test)
    if _accepts_rng(make_model):
        fit_rngs: list = _spawn_streams(rng, repetitions)
    else:
        fit_rngs = [None] * repetitions

    aggregate = FitStats()
    with get_tracer().span(
        "validation.subsampling",
        repetitions=repetitions,
        samples=n,
        workers=workers,
    ):
        rows = _map_splits(
            make_model, X, y, splits, fit_rngs, aggregate, workers
        )
    scores = np.asarray(rows)
    if stats is not None:
        stats.merge(aggregate)
    return ValidationResult(
        train_mpe=scores[:, 0],
        test_mpe=scores[:, 1],
        train_nrmse=scores[:, 2],
        test_nrmse=scores[:, 3],
        fit_stats=aggregate,
    )


@dataclass(frozen=True)
class GroupValidationResult:
    """Per-group held-out errors from leave-one-group-out validation."""

    group_test_mpe: dict
    group_test_nrmse: dict
    fit_stats: FitStats | None = field(default=None, compare=False)

    @property
    def groups(self) -> list:
        """The held-out groups, in evaluation order."""
        return list(self.group_test_mpe)

    @property
    def mean_test_mpe(self) -> float:
        """Average held-out MPE across groups."""
        return float(np.mean(list(self.group_test_mpe.values())))

    @property
    def worst_group(self):
        """The group hardest to predict when excluded from training."""
        return max(self.group_test_mpe, key=self.group_test_mpe.get)


def leave_one_group_out(
    make_model: Callable[[], RegressionModel],
    X: np.ndarray,
    y: np.ndarray,
    groups: list,
    *,
    workers: int = 1,
    rng: np.random.Generator | None = None,
    stats: FitStats | None = None,
) -> GroupValidationResult:
    """Leave-one-group-out cross-validation.

    For each distinct group label (e.g. the target application's name),
    train on every other group's rows and test on the held-out group.
    This is a strictly harder protocol than the paper's random
    sub-sampling: the model must predict for a *target application it has
    never seen*, from baseline-derived features alone.

    Parameters
    ----------
    make_model:
        Fresh-model factory per fold (picklable when ``workers > 1``; an
        ``rng``-accepting factory gets one spawned stream per fold).
    X, y:
        The full dataset.
    groups:
        One hashable label per row; folds are the distinct labels, in
        first-seen order.
    workers:
        Process-pool width; folds fan out with results identical to
        ``workers=1``.
    rng:
        Root generator for per-fold fit streams (only consulted for
        ``rng``-accepting factories; defaults to a fixed seed).
    stats:
        Optional shared :class:`FitStats` that additionally accumulates
        the aggregate recorded on the returned result.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, k) with y of length n")
    if len(groups) != y.size:
        raise ValueError("need one group label per row")
    labels = np.asarray(groups)
    distinct: list = []
    for g in groups:
        if g not in distinct:
            distinct.append(g)
    if len(distinct) < 2:
        raise ValueError("leave-one-group-out needs at least two groups")
    for g in distinct:
        members = int((labels == g).sum())
        if members < 2:
            raise ValueError(
                f"group {g!r} has only {members} row; NRMSE is undefined on "
                f"a singleton held-out group — every group needs >= 2 rows"
            )

    if workers < 1:
        raise ValueError("workers must be >= 1")

    indices = np.arange(y.size)
    splits = []
    for g in distinct:
        test_mask = labels == g
        splits.append((indices[~test_mask], indices[test_mask]))
    if _accepts_rng(make_model):
        if rng is None:
            rng = np.random.default_rng(0)
        fit_rngs: list = _spawn_streams(rng, len(distinct))
    else:
        fit_rngs = [None] * len(distinct)

    aggregate = FitStats()
    with get_tracer().span(
        "validation.leave_one_group_out",
        folds=len(distinct),
        samples=int(y.size),
        workers=workers,
    ):
        rows = _map_splits(
            make_model, X, y, splits, fit_rngs, aggregate, workers
        )
    if stats is not None:
        stats.merge(aggregate)
    group_mpe = {g: rows[i][1] for i, g in enumerate(distinct)}
    group_nrmse = {g: rows[i][3] for i, g in enumerate(distinct)}
    return GroupValidationResult(
        group_test_mpe=group_mpe,
        group_test_nrmse=group_nrmse,
        fit_stats=aggregate,
    )
