"""Repeated random sub-sampling validation (paper, Section IV-B4).

Model accuracy is estimated the paper's way: withhold a random 30% of the
data, train on the remaining 70%, measure MPE and NRMSE on both partitions,
and repeat one hundred times with fresh random splits; report the averages.
(The paper attributes the approach to the bootstrap literature [EfT94].)

The per-partition spread is also reported — the paper notes each model's
partition errors varied by "at most a quarter of a percent", i.e. tight
confidence intervals, and the reproduction's benches check the same.

Repetitions (and leave-one-group-out folds) are independent, so both
protocols accept ``workers=N`` to fan fits across the package's one
process pool, :func:`repro.parallel.map_chunks`, which collection sweeps
and ensemble fits share.  Two rules keep ``workers=N`` bit-identical to
``workers=1``:

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
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..obs.trace import get_tracer
from ..parallel import map_chunks, spawn_streams, split_chunks
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


def _score_chunk(shared, chunk) -> tuple[list, FitStats]:
    """Fit and score one chunk of splits, one repetition span each."""
    make_model, X, y = shared
    stats = FitStats()
    tracer = get_tracer()
    rows = []
    for index, train_idx, test_idx, fit_rng in chunk:
        with tracer.span("validation.repetition", repetition=index):
            rows.append(
                _fit_and_score(make_model, X, y, train_idx, test_idx, fit_rng, stats)
            )
    return rows, stats


def _map_splits(
    make_model: Callable,
    X: np.ndarray,
    y: np.ndarray,
    splits: list,
    fit_rngs: list,
    stats: FitStats,
    workers: int,
) -> list[tuple[float, float, float, float]]:
    """Score every ``(train_idx, test_idx)`` split, in order.

    Splits are chunked over :func:`~repro.parallel.map_chunks` (inline for
    one worker); rows come back in split order and each chunk's
    :class:`FitStats` is merged in chunk order, so the outputs and counters
    of any ``workers`` match the serial ones.
    """
    tasks = [
        (index, train_idx, test_idx, fit_rngs[index])
        for index, (train_idx, test_idx) in enumerate(splits)
    ]
    chunks = split_chunks(tasks, workers)
    rows: list = []
    for chunk_rows, chunk_stats in map_chunks(
        _score_chunk, (make_model, X, y), chunks, workers=workers
    ):
        rows.extend(chunk_rows)
        stats.merge(chunk_stats)
        if len(chunks) > 1:
            # Worker processes fed their own (discarded) global aggregate;
            # fold the chunk's counters into this process's record instead.
            GLOBAL_FIT_STATS.merge(chunk_stats)
    return rows


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
        fit_rngs: list = spawn_streams(rng, repetitions)
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
        fit_rngs: list = spawn_streams(rng, len(distinct))
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
