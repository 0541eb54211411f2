"""Feed-forward neural network model (paper, Section III-D).

One hidden layer of tanh units and a linear output, trained by scaled
conjugate gradients (:mod:`repro.core.scg`) on mean squared error with a
small L2 penalty.  "The neural networks used in this work vary in the
number of nodes used from ten to twenty depending on the model feature set"
— :func:`default_hidden_units` implements that rule.

Inputs and the target are standardized internally; predictions are returned
in original units.  The network captures the nonlinear cache/bandwidth
contention effects the linear models cannot (Section V-D).

Training cost dominates the validation benches, so the restart loop
reuses one preallocated workspace across all gradient evaluations of a fit
(no per-iteration ``(n, h)`` allocations).

Every fit leaves a :class:`~repro.core.fitstats.FitStats` record in
``fit_stats_`` and accumulates it into the instance-level ``stats``.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.trace import get_tracer
from .fitstats import GLOBAL_FIT_STATS, FitStats
from .scg import minimize_scg

__all__ = ["NeuralNetworkModel", "default_hidden_units"]


def default_hidden_units(num_features: int) -> int:
    """Paper's hidden-layer sizing: 10 nodes for the smallest feature set,
    growing with feature count, capped at 20."""
    if num_features < 1:
        raise ValueError("need at least one feature")
    return int(min(20, 10 + max(0, (num_features - 1)) * 10 // 7))


class NeuralNetworkModel:
    """A 1-hidden-layer tanh regressor trained with SCG.

    Parameters
    ----------
    hidden_units:
        Hidden layer width; ``None`` selects the paper's rule from the
        feature count at fit time.
    l2:
        L2 weight penalty (on weights, not biases).
    max_iterations:
        SCG iteration cap.
    n_restarts:
        Independent weight initializations; the best final loss wins.
        SCG is deterministic given an initialization, so restarts are the
        only stochastic element — they consume the caller's ``rng``.
    stats:
        Optional shared :class:`~repro.core.fitstats.FitStats` to
        accumulate into; a private record is created when omitted.
    """

    def __init__(
        self,
        hidden_units: int | None = None,
        *,
        l2: float = 1e-4,
        max_iterations: int = 300,
        n_restarts: int = 2,
        stats: FitStats | None = None,
    ) -> None:
        if hidden_units is not None and hidden_units < 1:
            raise ValueError("hidden layer needs at least one unit")
        if l2 < 0.0:
            raise ValueError("L2 penalty must be non-negative")
        if max_iterations < 1:
            raise ValueError("need at least one SCG iteration")
        if n_restarts < 1:
            raise ValueError("need at least one initialization")
        self.hidden_units = hidden_units
        self.l2 = l2
        self.max_iterations = max_iterations
        self.n_restarts = n_restarts
        self.stats = stats if stats is not None else FitStats()
        self.fit_stats_: FitStats | None = None
        self._params: np.ndarray | None = None
        self._shapes: tuple[int, int] | None = None  # (d, h)
        self._x_mean: np.ndarray | None = None
        self._x_scale: np.ndarray | None = None
        self._y_mean: float = 0.0
        self._y_scale: float = 1.0
        self.training_loss_: float | None = None
        self.restart_losses_: np.ndarray | None = None

    # ----------------------------------------------------------- plumbing

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has been called."""
        return self._params is not None

    def _unpack(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        d, h = self._shapes  # type: ignore[misc]
        i = 0
        W1 = params[i : i + d * h].reshape(d, h); i += d * h
        b1 = params[i : i + h]; i += h
        W2 = params[i : i + h]; i += h
        b2 = float(params[i])
        return W1, b1, W2, b2

    def _loss_and_grad(
        self,
        params: np.ndarray,
        Z: np.ndarray,
        t: np.ndarray,
        work: dict | None = None,
    ) -> tuple[float, np.ndarray]:
        """Loss and gradient at ``params``.

        ``work`` is an optional per-fit scratch dict: the ``(n, h)``
        activation/backprop buffers are reused across calls, so the hot
        restart loop allocates only the returned gradient vector (which
        must stay fresh — the SCG caller holds several gradients at once).
        """
        n = Z.shape[0]
        d, h = self._shapes  # type: ignore[misc]
        W1, b1, W2, b2 = self._unpack(params)
        if work is None:
            work = {}
        H = work.get("H")
        if H is None or H.shape != (n, h):
            H = work["H"] = np.empty((n, h))
            work["D"] = np.empty((n, h))
            work["out"] = np.empty(n)
        D = work["D"]
        out = work["out"]

        # The accumulation forms (column matmuls, einsum reductions) fix
        # the rounding of every fit; see the SCG module on why that matters.
        np.matmul(Z, W1, out=H)
        H += b1
        np.tanh(H, out=H)                     # (n, h) activations
        np.matmul(H, W2[:, None], out=out[:, None])
        out += b2
        err = out
        err -= t
        loss = 0.5 * float(np.einsum("n,n->", err, err)) / n + 0.5 * self.l2 * (
            float(np.einsum("dh,dh->", W1, W1)) + float(np.einsum("h,h->", W2, W2))
        )
        # Backpropagation, assembled directly into the gradient vector.
        err /= n                               # d_out, in place
        grad = np.empty(params.size)
        gW1 = grad[: d * h].reshape(d, h)
        gb1 = grad[d * h : d * h + h]
        gW2 = grad[d * h + h : d * h + 2 * h]
        np.matmul(H.T, err[:, None], out=gW2[:, None])
        gW2 += self.l2 * W2
        grad[-1] = err.sum()                   # gb2
        np.multiply(H, H, out=D)
        np.subtract(1.0, D, out=D)
        D *= W2
        D *= err[:, None]                      # dH, (n, h)
        np.matmul(Z.T, D, out=gW1)
        gW1 += self.l2 * W1
        # D.sum(axis=0)'s row order at a third of the cost, except at h = 1.
        if h > 1:
            np.einsum("nh->h", D, out=gb1)
        else:
            D.sum(axis=0, out=gb1)
        return loss, grad

    def _draw_initializations(
        self, rng: np.random.Generator, d: int, h: int
    ) -> list[np.ndarray]:
        """One initial weight vector per restart, drawn in restart order."""
        return [
            np.concatenate(
                [
                    rng.normal(0.0, 1.0 / np.sqrt(d), size=d * h),
                    np.zeros(h),
                    rng.normal(0.0, 1.0 / np.sqrt(h), size=h),
                    [0.0],
                ]
            )
            for _ in range(self.n_restarts)
        ]

    @staticmethod
    def _select_best(losses: np.ndarray) -> int:
        """First index of the minimal finite loss."""
        finite = np.isfinite(losses)
        if not finite.any():
            raise RuntimeError(
                f"every SCG restart diverged to a non-finite loss "
                f"({losses.tolist()}); the training data is likely "
                f"degenerate — check for non-finite features or targets"
            )
        masked = np.where(finite, losses, np.inf)
        return int(np.argmin(masked))

    # ---------------------------------------------------------------- API

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
    ) -> "NeuralNetworkModel":
        """Train on ``(n_samples, n_features)`` inputs and time targets."""
        started = time.perf_counter()
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D (samples x features)")
        if X.shape[0] != y.size:
            raise ValueError("X and y disagree on the number of samples")
        if X.shape[0] < 2:
            raise ValueError("need at least two training samples")
        if rng is None:
            rng = np.random.default_rng(0)

        d = X.shape[1]
        h = self.hidden_units if self.hidden_units is not None else default_hidden_units(d)
        self._shapes = (d, h)

        self._x_mean = X.mean(axis=0)
        x_std = X.std(axis=0)
        self._x_scale = np.where(x_std > 0.0, x_std, 1.0)
        self._y_mean = float(y.mean())
        y_std = float(y.std())
        self._y_scale = y_std if y_std > 0.0 else 1.0
        Z = (X - self._x_mean) / self._x_scale
        t = (y - self._y_mean) / self._y_scale

        W0 = self._draw_initializations(rng, d, h)
        record = FitStats()
        tracer = get_tracer()
        with tracer.span(
            "fit.neural",
            samples=X.shape[0],
            features=d,
            hidden=h,
            restarts=self.n_restarts,
        ) as fit_span:
            work: dict = {}
            objective = lambda p: self._loss_and_grad(p, Z, t, work)  # noqa: E731
            results = []
            for restart, w0 in enumerate(W0):
                with tracer.span("fit.scg_restart", restart=restart) as span:
                    res = minimize_scg(
                        objective, w0, max_iterations=self.max_iterations
                    )
                    span.set(iterations=res.iterations, loss=res.fun)
                results.append(res)
            losses = np.array([res.fun for res in results])
            best = self._select_best(losses)
            best_params = results[best].x
            record.record_fit(
                restarts=self.n_restarts,
                scg_iterations=sum(res.iterations for res in results),
                function_evals=sum(res.function_evals for res in results),
                gradient_evals=sum(res.gradient_evals for res in results),
                wall_time_s=time.perf_counter() - started,
            )
            fit_span.set(loss=float(losses[best]))
        self._params = best_params
        self.training_loss_ = float(losses[best])
        self.restart_losses_ = losses
        self.fit_stats_ = record
        self.stats.merge(record)
        GLOBAL_FIT_STATS.merge(record)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted co-located execution times for new samples."""
        if not self.is_fitted:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        Z = (X - self._x_mean) / self._x_scale
        W1, b1, W2, b2 = self._unpack(self._params)  # type: ignore[arg-type]
        out = np.tanh(Z @ W1 + b1) @ W2 + b2
        return out * self._y_scale + self._y_mean

    def predict_stable(self, X: np.ndarray) -> np.ndarray:
        """Like :meth:`predict`, but row-stable across batch shapes.

        BLAS matmul kernels vary their accumulation order with the operand
        shapes, so batched and single-row predictions can differ in the
        last bits.  Here both layers reduce each row with shape-independent
        broadcast-sums, making a sample's prediction identical no matter
        the batch it rides in — required by the serving micro-batcher.
        Slower than :meth:`predict`; fine at serving batch sizes.
        """
        if not self.is_fitted:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        Z = (X - self._x_mean) / self._x_scale
        W1, b1, W2, b2 = self._unpack(self._params)  # type: ignore[arg-type]
        hidden = np.tanh((Z[:, :, None] * W1[None, :, :]).sum(axis=1) + b1)
        out = (hidden * W2).sum(axis=1) + b2
        return out * self._y_scale + self._y_mean
