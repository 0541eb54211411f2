"""Scaled Conjugate Gradient optimization (Møller, 1993).

The paper trains its neural networks with "a scaled conjugate gradient
numerical method" (Section III-D).  SCG is a conjugate-gradient variant
that replaces the line search with a Levenberg-Marquardt-style scaling of a
one-sided finite-difference estimate of the Hessian-vector product, making
each iteration cost only two gradient evaluations with no user-tuned
learning rate.

This is a faithful implementation of the algorithm in M. F. Møller, "A
scaled conjugate gradient algorithm for fast supervised learning", Neural
Networks 6(4), 1993 — the standard reference implementation order
(steps 1–9), with a restart to the steepest descent direction every ``n``
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SCGResult", "minimize_scg"]


@dataclass(frozen=True)
class SCGResult:
    """Outcome of an SCG run."""

    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    function_evals: int
    gradient_evals: int
    converged: bool
    message: str


def minimize_scg(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    *,
    max_iterations: int = 500,
    grad_tolerance: float = 1e-6,
    step_tolerance: float = 1e-12,
    sigma0: float = 1e-5,
    initial_lambda: float = 1e-6,
) -> SCGResult:
    """Minimize a smooth function with scaled conjugate gradients.

    Parameters
    ----------
    fun_and_grad:
        Callable returning ``(f(x), grad f(x))``; evaluated jointly because
        neural-network losses share the forward pass.
    x0:
        Starting point.
    max_iterations:
        Cap on SCG iterations (each costs at most two gradient evals).
    grad_tolerance:
        Stop when the gradient norm falls below this.
    step_tolerance:
        Stop when both the step and the objective improvement are below
        this (stagnation).
    sigma0, initial_lambda:
        Møller's sigma and initial scale parameter.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    if n == 0:
        raise ValueError("cannot optimize a zero-dimensional problem")

    nfev = ngev = 0

    def evaluate(point: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal nfev, ngev
        f, g = fun_and_grad(point)
        nfev += 1
        ngev += 1
        return float(f), np.asarray(g, dtype=float)

    f_x, grad = evaluate(x)
    r = -grad           # steepest descent residual
    p = r.copy()        # search direction
    success = True      # whether the last step reduced f
    lam = float(initial_lambda)
    lam_bar = 0.0
    delta = 0.0
    converged = False
    message = "maximum iterations reached"
    k = 0

    # Reductions use einsum rather than BLAS dot.  The two round in a
    # different order, and a last-ulp difference can flip a step's success
    # decision hundreds of iterations later, so switching would change the
    # fitted networks.
    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("i,i->", a, b))

    for k in range(1, max_iterations + 1):
        p_sq = dot(p, p)
        p_norm = np.sqrt(p_sq)
        if p_norm < step_tolerance:
            converged = True
            message = "search direction vanished"
            break

        if success:
            # 2. Second-order information along p via finite differences.
            sigma = sigma0 / p_norm
            _f_probe, grad_probe = evaluate(x + sigma * p)
            s = (grad_probe - grad) / sigma
            delta = dot(p, s)

        # 3. Scale the curvature estimate.
        delta += (lam - lam_bar) * p_sq

        # 4. Make the Hessian estimate positive definite.
        if delta <= 0.0:
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar

        # 5. Step size.
        mu = dot(p, r)
        alpha = mu / delta

        # 6. Comparison parameter: actual vs predicted reduction.
        x_new = x + alpha * p
        f_new, grad_new = evaluate(x_new)
        big_delta = 2.0 * delta * (f_x - f_new) / (mu * mu)

        if big_delta >= 0.0:
            # 7a. Successful step.
            df = f_x - f_new
            x = x_new
            f_x = f_new
            grad = grad_new
            r_new = -grad
            lam_bar = 0.0
            success = True
            if k % n == 0:
                p = r_new.copy()  # periodic restart to steepest descent
            else:
                beta = (dot(r_new, r_new) - dot(r_new, r)) / mu
                p = r_new + beta * p
            r = r_new
            if big_delta >= 0.75:
                lam *= 0.25
            if (
                abs(alpha) * p_norm < step_tolerance
                and abs(df) < step_tolerance
            ):
                converged = True
                message = "step and improvement below tolerance"
                break
        else:
            # 7b. Unsuccessful step: keep position, raise the scale.
            lam_bar = lam
            success = False

        # 8. Increase scale when the quadratic approximation was poor.
        if big_delta < 0.25:
            lam += delta * (1.0 - big_delta) / p_sq
        # Guard against runaway scale (all-failed steps in flat regions).
        lam = min(lam, 1e40)

        # 9. Convergence on gradient norm.
        if float(np.sqrt(dot(r, r))) < grad_tolerance:
            converged = True
            message = "gradient norm below tolerance"
            break

    return SCGResult(
        x=x,
        fun=f_x,
        grad_norm=float(np.sqrt(dot(grad, grad))),
        iterations=k,
        function_evals=nfev,
        gradient_evals=ngev,
        converged=converged,
        message=message,
    )
