"""Tests for the scaled conjugate gradient optimizer (Møller 1993)."""

import numpy as np
import pytest

from repro.core.scg import minimize_scg


def quadratic(A, b):
    """0.5 x'Ax - b'x with its gradient."""

    def f(x):
        return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

    return f


class TestQuadratics:
    def test_identity_quadratic(self):
        n = 5
        f = quadratic(np.eye(n), np.ones(n))
        result = minimize_scg(f, np.zeros(n))
        assert result.converged
        np.testing.assert_allclose(result.x, np.ones(n), atol=1e-5)

    def test_ill_conditioned_quadratic(self, rng):
        n = 8
        eigs = np.geomspace(1.0, 1e4, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(eigs) @ Q.T
        b = rng.normal(size=n)
        f = quadratic(A, b)
        result = minimize_scg(f, np.zeros(n), max_iterations=2000)
        expected = np.linalg.solve(A, b)
        np.testing.assert_allclose(result.x, expected, atol=1e-3)

    def test_quadratic_converges_fast(self):
        """CG-family methods solve an n-D strictly convex quadratic quickly."""
        n = 10
        f = quadratic(np.diag(np.arange(1.0, n + 1.0)), np.ones(n))
        result = minimize_scg(f, np.zeros(n))
        assert result.converged
        assert result.iterations <= 5 * n


class TestRosenbrock:
    def test_rosenbrock_2d(self):
        def f(x):
            a, b = 1.0, 100.0
            val = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
            grad = np.array(
                [
                    -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
                    2.0 * b * (x[1] - x[0] ** 2),
                ]
            )
            return float(val), grad

        result = minimize_scg(f, np.array([-1.2, 1.0]), max_iterations=5000,
                              grad_tolerance=1e-8)
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-3)


class TestBehaviour:
    def test_monotone_nonincreasing_objective(self):
        """SCG never accepts a step that increases the objective."""
        history = []

        def f(x):
            val = float(np.sum(x**4) + np.sum(x**2))
            history.append(val)
            return val, 4.0 * x**3 + 2.0 * x

        result = minimize_scg(f, np.full(4, 2.0))
        assert result.fun <= history[0]
        assert result.converged

    def test_starts_at_minimum(self):
        f = quadratic(np.eye(3), np.zeros(3))
        result = minimize_scg(f, np.zeros(3))
        assert result.converged
        assert result.iterations <= 1
        np.testing.assert_allclose(result.x, np.zeros(3))

    def test_result_bookkeeping(self):
        f = quadratic(np.eye(2), np.ones(2))
        result = minimize_scg(f, np.zeros(2))
        assert result.function_evals == result.gradient_evals
        assert result.function_evals >= result.iterations
        assert isinstance(result.message, str)

    def test_max_iterations_respected(self):
        def f(x):
            return float(np.sum(x**2)), 2.0 * x

        result = minimize_scg(f, np.full(3, 100.0), max_iterations=2,
                              grad_tolerance=1e-300)
        assert result.iterations <= 2

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ValueError):
            minimize_scg(lambda x: (0.0, x), np.array([]))

    def test_deterministic(self):
        f = quadratic(np.diag([1.0, 10.0]), np.ones(2))
        r1 = minimize_scg(f, np.array([5.0, -3.0]))
        r2 = minimize_scg(f, np.array([5.0, -3.0]))
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations
