"""Tests for the SCG-trained neural network model."""

import numpy as np
import pytest

from repro.core.fitstats import FitStats
from repro.core.neural import NeuralNetworkModel, default_hidden_units


def reference_loss_and_grad(model, params, Z, t, work=None):
    """``_loss_and_grad`` as it was before the einsum hidden-bias sum.

    Kept verbatim apart from its fresh buffers, so the tests can pin the
    current form to these bits.
    """
    n = Z.shape[0]
    d, h = model._shapes
    W1, b1, W2, b2 = model._unpack(params)
    H = np.empty((n, h))
    D = np.empty((n, h))
    out = np.empty(n)
    np.matmul(Z, W1, out=H)
    H += b1
    np.tanh(H, out=H)
    np.matmul(H, W2[:, None], out=out[:, None])
    out += b2
    err = out
    err -= t
    loss = 0.5 * float(np.einsum("n,n->", err, err)) / n + 0.5 * model.l2 * (
        float(np.einsum("dh,dh->", W1, W1)) + float(np.einsum("h,h->", W2, W2))
    )
    err /= n
    grad = np.empty(params.size)
    gW1 = grad[: d * h].reshape(d, h)
    gb1 = grad[d * h : d * h + h]
    gW2 = grad[d * h + h : d * h + 2 * h]
    np.matmul(H.T, err[:, None], out=gW2[:, None])
    gW2 += model.l2 * W2
    grad[-1] = err.sum()
    np.multiply(H, H, out=D)
    np.subtract(1.0, D, out=D)
    D *= W2
    D *= err[:, None]
    np.matmul(Z.T, D, out=gW1)
    gW1 += model.l2 * W1
    D.sum(axis=0, out=gb1)
    return loss, grad


class ReferenceModel(NeuralNetworkModel):
    """A network trained through :func:`reference_loss_and_grad`."""

    def _loss_and_grad(self, params, Z, t, work=None):
        return reference_loss_and_grad(self, params, Z, t, work)


class TestDefaultHiddenUnits:
    def test_paper_range(self):
        """Ten to twenty nodes depending on the feature set (Section III-D)."""
        sizes = [default_hidden_units(n) for n in range(1, 9)]
        assert sizes[0] == 10
        assert sizes[-1] == 20
        assert all(10 <= s <= 20 for s in sizes)
        assert sizes == sorted(sizes)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_hidden_units(0)


class TestFitPredict:
    def test_learns_linear_function(self, rng):
        X = rng.normal(size=(300, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 5.0
        model = NeuralNetworkModel(hidden_units=8).fit(X, y, rng=rng)
        pred = model.predict(X)
        rel = np.abs(pred - y) / (np.abs(y) + 1.0)
        assert np.mean(rel) < 0.05

    def test_learns_nonlinear_function(self, rng):
        """The motivating case: NNs capture what Eq. 1 cannot."""
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.sin(X[:, 0] * 2.0) + X[:, 1] ** 2
        nn = NeuralNetworkModel(hidden_units=16, max_iterations=600).fit(
            X, y, rng=rng
        )
        nn_rmse = float(np.sqrt(np.mean((nn.predict(X) - y) ** 2)))
        from repro.core.linear import LinearModel

        lin = LinearModel().fit(X, y)
        lin_rmse = float(np.sqrt(np.mean((lin.predict(X) - y) ** 2)))
        assert nn_rmse < lin_rmse * 0.5

    def test_predictions_in_original_units(self, rng):
        X = rng.normal(size=(100, 1))
        y = 1000.0 + 50.0 * X[:, 0]  # large offset, real-time-like scale
        model = NeuralNetworkModel(hidden_units=6).fit(X, y, rng=rng)
        pred = model.predict(X)
        assert 800.0 < pred.mean() < 1200.0

    def test_deterministic_given_rng_seed(self, rng):
        X = rng.normal(size=(50, 2))
        y = X.sum(axis=1)
        m1 = NeuralNetworkModel(hidden_units=5).fit(X, y, rng=np.random.default_rng(3))
        m2 = NeuralNetworkModel(hidden_units=5).fit(X, y, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(m1.predict(X), m2.predict(X))

    def test_default_rng_when_omitted(self, rng):
        X = rng.normal(size=(30, 2))
        y = X.sum(axis=1)
        m1 = NeuralNetworkModel(hidden_units=4).fit(X, y)
        m2 = NeuralNetworkModel(hidden_units=4).fit(X, y)
        np.testing.assert_array_equal(m1.predict(X), m2.predict(X))

    def test_predict_1d_input(self, rng):
        X = rng.normal(size=(40, 3))
        y = X.sum(axis=1)
        model = NeuralNetworkModel(hidden_units=4).fit(X, y, rng=rng)
        assert model.predict(X[0]).shape == (1,)

    def test_hidden_units_from_feature_count(self, rng):
        X = rng.normal(size=(60, 4))
        y = X.sum(axis=1)
        model = NeuralNetworkModel().fit(X, y, rng=rng)
        assert model._shapes == (4, default_hidden_units(4))

    def test_restarts_pick_best_loss(self, rng):
        X = rng.normal(size=(80, 2))
        y = np.sin(X[:, 0]) + X[:, 1]
        one = NeuralNetworkModel(hidden_units=6, n_restarts=1).fit(
            X, y, rng=np.random.default_rng(0)
        )
        many = NeuralNetworkModel(hidden_units=6, n_restarts=4).fit(
            X, y, rng=np.random.default_rng(0)
        )
        assert many.training_loss_ <= one.training_loss_ + 1e-12

    def test_constant_target_handled(self, rng):
        X = rng.normal(size=(30, 2))
        y = np.full(30, 42.0)
        model = NeuralNetworkModel(hidden_units=4).fit(X, y, rng=rng)
        np.testing.assert_allclose(model.predict(X), 42.0, atol=1.0)


class TestGradient:
    def test_backprop_matches_finite_differences(self, rng):
        """The analytic gradient must match numeric differentiation."""
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = NeuralNetworkModel(hidden_units=4, l2=1e-3)
        model._shapes = (3, 4)
        n_params = 3 * 4 + 4 + 4 + 1
        params = rng.normal(size=n_params) * 0.5
        Z = (X - X.mean(0)) / X.std(0)
        t = (y - y.mean()) / y.std()
        loss, grad = model._loss_and_grad(params, Z, t)
        eps = 1e-6
        numeric = np.empty_like(params)
        for i in range(n_params):
            up, down = params.copy(), params.copy()
            up[i] += eps
            down[i] -= eps
            numeric[i] = (
                model._loss_and_grad(up, Z, t)[0]
                - model._loss_and_grad(down, Z, t)[0]
            ) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


class TestReferenceFormulation:
    """The einsum hidden-bias sum keeps the old ``D.sum(axis=0)`` bits."""

    @pytest.mark.parametrize("n", [2, 7, 924])
    @pytest.mark.parametrize("h", [1, 2, 10, 11, 12, 14, 17, 20])
    def test_loss_and_grad_bit_equal(self, n, h):
        rng = np.random.default_rng(1000 * h + n)
        d = 8
        model = NeuralNetworkModel(hidden_units=h)
        model._shapes = (d, h)
        params = rng.normal(size=d * h + 2 * h + 1)
        Z = rng.normal(size=(n, d))
        t = rng.normal(size=n)
        work: dict = {}
        for _ in range(2):  # cold, then warm workspace
            loss, grad = model._loss_and_grad(params, Z, t, work)
            ref_loss, ref_grad = reference_loss_and_grad(model, params, Z, t)
            assert loss == ref_loss
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(200, 8))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * X[:, 2:].sum(axis=1)
        fitted = NeuralNetworkModel().fit(X, y, rng=np.random.default_rng(seed))
        reference = ReferenceModel().fit(X, y, rng=np.random.default_rng(seed))
        assert fitted._params.tobytes() == reference._params.tobytes()
        assert fitted.restart_losses_.tobytes() == reference.restart_losses_.tobytes()


class TestValidation:
    def test_unfitted(self):
        model = NeuralNetworkModel()
        assert not model.is_fitted
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict(np.zeros((1, 2)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NeuralNetworkModel(hidden_units=0)
        with pytest.raises(ValueError):
            NeuralNetworkModel(l2=-1.0)
        with pytest.raises(ValueError):
            NeuralNetworkModel(n_restarts=0)
        with pytest.raises(ValueError):
            NeuralNetworkModel(max_iterations=0)

    def test_fit_shape_validation(self, rng):
        model = NeuralNetworkModel()
        with pytest.raises(ValueError, match="2-D"):
            model.fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="disagree"):
            model.fit(np.zeros((5, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="two training samples"):
            model.fit(np.zeros((1, 2)), np.zeros(1))


class TestBatchedRestarts:
    def test_restart_losses_recorded(self, rng):
        X = rng.normal(size=(40, 2))
        y = X.sum(axis=1)
        model = NeuralNetworkModel(hidden_units=4, n_restarts=3).fit(
            X, y, rng=rng
        )
        assert model.restart_losses_.shape == (3,)
        assert model.training_loss_ == model.restart_losses_.min()

    def test_all_restarts_diverged_is_descriptive(self):
        model = NeuralNetworkModel(hidden_units=2, n_restarts=2)
        with pytest.raises(RuntimeError, match="restart"):
            model._select_best(np.array([float("nan"), float("inf")]))

    def test_select_best_skips_non_finite(self):
        model = NeuralNetworkModel(hidden_units=2)
        losses = np.array([np.nan, 3.0, np.inf, 1.0, 2.0])
        assert model._select_best(losses) == 3


class TestFitStatsIntegration:
    def test_fit_records_stats(self, rng):
        X = rng.normal(size=(40, 2))
        y = X.sum(axis=1)
        model = NeuralNetworkModel(hidden_units=4, n_restarts=3).fit(
            X, y, rng=rng
        )
        stats = model.fit_stats_
        assert stats.fits == 1
        assert stats.restarts == 3
        assert stats.scg_iterations > 0
        assert stats.gradient_evals > 0
        assert stats.wall_time_s > 0.0

    def test_shared_stats_accumulate_across_fits(self, rng):
        X = rng.normal(size=(40, 2))
        y = X.sum(axis=1)
        shared = FitStats()
        model = NeuralNetworkModel(hidden_units=4, stats=shared)
        model.fit(X, y, rng=np.random.default_rng(0))
        model.fit(X, y, rng=np.random.default_rng(1))
        assert shared.fits == 2
        assert shared.scg_iterations >= model.fit_stats_.scg_iterations
