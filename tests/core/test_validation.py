"""Tests for repeated random sub-sampling validation."""

from functools import partial

import numpy as np
import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.fitstats import FitStats
from repro.core.linear import LinearModel
from repro.core.methodology import ModelKind, make_model
from repro.core.validation import (
    ValidationResult,
    leave_one_group_out,
    repeated_random_subsampling,
)


@pytest.fixture
def linear_data(rng):
    X = rng.normal(size=(200, 2))
    y = X @ np.array([2.0, 1.0]) + 100.0 + rng.normal(scale=0.5, size=200)
    return X, y


@pytest.fixture
def golden_data():
    """The fixed dataset behind the golden-seed regression values."""
    rng = np.random.default_rng(1234)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + 30.0 + rng.normal(scale=0.3, size=60)
    return X, y


class TestRepeatedRandomSubsampling:
    def test_result_shapes(self, linear_data, rng):
        X, y = linear_data
        res = repeated_random_subsampling(
            LinearModel, X, y, repetitions=10, rng=rng
        )
        assert res.repetitions == 10
        assert res.train_mpe.shape == (10,)
        assert res.test_nrmse.shape == (10,)

    def test_linear_model_on_linear_data_is_accurate(self, linear_data, rng):
        X, y = linear_data
        res = repeated_random_subsampling(
            LinearModel, X, y, repetitions=20, rng=rng
        )
        assert res.mean_test_mpe < 2.0
        assert res.mean_train_mpe < 2.0

    def test_test_error_tracks_train_error(self, linear_data, rng):
        X, y = linear_data
        res = repeated_random_subsampling(
            LinearModel, X, y, repetitions=20, rng=rng
        )
        assert res.mean_test_mpe == pytest.approx(res.mean_train_mpe, rel=0.5)

    def test_split_sizes(self, rng):
        """Each repetition trains on 70% and tests on 30%."""
        sizes = []

        class SpyModel(LinearModel):
            def fit(self, X, y):
                sizes.append(len(y))
                return super().fit(X, y)

        X = rng.normal(size=(100, 1))
        y = X[:, 0] * 2.0 + rng.normal(size=100)
        repeated_random_subsampling(SpyModel, X, y, repetitions=5, rng=rng)
        assert sizes == [70] * 5

    def test_different_partitions_each_repetition(self, rng):
        """Model sees different training data across repetitions."""
        first_rows = []

        class SpyModel(LinearModel):
            def fit(self, X, y):
                first_rows.append(tuple(np.sort(y)[:3]))
                return super().fit(X, y)

        X = rng.normal(size=(50, 1))
        y = np.arange(50, dtype=float) + 1.0
        repeated_random_subsampling(SpyModel, X, y, repetitions=8, rng=rng)
        assert len(set(first_rows)) > 1

    def test_deterministic_given_rng(self, linear_data):
        X, y = linear_data
        r1 = repeated_random_subsampling(
            LinearModel, X, y, repetitions=5, rng=np.random.default_rng(1)
        )
        r2 = repeated_random_subsampling(
            LinearModel, X, y, repetitions=5, rng=np.random.default_rng(1)
        )
        np.testing.assert_array_equal(r1.test_mpe, r2.test_mpe)

    def test_validation_errors(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        with pytest.raises(ValueError, match="test fraction"):
            repeated_random_subsampling(LinearModel, X, y, test_fraction=0.0)
        with pytest.raises(ValueError, match="repetition"):
            repeated_random_subsampling(LinearModel, X, y, repetitions=0)
        with pytest.raises(ValueError, match="four samples"):
            repeated_random_subsampling(LinearModel, X[:3], y[:3])
        with pytest.raises(ValueError, match="X must be"):
            repeated_random_subsampling(LinearModel, X, y[:5])
        with pytest.raises(ValueError, match="workers"):
            repeated_random_subsampling(LinearModel, X, y, workers=0)


class TestGoldenSplitStream:
    """Pin the split RNG stream: the parallel refactor must not move it.

    The expected arrays were captured from the pre-refactor serial loop
    (which drew one permutation per repetition, in repetition order).  If
    any of these values shift, historical results stop being reproducible.
    """

    TRAIN_MPE = [0.8292938706974152, 0.8292009753302093, 0.772245905922028,
                 0.7778607611543853, 0.8202198370526028, 0.7567068749671088]
    TEST_MPE = [0.8147893748964959, 0.7193494220954807, 0.8916283117433994,
                0.8492490815776694, 0.7600453244207703, 0.9984920347789276]
    TRAIN_NRMSE = [2.4141224682608153, 2.2476552896373536, 2.5437253655927443,
                   2.1823304236238625, 2.2588751949001584, 2.2473506893553266]
    TEST_NRMSE = [2.651345675015839, 5.012900225586206, 3.459959535627479,
                  3.835364104327846, 3.780327229911179, 3.7983198748998896]

    def test_serial_matches_pre_refactor_values(self, golden_data):
        X, y = golden_data
        res = repeated_random_subsampling(
            LinearModel, X, y, repetitions=6, rng=np.random.default_rng(77)
        )
        np.testing.assert_array_equal(res.train_mpe, self.TRAIN_MPE)
        np.testing.assert_array_equal(res.test_mpe, self.TEST_MPE)
        np.testing.assert_array_equal(res.train_nrmse, self.TRAIN_NRMSE)
        np.testing.assert_array_equal(res.test_nrmse, self.TEST_NRMSE)

    def test_parallel_matches_pre_refactor_values(self, golden_data):
        X, y = golden_data
        res = repeated_random_subsampling(
            LinearModel, X, y, repetitions=6,
            rng=np.random.default_rng(77), workers=2,
        )
        np.testing.assert_array_equal(res.train_mpe, self.TRAIN_MPE)
        np.testing.assert_array_equal(res.test_mpe, self.TEST_MPE)
        np.testing.assert_array_equal(res.train_nrmse, self.TRAIN_NRMSE)
        np.testing.assert_array_equal(res.test_nrmse, self.TEST_NRMSE)


class TestWorkersBitIdentity:
    def test_linear_workers_equal(self, golden_data):
        X, y = golden_data
        results = [
            repeated_random_subsampling(
                LinearModel, X, y, repetitions=8,
                rng=np.random.default_rng(5), workers=workers,
            )
            for workers in (1, 4)
        ]
        serial, parallel = results
        np.testing.assert_array_equal(serial.train_mpe, parallel.train_mpe)
        np.testing.assert_array_equal(serial.test_mpe, parallel.test_mpe)
        np.testing.assert_array_equal(serial.train_nrmse, parallel.train_nrmse)
        np.testing.assert_array_equal(serial.test_nrmse, parallel.test_nrmse)

    def test_neural_workers_equal(self, golden_data):
        """Neural fits draw per-repetition spawned streams, so the parallel
        pool reproduces the serial loop bit-for-bit — including the SCG
        trajectory counts."""
        X, y = golden_data
        factory = partial(make_model, ModelKind.NEURAL, FeatureSet.C)
        results = [
            repeated_random_subsampling(
                factory, X, y, repetitions=4,
                rng=np.random.default_rng(11), workers=workers,
            )
            for workers in (1, 4)
        ]
        serial, parallel = results
        np.testing.assert_array_equal(serial.train_mpe, parallel.train_mpe)
        np.testing.assert_array_equal(serial.test_mpe, parallel.test_mpe)
        np.testing.assert_array_equal(serial.test_nrmse, parallel.test_nrmse)
        assert (
            serial.fit_stats.scg_iterations
            == parallel.fit_stats.scg_iterations
        )
        assert serial.fit_stats.restarts == parallel.fit_stats.restarts

    def test_logo_workers_equal(self, rng):
        X = rng.normal(size=(60, 2))
        y = X @ np.array([1.0, -1.0]) + 20.0 + rng.normal(scale=0.1, size=60)
        groups = [f"g{i % 3}" for i in range(60)]
        serial = leave_one_group_out(LinearModel, X, y, groups, workers=1)
        parallel = leave_one_group_out(LinearModel, X, y, groups, workers=3)
        assert serial.group_test_mpe == parallel.group_test_mpe
        assert serial.group_test_nrmse == parallel.group_test_nrmse

    def test_logo_workers_validation(self, rng):
        X = rng.normal(size=(8, 1))
        y = X[:, 0] + rng.normal(scale=0.01, size=8)
        groups = ["a"] * 4 + ["b"] * 4
        with pytest.raises(ValueError, match="workers"):
            leave_one_group_out(LinearModel, X, y, groups, workers=0)


class TestFitStatsAggregation:
    def test_result_carries_fit_stats(self, golden_data):
        X, y = golden_data
        res = repeated_random_subsampling(
            LinearModel, X, y, repetitions=5, rng=np.random.default_rng(2)
        )
        assert res.fit_stats is not None
        assert res.fit_stats.fits == 5
        assert res.fit_stats.wall_time_s > 0.0

    def test_shared_stats_merge(self, golden_data):
        X, y = golden_data
        shared = FitStats()
        repeated_random_subsampling(
            LinearModel, X, y, repetitions=3,
            rng=np.random.default_rng(2), stats=shared,
        )
        repeated_random_subsampling(
            LinearModel, X, y, repetitions=4,
            rng=np.random.default_rng(3), stats=shared,
        )
        assert shared.fits == 7

    def test_counts_worker_independent(self, golden_data):
        X, y = golden_data
        factory = partial(make_model, ModelKind.NEURAL, FeatureSet.C)
        counts = []
        for workers in (1, 3):
            res = repeated_random_subsampling(
                factory, X, y, repetitions=3,
                rng=np.random.default_rng(9), workers=workers,
            )
            counts.append(
                (res.fit_stats.fits, res.fit_stats.restarts,
                 res.fit_stats.scg_iterations, res.fit_stats.gradient_evals)
            )
        assert counts[0] == counts[1]


class TestValidationResult:
    def test_summary_statistics(self):
        res = ValidationResult(
            train_mpe=np.array([1.0, 2.0]),
            test_mpe=np.array([2.0, 4.0]),
            train_nrmse=np.array([0.5, 1.5]),
            test_nrmse=np.array([1.0, 3.0]),
        )
        assert res.mean_train_mpe == pytest.approx(1.5)
        assert res.mean_test_mpe == pytest.approx(3.0)
        assert res.mean_train_nrmse == pytest.approx(1.0)
        assert res.mean_test_nrmse == pytest.approx(2.0)
        assert res.test_mpe_std == pytest.approx(1.0)
        assert res.repetitions == 2


class TestDegenerateSplits:
    def test_tiny_dataset_never_gets_one_sample_test_split(self, rng):
        """Regression: round(7 * 0.2) == 1 used to crash inside nrmse

        ("actual values have zero range") because a single-row test
        partition always has zero range.  The split floor is now two rows.
        """
        X = rng.normal(size=(7, 2))
        y = X @ np.array([1.0, 2.0]) + 3.0 + rng.normal(scale=0.01, size=7)
        res = repeated_random_subsampling(
            LinearModel, X, y, test_fraction=0.2, repetitions=10, rng=rng
        )
        assert res.repetitions == 10
        assert np.isfinite(res.test_nrmse).all()

    def test_extreme_fractions_stay_clamped(self, rng):
        X = rng.normal(size=(8, 1))
        y = X[:, 0] * 2.0 + 1.0 + rng.normal(scale=0.01, size=8)
        for fraction in (0.01, 0.99):
            res = repeated_random_subsampling(
                LinearModel, X, y, test_fraction=fraction, repetitions=3, rng=rng
            )
            assert np.isfinite(res.test_nrmse).all()
            assert np.isfinite(res.train_nrmse).all()
