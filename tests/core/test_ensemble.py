"""Tests for the bootstrap ensemble predictor."""

import pickle

import numpy as np
import pytest

from repro.core.ensemble import EnsemblePredictor, PredictionInterval
from repro.core.feature_sets import FeatureSet
from repro.core.fitstats import GLOBAL_FIT_STATS
from repro.core.methodology import ModelKind
from repro.counters.hpcrun import hpcrun_flat
from repro.workloads.suite import get_application


@pytest.fixture(scope="module")
def ensemble(small_dataset):
    ens = EnsemblePredictor(
        ModelKind.NEURAL, FeatureSet.F, n_members=4, seed=1
    )
    ens.fit(list(small_dataset))
    return ens


class TestPredictionInterval:
    def test_interval_band(self):
        pi = PredictionInterval(mean_s=300.0, std_s=10.0, member_predictions=(290.0, 310.0))
        assert pi.interval(2.0) == (280.0, 320.0)
        assert pi.relative_spread == pytest.approx(10.0 / 300.0)


class TestEnsemblePredictor:
    def test_members_trained(self, ensemble):
        assert ensemble.is_fitted
        assert len(ensemble._members) == 4

    def test_interval_contains_truth_in_distribution(
        self, ensemble, engine_6core, baselines_6core
    ):
        fmax = 2.53
        target = baselines_6core.get("canneal", fmax)
        co = [baselines_6core.get("cg", fmax)] * 3
        pi = ensemble.predict_interval(target, co)
        actual = engine_6core.run(
            get_application("canneal"), [get_application("cg")] * 3
        ).target.execution_time_s
        lo, hi = pi.interval(3.0)
        assert lo < actual < hi or abs(pi.mean_s - actual) / actual < 0.05

    def test_members_disagree(self, ensemble, baselines_6core):
        target = baselines_6core.get("sp", 2.53)
        co = [baselines_6core.get("cg", 2.53)] * 2
        pi = ensemble.predict_interval(target, co)
        assert pi.std_s > 0.0
        assert len(set(pi.member_predictions)) > 1

    def test_spread_grows_off_distribution(self, ensemble, baselines_6core, engine_6core):
        """The alarm signal: disagreement rises for exotic placements."""
        from repro.workloads.classes import MemoryIntensityClass
        from repro.workloads.generator import generate_application

        fmax = 2.53
        # In-distribution: a training-grid-style placement.
        easy = ensemble.predict_interval(
            baselines_6core.get("canneal", fmax),
            [baselines_6core.get("cg", fmax)] * 3,
        )
        # Off-distribution: synthetic extreme target at a rare count.
        synth = generate_application(
            MemoryIntensityClass.CLASS_I, np.random.default_rng(123)
        )
        synth_base = hpcrun_flat(engine_6core, synth)
        hard = ensemble.predict_interval(
            synth_base, [baselines_6core.get("cg", fmax)] * 5
        )
        assert hard.relative_spread > easy.relative_spread

    def test_predict_observations_shapes(self, ensemble, small_dataset):
        means, stds = ensemble.predict_observations(list(small_dataset))
        assert means.shape == stds.shape == (len(small_dataset),)
        assert np.all(stds >= 0.0)

    def test_deterministic_given_seed(self, small_dataset, baselines_6core):
        def build():
            ens = EnsemblePredictor(
                ModelKind.LINEAR, FeatureSet.C, n_members=3, seed=9
            )
            return ens.fit(list(small_dataset))

        target = baselines_6core.get("ep", 2.53)
        co = [baselines_6core.get("cg", 2.53)]
        p1 = build().predict_interval(target, co)
        p2 = build().predict_interval(target, co)
        assert p1.member_predictions == p2.member_predictions

    def test_validation(self, small_dataset, baselines_6core, engine_12core):
        with pytest.raises(ValueError, match="two members"):
            EnsemblePredictor(n_members=1)
        with pytest.raises(ValueError, match="workers"):
            EnsemblePredictor(n_members=2, workers=0)
        ens = EnsemblePredictor(ModelKind.LINEAR, FeatureSet.B, n_members=2)
        with pytest.raises(RuntimeError, match="not fitted"):
            ens.predict_interval(baselines_6core.get("ep", 2.53), [])
        ens.fit(list(small_dataset))
        foreign = hpcrun_flat(engine_12core, get_application("ep"))
        with pytest.raises(ValueError, match="trained on"):
            ens.predict_interval(foreign, [])


class TestParallelFit:
    def test_workers_train_the_identical_ensemble(
        self, small_dataset, baselines_6core
    ):
        """Resamples and member streams are pre-drawn from the ensemble
        seed, so pool-trained members equal serially trained ones; and
        every member fit reaches this process's fit counters, whichever
        process fitted it and whether or not the model keeps a record."""
        counts = (
            "fits", "restarts", "scg_iterations", "function_evals",
            "gradient_evals",
        )

        def build(kind, workers):
            ens = EnsemblePredictor(
                kind, FeatureSet.C, n_members=3, seed=4, workers=workers,
            )
            before = [getattr(GLOBAL_FIT_STATS, c) for c in counts]
            ens.fit(list(small_dataset))
            grown = [
                getattr(GLOBAL_FIT_STATS, c) - b for c, b in zip(counts, before)
            ]
            assert grown == [getattr(ens.fit_stats_, c) for c in counts]
            assert ens.fit_stats_.fits == 3
            return ens

        target = baselines_6core.get("sp", 2.53)
        co = [baselines_6core.get("cg", 2.53)] * 2
        for kind in (ModelKind.NEURAL, ModelKind.LINEAR):
            serial = build(kind, 1).predict_interval(target, co)
            parallel = build(kind, 3).predict_interval(target, co)
            assert serial.member_predictions == parallel.member_predictions
            assert serial.mean_s == parallel.mean_s

    def test_serially_fitted_ensemble_pickles(self, small_dataset):
        """Members are the same picklable objects for any ``workers``."""
        ens = EnsemblePredictor(
            ModelKind.NEURAL, FeatureSet.F, n_members=2, seed=6, workers=1,
        )
        ens.fit(list(small_dataset))
        loaded = pickle.loads(pickle.dumps(ens))
        for got, want in zip(
            loaded.predict_observations(list(small_dataset)),
            ens.predict_observations(list(small_dataset)),
        ):
            assert np.array_equal(got, want)

    def test_fit_stats_aggregated_over_members(self, ensemble):
        stats = ensemble.fit_stats_
        assert stats.fits == 4
        assert stats.restarts >= 4
        assert stats.scg_iterations > 0
