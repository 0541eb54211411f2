"""Tests for the end-to-end methodology and predictor API."""

import pickle

import numpy as np
import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.linear import LinearModel
from repro.core.methodology import (
    ModelKind,
    PerformancePredictor,
    evaluate_models,
    make_model,
)
from repro.core.neural import NeuralNetworkModel, default_hidden_units
from repro.counters.hpcrun import hpcrun_flat
from repro.workloads.suite import get_application


class TestMakeModel:
    def test_linear(self):
        model = make_model(ModelKind.LINEAR, FeatureSet.A)
        assert isinstance(model, LinearModel)

    def test_neural_hidden_size_follows_feature_count(self):
        for fs in FeatureSet:
            model = make_model(ModelKind.NEURAL, fs)
            assert isinstance(model, NeuralNetworkModel)
            assert model.hidden_units == default_hidden_units(len(fs.features))

    def test_neural_rng_binding(self, small_dataset, rng):
        from repro.core.features import feature_matrix

        X, y = feature_matrix(list(small_dataset), FeatureSet.C.features)
        m1 = make_model(ModelKind.NEURAL, FeatureSet.C, rng=np.random.default_rng(5))
        m2 = make_model(ModelKind.NEURAL, FeatureSet.C, rng=np.random.default_rng(5))
        m1.fit(X, y)
        m2.fit(X, y)
        np.testing.assert_array_equal(m1.predict(X), m2.predict(X))


class TestEvaluateModels:
    def test_twelve_models_by_default(self, small_dataset):
        evals = evaluate_models(list(small_dataset), repetitions=2)
        assert len(evals) == 12
        labels = {e.label for e in evals}
        assert "linear/A" in labels and "neural/F" in labels

    def test_restricted_grid(self, small_dataset):
        evals = evaluate_models(
            list(small_dataset),
            kinds=(ModelKind.LINEAR,),
            feature_sets=(FeatureSet.A, FeatureSet.F),
            repetitions=2,
        )
        assert len(evals) == 2

    def test_deterministic_given_seed(self, small_dataset):
        e1 = evaluate_models(
            list(small_dataset),
            kinds=(ModelKind.LINEAR,),
            repetitions=3,
            seed=9,
        )
        e2 = evaluate_models(
            list(small_dataset),
            kinds=(ModelKind.LINEAR,),
            repetitions=3,
            seed=9,
        )
        for a, b in zip(e1, e2):
            np.testing.assert_array_equal(a.result.test_mpe, b.result.test_mpe)

    def test_errors_are_finite_percentages(self, small_dataset):
        evals = evaluate_models(
            list(small_dataset), kinds=(ModelKind.LINEAR,), repetitions=2
        )
        for e in evals:
            assert 0.0 <= e.result.mean_test_mpe < 100.0
            assert 0.0 <= e.result.mean_test_nrmse < 100.0

    def test_workers_do_not_change_results(self, small_dataset):
        def run(workers):
            return evaluate_models(
                list(small_dataset),
                kinds=(ModelKind.NEURAL,),
                feature_sets=(FeatureSet.C,),
                repetitions=3,
                seed=9,
                workers=workers,
            )

        serial, parallel = run(1), run(2)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.result.test_mpe, b.result.test_mpe)
            np.testing.assert_array_equal(
                a.result.test_nrmse, b.result.test_nrmse
            )

    def test_shared_stats_accumulate(self, small_dataset):
        from repro.core.fitstats import FitStats

        stats = FitStats()
        evals = evaluate_models(
            list(small_dataset),
            kinds=(ModelKind.LINEAR,),
            feature_sets=(FeatureSet.A, FeatureSet.B),
            repetitions=2,
            stats=stats,
        )
        assert stats.fits == sum(e.result.repetitions for e in evals) == 4


class TestPerformancePredictor:
    def test_fit_predict_time(self, small_dataset, engine_6core, baselines_6core):
        predictor = PerformancePredictor(ModelKind.LINEAR, FeatureSet.D)
        predictor.fit(list(small_dataset))
        fmax = engine_6core.processor.pstates.fastest.frequency_ghz
        target = baselines_6core.get("canneal", fmax)
        co = [baselines_6core.get("cg", fmax)] * 3
        t = predictor.predict_time(target, co)
        assert 100.0 < t < 1000.0

    def test_neural_predictor_tracks_simulator(
        self, small_dataset, engine_6core, baselines_6core
    ):
        predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F)
        predictor.fit(list(small_dataset))
        fmax = engine_6core.processor.pstates.fastest.frequency_ghz
        target = baselines_6core.get("canneal", fmax)
        co = [baselines_6core.get("cg", fmax)] * 3
        predicted = predictor.predict_time(target, co)
        actual = engine_6core.run(
            get_application("canneal"), [get_application("cg")] * 3
        ).target.execution_time_s
        assert predicted == pytest.approx(actual, rel=0.10)

    def test_predict_slowdown(self, small_dataset, baselines_6core, engine_6core):
        predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F)
        predictor.fit(list(small_dataset))
        fmax = engine_6core.processor.pstates.fastest.frequency_ghz
        target = baselines_6core.get("canneal", fmax)
        co = [baselines_6core.get("cg", fmax)] * 4
        slowdown = predictor.predict_slowdown(target, co)
        assert slowdown > 1.05

    def test_predict_observations(self, small_dataset):
        predictor = PerformancePredictor(ModelKind.LINEAR, FeatureSet.B)
        predictor.fit(list(small_dataset))
        preds = predictor.predict_observations(list(small_dataset))
        assert preds.shape == (len(small_dataset),)
        assert np.all(np.isfinite(preds))

    def test_unfitted_raises(self, baselines_6core):
        predictor = PerformancePredictor()
        assert not predictor.is_fitted
        target = baselines_6core.get("canneal", 2.53)
        with pytest.raises(RuntimeError, match="not fitted"):
            predictor.predict_time(target, [])

    def test_fitted_neural_predictor_pickles(self, small_dataset):
        predictor = PerformancePredictor(ModelKind.NEURAL, FeatureSet.F, seed=2)
        predictor.fit(list(small_dataset))
        loaded = pickle.loads(pickle.dumps(predictor))
        assert np.array_equal(
            loaded.predict_observations(list(small_dataset)),
            predictor.predict_observations(list(small_dataset)),
        )

    def test_seed_reproducibility(self, small_dataset, baselines_6core):
        target = baselines_6core.get("sp", 2.53)
        co = [baselines_6core.get("cg", 2.53)] * 2
        p1 = PerformancePredictor(ModelKind.NEURAL, FeatureSet.E, seed=3)
        p1.fit(list(small_dataset))
        p2 = PerformancePredictor(ModelKind.NEURAL, FeatureSet.E, seed=3)
        p2.fit(list(small_dataset))
        assert p1.predict_time(target, co) == p2.predict_time(target, co)


class TestMachineConsistency:
    def test_processor_name_recorded(self, small_dataset):
        predictor = PerformancePredictor(ModelKind.LINEAR, FeatureSet.B)
        assert predictor.processor_name is None
        predictor.fit(list(small_dataset))
        assert predictor.processor_name == "Xeon E5649"

    def test_mixed_machine_training_rejected(self, small_dataset, engine_12core):
        import dataclasses

        alien = dataclasses.replace(
            small_dataset.observations[0], processor_name="Xeon E5-2697v2"
        )
        with pytest.raises(ValueError, match="mixes machines"):
            PerformancePredictor(ModelKind.LINEAR, FeatureSet.B).fit(
                list(small_dataset) + [alien]
            )

    def test_cross_machine_prediction_rejected(
        self, small_dataset, engine_12core
    ):
        from repro.counters.hpcrun import hpcrun_flat

        predictor = PerformancePredictor(ModelKind.LINEAR, FeatureSet.B)
        predictor.fit(list(small_dataset))
        foreign = hpcrun_flat(engine_12core, get_application("canneal"))
        with pytest.raises(ValueError, match="trained on"):
            predictor.predict_time(foreign, [])

    def test_persistence_preserves_provenance(
        self, small_dataset, baselines_6core, engine_12core
    ):
        """Saved models remember their machine and keep enforcing it."""
        from repro.core.persistence import predictor_from_dict, predictor_to_dict

        predictor = PerformancePredictor(ModelKind.LINEAR, FeatureSet.B)
        predictor.fit(list(small_dataset))
        loaded = predictor_from_dict(predictor_to_dict(predictor))
        assert loaded.processor_name == "Xeon E5649"
        target = baselines_6core.get("canneal", 2.53)
        assert loaded.predict_time(target, []) > 0
        foreign = hpcrun_flat(engine_12core, get_application("canneal"))
        with pytest.raises(ValueError, match="trained on"):
            loaded.predict_time(foreign, [])

    def test_legacy_payload_without_provenance_accepted(self, small_dataset):
        """Payloads missing processor_name load with enforcement off."""
        from repro.core.persistence import predictor_from_dict, predictor_to_dict

        predictor = PerformancePredictor(ModelKind.LINEAR, FeatureSet.B)
        predictor.fit(list(small_dataset))
        data = predictor_to_dict(predictor)
        del data["processor_name"]
        loaded = predictor_from_dict(data)
        assert loaded.processor_name is None
