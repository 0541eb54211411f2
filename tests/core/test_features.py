"""Tests for Table I features and co-location observations."""

import numpy as np
import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.features import (
    FEATURE_DESCRIPTIONS,
    FEATURE_NAMES,
    CoLocationObservation,
    Feature,
    feature_matrix,
    feature_row,
    observation_from_profiles,
)
from repro.core.methodology import ModelKind, PerformancePredictor, make_model
from repro.counters.hpcrun import hpcrun_flat
from repro.harness.collection import collect_training_data
from repro.workloads.suite import get_application


def reference_value(obs, feature):
    """One feature through the per-observation mapping the table replaced."""
    return {
        Feature.BASE_EX_TIME: obs.base_ex_time_s,
        Feature.NUM_CO_APP: float(obs.num_co_app),
        Feature.CO_APP_MEM: obs.co_app_mem,
        Feature.TARGET_MEM: obs.target_mem,
        Feature.CO_APP_CM_CA: obs.co_app_cm_ca,
        Feature.CO_APP_CA_INS: obs.co_app_ca_ins,
        Feature.TARGET_CM_CA: obs.target_cm_ca,
        Feature.TARGET_CA_INS: obs.target_ca_ins,
    }[feature]


def reference_feature_matrix(observations, features):
    """The list-of-lists builder ``feature_matrix`` used before its table."""
    X = np.array(
        [[reference_value(obs, f) for f in features] for obs in observations]
    )
    y = np.array([obs.actual_time_s for obs in observations])
    return X, y


@pytest.fixture(scope="module")
def table_v(engine_6core, baselines_6core):
    """A full E5649 Table V dataset (1320 observations)."""
    return list(
        collect_training_data(
            engine_6core,
            baselines=baselines_6core,
            rng=np.random.default_rng(2015),
        )
    )


def make_observation(**overrides):
    defaults = dict(
        processor_name="Xeon E5649",
        frequency_ghz=2.53,
        target_name="canneal",
        co_app_name="cg",
        base_ex_time_s=220.0,
        num_co_app=3,
        co_app_mem=0.024,
        target_mem=0.005,
        co_app_cm_ca=2.4,
        co_app_ca_ins=0.06,
        target_cm_ca=0.6,
        target_ca_ins=0.0085,
        actual_time_s=290.0,
    )
    defaults.update(overrides)
    return CoLocationObservation(**defaults)


class TestFeatureEnum:
    def test_eight_features(self):
        assert len(Feature) == 8

    def test_descriptions_complete(self):
        assert set(FEATURE_DESCRIPTIONS) == set(Feature)

    def test_table1_names(self):
        assert Feature.BASE_EX_TIME.value == "baseExTime"
        assert Feature.CO_APP_CM_CA.value == "coAppCM/CA"

    def test_feature_names_are_table1_in_enum_order(self):
        assert FEATURE_NAMES == (
            "baseExTime", "numCoApp", "coAppMem", "targetMem",
            "coAppCM/CA", "coAppCA/INS", "targetCM/CA", "targetCA/INS",
        )


class TestCoLocationObservation:
    def test_feature_values(self):
        obs = make_observation()
        assert obs.feature_value(Feature.BASE_EX_TIME) == 220.0
        assert obs.feature_value(Feature.NUM_CO_APP) == 3.0
        assert obs.feature_value(Feature.CO_APP_MEM) == 0.024
        assert obs.feature_value(Feature.TARGET_CA_INS) == 0.0085

    def test_feature_value_matches_reference_mapping(self, table_v):
        for obs in table_v[::97]:
            for f in Feature:
                value = obs.feature_value(f)
                assert type(value) is float
                assert value == reference_value(obs, f)

    def test_slowdown(self):
        obs = make_observation()
        assert obs.slowdown == pytest.approx(290.0 / 220.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"base_ex_time_s": 0.0},
            {"actual_time_s": -1.0},
            {"num_co_app": -1},
            {"co_app_mem": -0.1},
            {"target_cm_ca": -0.5},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            make_observation(**overrides)


class TestObservationFromProfiles:
    def test_sums_over_co_apps(self, engine_6core):
        target = hpcrun_flat(engine_6core, get_application("canneal"))
        co = hpcrun_flat(engine_6core, get_application("cg"))
        obs = observation_from_profiles(target, [co, co, co], 300.0)
        assert obs.num_co_app == 3
        assert obs.co_app_mem == pytest.approx(3 * co.memory_intensity)
        assert obs.co_app_cm_ca == pytest.approx(3 * co.cm_per_ca)
        assert obs.co_app_ca_ins == pytest.approx(3 * co.ca_per_ins)

    def test_target_fields(self, engine_6core):
        target = hpcrun_flat(engine_6core, get_application("sp"))
        obs = observation_from_profiles(target, [], target.wall_time_s)
        assert obs.target_name == "sp"
        assert obs.base_ex_time_s == target.wall_time_s
        assert obs.target_mem == pytest.approx(target.memory_intensity)
        assert obs.co_app_name is None
        assert obs.num_co_app == 0

    def test_co_app_name_inference(self, engine_6core):
        target = hpcrun_flat(engine_6core, get_application("sp"))
        cg = hpcrun_flat(engine_6core, get_application("cg"))
        ep = hpcrun_flat(engine_6core, get_application("ep"))
        homog = observation_from_profiles(target, [cg, cg], 200.0)
        assert homog.co_app_name == "cg"
        mixed = observation_from_profiles(target, [cg, ep], 200.0)
        assert mixed.co_app_name == "cg+ep"


class TestFeatureMatrix:
    def test_shape_and_order(self):
        observations = [make_observation(actual_time_s=250.0 + i) for i in range(5)]
        feats = (Feature.BASE_EX_TIME, Feature.NUM_CO_APP)
        X, y = feature_matrix(observations, feats)
        assert X.shape == (5, 2)
        np.testing.assert_allclose(X[:, 0], 220.0)
        np.testing.assert_allclose(X[:, 1], 3.0)
        np.testing.assert_allclose(y, 250.0 + np.arange(5))

    def test_single_int_feature_is_float(self):
        X, _y = feature_matrix([make_observation()], (Feature.NUM_CO_APP,))
        assert X.dtype == np.float64
        assert X.tolist() == [[3.0]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feature_matrix([], (Feature.BASE_EX_TIME,))
        with pytest.raises(ValueError):
            feature_matrix([make_observation()], ())


class TestColumnarTable:
    """``feature_matrix`` against the per-observation builder it replaced."""

    @pytest.mark.parametrize("fs", list(FeatureSet), ids=lambda fs: fs.value)
    def test_bit_equal_to_reference(self, table_v, fs):
        X, y = feature_matrix(table_v, fs.features)
        X_ref, y_ref = reference_feature_matrix(table_v, fs.features)
        assert (X.shape, X.dtype) == (X_ref.shape, X_ref.dtype)
        assert (y.shape, y.dtype) == (y_ref.shape, y_ref.dtype)
        assert X.tobytes() == X_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("fs", list(FeatureSet), ids=lambda fs: fs.value)
    def test_layout_is_c_contiguous(self, table_v, fs):
        """Models reduce X's columns in memory order, so layout is output."""
        X, y = feature_matrix(table_v, fs.features)
        assert X.flags.c_contiguous
        assert y.flags.c_contiguous

    @pytest.mark.parametrize("fs", list(FeatureSet), ids=lambda fs: fs.value)
    def test_neural_fit_equals_fit_on_reference(self, table_v, fs):
        predictor = PerformancePredictor(ModelKind.NEURAL, fs, seed=3)
        fitted = predictor.fit(table_v)._model
        X_ref, y_ref = reference_feature_matrix(table_v, fs.features)
        reference = make_model(
            ModelKind.NEURAL, fs, rng=np.random.default_rng(3)
        ).fit(X_ref, y_ref)
        for name in ("_x_mean", "_x_scale", "_params"):
            assert getattr(fitted, name).tobytes() == getattr(
                reference, name
            ).tobytes(), name


class TestFeatureRow:
    def test_matches_observation_path(self, engine_6core):
        target = hpcrun_flat(engine_6core, get_application("canneal"))
        co = hpcrun_flat(engine_6core, get_application("cg"))
        feats = tuple(Feature)
        row = feature_row(target, [co, co], feats)
        obs = observation_from_profiles(target, [co, co], 1.0)
        expected = np.array([reference_value(obs, f) for f in feats])
        assert row.tobytes() == expected.tobytes()

    def test_single_int_feature_is_float(self, engine_6core):
        target = hpcrun_flat(engine_6core, get_application("canneal"))
        co = hpcrun_flat(engine_6core, get_application("cg"))
        row = feature_row(target, [co, co, co], (Feature.NUM_CO_APP,))
        assert row.dtype == np.float64
        assert row.tolist() == [3.0]
