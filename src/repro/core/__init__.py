"""The paper's contribution: co-location aware performance modeling.

Features (Table I), feature sets (Table II), the linear and neural models
(Sections III-C/D), accuracy metrics (Section III-E), repeated random
sub-sampling validation (Section IV-B4), PCA feature ranking (Section
III-B), and the end-to-end methodology/predictor API.
"""

from .classinfo import ClassProfiles, predict_time_from_classes
from .ensemble import EnsemblePredictor, PredictionInterval
from .feature_sets import FEATURE_SETS, FeatureSet, features_for
from .fitstats import GLOBAL_FIT_STATS, FitStats
from .importance import FeatureImportance, permutation_importance
from .selection import SelectionStep, forward_selection, rank_feature_sets
from .features import (
    FEATURE_DESCRIPTIONS,
    CoLocationObservation,
    Feature,
    feature_matrix,
    feature_row,
    observation_from_profiles,
)
from .linear import LinearModel
from .methodology import (
    ModelEvaluation,
    ModelKind,
    PerformancePredictor,
    evaluate_models,
    make_model,
)
from .metrics import mae, mpe, nrmse, percent_errors, rmse
from .neural import NeuralNetworkModel, default_hidden_units
from .pca import PCA, rank_features
from .persistence import (
    PersistenceError,
    artifact_from_dict,
    artifact_to_dict,
    ensemble_from_dict,
    ensemble_to_dict,
    load_artifact,
    load_ensemble,
    load_predictor,
    predictor_from_dict,
    predictor_to_dict,
    save_artifact,
    save_ensemble,
    save_predictor,
)
from .scg import SCGResult, minimize_scg
from .validation import (
    GroupValidationResult,
    RegressionModel,
    ValidationResult,
    leave_one_group_out,
    repeated_random_subsampling,
)

__all__ = [
    "ClassProfiles",
    "CoLocationObservation",
    "EnsemblePredictor",
    "FEATURE_DESCRIPTIONS",
    "FEATURE_SETS",
    "Feature",
    "FeatureImportance",
    "FeatureSet",
    "FitStats",
    "GLOBAL_FIT_STATS",
    "GroupValidationResult",
    "LinearModel",
    "ModelEvaluation",
    "ModelKind",
    "NeuralNetworkModel",
    "PCA",
    "PerformancePredictor",
    "PersistenceError",
    "PredictionInterval",
    "RegressionModel",
    "SCGResult",
    "SelectionStep",
    "ValidationResult",
    "artifact_from_dict",
    "artifact_to_dict",
    "default_hidden_units",
    "ensemble_from_dict",
    "ensemble_to_dict",
    "evaluate_models",
    "feature_matrix",
    "feature_row",
    "features_for",
    "forward_selection",
    "leave_one_group_out",
    "load_artifact",
    "load_ensemble",
    "load_predictor",
    "mae",
    "make_model",
    "minimize_scg",
    "mpe",
    "nrmse",
    "observation_from_profiles",
    "percent_errors",
    "permutation_importance",
    "predict_time_from_classes",
    "predictor_from_dict",
    "predictor_to_dict",
    "rank_feature_sets",
    "rank_features",
    "repeated_random_subsampling",
    "rmse",
    "save_artifact",
    "save_ensemble",
    "save_predictor",
]
