"""Experiment harness: baselines, training data collection, experiments."""

from .baselines import BaselineTable, collect_baselines
from .collection import (
    TRAINING_SETUPS,
    TrainingSetup,
    collect_random_training_data,
    collect_training_data,
    setup_for,
)
from .datasets import ObservationDataset
from .manifest import (
    DatasetManifest,
    manifest_path_for,
    read_manifest,
    write_manifest,
)
from .parallel import spawn_streams
from .experiments import (
    ExperimentContext,
    default_context,
    figure5a_distributions,
    figure5b_errors,
    figure_series,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
)

__all__ = [
    "BaselineTable",
    "DatasetManifest",
    "ExperimentContext",
    "ObservationDataset",
    "TRAINING_SETUPS",
    "TrainingSetup",
    "collect_baselines",
    "collect_random_training_data",
    "collect_training_data",
    "default_context",
    "figure5a_distributions",
    "figure5b_errors",
    "figure_series",
    "manifest_path_for",
    "read_manifest",
    "setup_for",
    "spawn_streams",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
    "write_manifest",
]
