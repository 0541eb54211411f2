"""Model features and co-location observations (paper, Table I).

The eight features the models may use, and the observation record they are
extracted from.  A :class:`CoLocationObservation` captures exactly what a
resource manager would know ahead of time — *baseline* (solo) measurements
of the target and co-located applications — plus the measured co-located
execution time as the label.

The crucial property (Section III): apart from the label, everything is
derived from a *single* baseline profiling run per application.  No feature
is measured under co-location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..counters.hpcrun import FlatProfile

__all__ = [
    "Feature",
    "FEATURE_DESCRIPTIONS",
    "FEATURE_NAMES",
    "CoLocationObservation",
    "feature_matrix",
    "feature_row",
    "observation_from_profiles",
]


class Feature(enum.Enum):
    """The eight model features of Table I."""

    BASE_EX_TIME = "baseExTime"        # baseline execution time at the P-state
    NUM_CO_APP = "numCoApp"            # number of co-located applications
    CO_APP_MEM = "coAppMem"            # sum of co-app memory intensities
    TARGET_MEM = "targetMem"           # target memory intensity
    CO_APP_CM_CA = "coAppCM/CA"        # sum of co-app LLC misses/accesses
    CO_APP_CA_INS = "coAppCA/INS"      # sum of co-app LLC accesses/instructions
    TARGET_CM_CA = "targetCM/CA"       # target LLC misses/accesses
    TARGET_CA_INS = "targetCA/INS"     # target LLC accesses/instructions


#: Table I, column 2: the aspect of execution each feature measures.
FEATURE_DESCRIPTIONS: dict[Feature, str] = {
    Feature.BASE_EX_TIME: "baseline execution time of target application at all P-states",
    Feature.NUM_CO_APP: "number of co-located applications",
    Feature.CO_APP_MEM: "sum of co-application memory intensities",
    Feature.TARGET_MEM: "target application memory intensity",
    Feature.CO_APP_CM_CA: "sum of co-application last-level cache misses/cache accesses",
    Feature.CO_APP_CA_INS: "sum of co-application last-level cache accesses/instructions",
    Feature.TARGET_CM_CA: "target application last-level cache misses/cache accesses",
    Feature.TARGET_CA_INS: "target application last-level cache accesses/instructions",
}

#: Table I names in :class:`Feature` order: the keys of a feature dict.
FEATURE_NAMES: tuple[str, ...] = tuple(f.value for f in Feature)

# The one Table I column order: each feature's observation field, in
# Feature order.  An observation's table row is these fields, then the label.
_FEATURE_FIELDS = (
    "base_ex_time_s", "num_co_app", "co_app_mem", "target_mem",
    "co_app_cm_ca", "co_app_ca_ins", "target_cm_ca", "target_ca_ins",
)
_table_row = attrgetter(*_FEATURE_FIELDS, "actual_time_s")
_COLUMN = {f: i for i, f in enumerate(Feature)}


@dataclass(frozen=True)
class CoLocationObservation:
    """One co-location test with its baseline-derived features and label.

    Metadata fields (machine, names, frequency) are carried for slicing and
    reporting; the models never see them directly.
    """

    # --- metadata -------------------------------------------------------
    processor_name: str
    frequency_ghz: float
    target_name: str
    co_app_name: str | None

    # --- Table I features ------------------------------------------------
    base_ex_time_s: float
    num_co_app: int
    co_app_mem: float
    target_mem: float
    co_app_cm_ca: float
    co_app_ca_ins: float
    target_cm_ca: float
    target_ca_ins: float

    # --- label -----------------------------------------------------------
    actual_time_s: float

    def __post_init__(self) -> None:
        if self.base_ex_time_s <= 0.0:
            raise ValueError("baseline execution time must be positive")
        if self.actual_time_s <= 0.0:
            raise ValueError("actual execution time must be positive")
        if self.num_co_app < 0:
            raise ValueError("number of co-apps must be non-negative")
        for name in _FEATURE_FIELDS[2:]:  # the six intensities and ratios
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    def feature_value(self, feature: Feature) -> float:
        """Value of one Table I feature for this observation."""
        return float(_table_row(self)[_COLUMN[feature]])

    @property
    def slowdown(self) -> float:
        """Measured normalized execution time (actual over baseline)."""
        return self.actual_time_s / self.base_ex_time_s


def _baseline_values(target: FlatProfile, co_apps: list[FlatProfile]) -> tuple:
    """Table I values in Feature order from baseline profiles (numCoApp an int)."""
    return (
        target.wall_time_s,
        len(co_apps),
        float(sum(p.memory_intensity for p in co_apps)),
        target.memory_intensity,
        float(sum(p.cm_per_ca for p in co_apps)),
        float(sum(p.ca_per_ins for p in co_apps)),
        target.cm_per_ca,
        target.ca_per_ins,
    )


def observation_from_profiles(
    target_baseline: FlatProfile,
    co_app_baselines: list[FlatProfile],
    actual_time_s: float,
    *,
    co_app_name: str | None = None,
) -> CoLocationObservation:
    """Build an observation from hpcrun-flat baseline profiles.

    ``target_baseline`` must be profiled at the P-state of the co-location
    test (the paper measures baselines at all P-states); co-app baselines
    contribute only frequency-independent ratios, so their P-state does not
    matter.
    """
    if co_app_baselines and co_app_name is None:
        co_app_name = "+".join(sorted({p.app_name for p in co_app_baselines}))
    # Positional: the dataclass declares its Table I fields in Feature
    # order, between the metadata and the label (a keyword dict costs more).
    return CoLocationObservation(
        target_baseline.processor_name,
        target_baseline.frequency_ghz,
        target_baseline.app_name,
        co_app_name if co_app_baselines else None,
        *_baseline_values(target_baseline, co_app_baselines),
        actual_time_s,
    )


def feature_row(
    target_baseline: FlatProfile,
    co_app_baselines: list[FlatProfile],
    features: list[Feature] | tuple[Feature, ...],
) -> np.ndarray:
    """Feature values for a *prospective* co-location (no label needed).

    This is the prediction-time path: a resource manager weighing a
    placement has baselines but, by definition, no measured co-located
    time yet.
    """
    values = _baseline_values(target_baseline, co_app_baselines)
    return np.array([values[_COLUMN[f]] for f in features], dtype=float)


def feature_matrix(
    observations: list[CoLocationObservation],
    features: list[Feature] | tuple[Feature, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack observations into ``(X, y)`` for the chosen features.

    Returns the ``(n, k)`` design matrix and the ``(n,)`` vector of actual
    co-located execution times.
    """
    if not observations:
        raise ValueError("need at least one observation")
    if not features:
        raise ValueError("need at least one feature")
    # X must stay C-contiguous: a model's column means and deviations sum
    # in memory order, so an F-ordered ``table[:, cols]`` changes fits.
    table = np.array([_table_row(obs) for obs in observations], dtype=float)
    X = table.take([_COLUMN[f] for f in features], axis=1)
    return X, table[:, -1].copy()
