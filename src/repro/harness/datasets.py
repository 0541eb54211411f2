"""Observation datasets with CSV persistence and slicing.

A :class:`ObservationDataset` is what the data-collection harness produces
and what the methodology consumes: a list of
:class:`~repro.core.features.CoLocationObservation` records tagged with the
machine they came from.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..core.features import CoLocationObservation

__all__ = ["ObservationDataset"]

#: One CSV column per observation field, in field order.
_CSV_COLUMNS = [f.name for f in fields(CoLocationObservation)]


@dataclass
class ObservationDataset:
    """A collection of co-location observations from one machine."""

    processor_name: str
    observations: list[CoLocationObservation] = field(default_factory=list)

    def __post_init__(self) -> None:
        for obs in self.observations:
            if obs.processor_name != self.processor_name:
                raise ValueError(
                    f"observation from {obs.processor_name!r} in a "
                    f"{self.processor_name!r} dataset"
                )

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self):
        return iter(self.observations)

    def add(self, observation: CoLocationObservation) -> None:
        """Append one observation (machine tag must match)."""
        if observation.processor_name != self.processor_name:
            raise ValueError(
                f"observation from {observation.processor_name!r} in a "
                f"{self.processor_name!r} dataset"
            )
        self.observations.append(observation)

    def extend(self, observations: list[CoLocationObservation]) -> None:
        """Append many observations."""
        for obs in observations:
            self.add(obs)

    # ------------------------------------------------------------- slicing

    def filter(
        self,
        *,
        target_name: str | None = None,
        co_app_name: str | None = None,
        frequency_ghz: float | None = None,
        num_co_app: int | None = None,
    ) -> "ObservationDataset":
        """Subset by any combination of metadata fields."""
        kept = [
            obs
            for obs in self.observations
            if (target_name is None or obs.target_name == target_name)
            and (co_app_name is None or obs.co_app_name == co_app_name)
            and (
                frequency_ghz is None
                or abs(obs.frequency_ghz - frequency_ghz) < 1e-9
            )
            and (num_co_app is None or obs.num_co_app == num_co_app)
        ]
        return ObservationDataset(self.processor_name, kept)

    def target_names(self) -> list[str]:
        """Distinct target applications, in first-seen order."""
        seen: dict[str, None] = {}
        for obs in self.observations:
            seen.setdefault(obs.target_name, None)
        return list(seen)

    def actual_times(self) -> np.ndarray:
        """All measured co-located execution times."""
        return np.array([obs.actual_time_s for obs in self.observations])

    # --------------------------------------------------------- persistence

    def to_csv(self, path: str | Path) -> None:
        """Write the dataset as CSV (one row per observation)."""
        with open(path, "w", newline="") as fh:
            self._write_csv(fh)

    def to_csv_string(self) -> str:
        """CSV content as a string (for tests and piping)."""
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()

    def _write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for obs in self.observations:
            # repr(float(x)) is the shortest string that round-trips the
            # exact double (and normalizes numpy scalars to plain floats).
            writer.writerow(
                [
                    obs.processor_name,
                    repr(float(obs.frequency_ghz)),
                    obs.target_name,
                    obs.co_app_name or "",
                    repr(float(obs.base_ex_time_s)),
                    int(obs.num_co_app),
                    repr(float(obs.co_app_mem)),
                    repr(float(obs.target_mem)),
                    repr(float(obs.co_app_cm_ca)),
                    repr(float(obs.co_app_ca_ins)),
                    repr(float(obs.target_cm_ca)),
                    repr(float(obs.target_ca_ins)),
                    repr(float(obs.actual_time_s)),
                ]
            )

    @classmethod
    def from_csv(cls, path: str | Path) -> "ObservationDataset":
        """Read a dataset previously written by :meth:`to_csv`."""
        with open(path, newline="") as fh:
            return cls._read_csv(fh)

    @classmethod
    def from_csv_string(cls, content: str) -> "ObservationDataset":
        """Parse CSV content produced by :meth:`to_csv_string`."""
        return cls._read_csv(io.StringIO(content))

    @classmethod
    def _read_csv(cls, fh) -> "ObservationDataset":
        reader = csv.DictReader(fh)
        observations = []
        processor = None
        try:
            if reader.fieldnames != _CSV_COLUMNS:
                raise ValueError(
                    f"unexpected CSV columns {reader.fieldnames}; "
                    f"expected {_CSV_COLUMNS}"
                )
            for row in reader:
                if any(row.get(col) is None for col in _CSV_COLUMNS):
                    raise ValueError(f"short CSV row: {row}")
                obs = CoLocationObservation(
                    processor_name=row["processor_name"],
                    frequency_ghz=float(row["frequency_ghz"]),
                    target_name=row["target_name"],
                    co_app_name=row["co_app_name"] or None,
                    base_ex_time_s=float(row["base_ex_time_s"]),
                    num_co_app=int(row["num_co_app"]),
                    co_app_mem=float(row["co_app_mem"]),
                    target_mem=float(row["target_mem"]),
                    co_app_cm_ca=float(row["co_app_cm_ca"]),
                    co_app_ca_ins=float(row["co_app_ca_ins"]),
                    target_cm_ca=float(row["target_cm_ca"]),
                    target_ca_ins=float(row["target_ca_ins"]),
                    actual_time_s=float(row["actual_time_s"]),
                )
                processor = processor or obs.processor_name
                observations.append(obs)
        except csv.Error as exc:
            # Normalize the csv module's own failures (e.g. stray carriage
            # returns in unquoted fields) into the documented error type.
            raise ValueError(f"malformed CSV: {exc}") from None
        if processor is None:
            raise ValueError("CSV contains no observations")
        return cls(processor_name=processor, observations=observations)
