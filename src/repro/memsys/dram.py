"""DRAM bandwidth/latency contention model.

The second contention mechanism of the reproduction (after shared-cache
capacity): LLC misses from all co-located applications share a finite DRAM
interface.  As the aggregate miss bandwidth approaches the peak, memory
requests queue at the controller and the *effective* miss latency grows.

We use the standard open-queueing approximation

    latency(rho) = idle_latency * (1 + shape * rho / (1 - rho))

with utilization ``rho`` clamped below 1.  The ``shape`` parameter absorbs
bank-level parallelism, row-buffer locality, and scheduling quality; it is a
per-machine calibration constant (:class:`repro.machine.DRAMConfig`).  The
latency curve is convex in load — the nonlinearity that, together with
cache-capacity competition, defeats the paper's linear models while the
neural networks keep up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.processor import DRAMConfig

__all__ = ["DRAMModel", "MAX_UTILIZATION"]

#: Utilization ceiling: queueing models diverge at rho = 1, while a real
#: memory controller saturates and throttles requestors instead.  Demand
#: beyond the ceiling is treated as operating at the ceiling (the throttling
#: itself shows up as longer latency, hence longer execution time).
MAX_UTILIZATION = 0.96


@dataclass(frozen=True)
class DRAMModel:
    """Latency-versus-load model for one machine's DRAM interface."""

    config: DRAMConfig

    def utilization(self, demand_bytes_per_s: np.ndarray | float) -> np.ndarray | float:
        """Fraction of peak bandwidth consumed, clamped to the ceiling.

        A scalar demand is computed on Python floats and returns a float,
        bit-identical to the same entry of an array demand.
        """
        peak = self.config.peak_bandwidth_gbs * 1e9
        if isinstance(demand_bytes_per_s, (int, float)):
            d = float(demand_bytes_per_s)
            if d < 0.0:
                raise ValueError("bandwidth demand must be non-negative")
            return min(d / peak, MAX_UTILIZATION)
        d = np.asarray(demand_bytes_per_s, dtype=float)
        if np.any(d < 0.0):
            raise ValueError("bandwidth demand must be non-negative")
        out = np.minimum(d / peak, MAX_UTILIZATION)
        return out if out.ndim else float(out)

    def effective_latency_ns(
        self, demand_bytes_per_s: np.ndarray | float
    ) -> np.ndarray | float:
        """Loaded miss latency given aggregate bandwidth demand.

        Monotonically non-decreasing and convex in demand; equals the idle
        latency at zero load.  Like :meth:`utilization`, a scalar demand
        stays on Python floats (the serial steady-state solver calls this
        once per iteration) and an array is evaluated elementwise.
        """
        rho = self.utilization(demand_bytes_per_s)
        return self.config.idle_latency_ns * (
            1.0 + self.config.queue_shape * rho / (1.0 - rho)
        )
