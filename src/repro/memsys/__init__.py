"""Memory system substrate: the DRAM contention model.

The steady-state engine (:mod:`repro.sim.engine`) composes it with the
shared-LLC split (:mod:`repro.cache.sharing`) and owns the stall formula
that turns miss ratios and loaded latency into time per instruction.
"""

from .dram import MAX_UTILIZATION, DRAMModel

__all__ = ["DRAMModel", "MAX_UTILIZATION"]
