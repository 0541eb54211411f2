"""Execution simulation: analytic steady-state engine + trace-driven check."""

from .engine import (
    AppRun,
    BatchConvergenceError,
    BatchFailure,
    ColocationRun,
    ConvergenceError,
    SimulationEngine,
    SolveRequest,
    SteadyState,
)
from .solve_cache import (
    GLOBAL_ENGINE_STATS,
    EngineStats,
    SolveCache,
    app_signature,
    solve_key,
)
from .tracesim import TraceCompetitor, TraceSharingResult, simulate_trace_sharing

__all__ = [
    "AppRun",
    "BatchConvergenceError",
    "BatchFailure",
    "ColocationRun",
    "ConvergenceError",
    "EngineStats",
    "GLOBAL_ENGINE_STATS",
    "SimulationEngine",
    "SolveCache",
    "SolveRequest",
    "SteadyState",
    "TraceCompetitor",
    "TraceSharingResult",
    "app_signature",
    "simulate_trace_sharing",
    "solve_key",
]
