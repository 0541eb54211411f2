"""Interference-aware scheduling built on the trained predictors."""

from .cluster import (
    ClusterSimulator,
    ClusterState,
    ClusterTrace,
    JobRecord,
    JobRequest,
    first_fit_policy,
    least_loaded_policy,
    model_driven_policy,
    run_colocated,
)
from .fleet import FleetState, MachineConfig, RunningJob, RunningSet
from .governor import GovernorObjective, PStateChoice, select_pstate
from .queue import Job, JobQueue, JobStatus, job_stream
from .service import (
    LocalScorer,
    RemoteScorer,
    SchedulerClient,
    SchedulerService,
    SchedulerThread,
)

__all__ = [
    "ClusterSimulator",
    "ClusterState",
    "ClusterTrace",
    "FleetState",
    "GovernorObjective",
    "Job",
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "JobStatus",
    "LocalScorer",
    "MachineConfig",
    "PStateChoice",
    "RemoteScorer",
    "RunningJob",
    "RunningSet",
    "SchedulerClient",
    "SchedulerService",
    "SchedulerThread",
    "first_fit_policy",
    "job_stream",
    "least_loaded_policy",
    "model_driven_policy",
    "run_colocated",
    "select_pstate",
]
