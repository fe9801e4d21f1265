"""Exact-integer workbench for online balanced repartitioning.

n = l*k communicating nodes live in l clusters of capacity k. Requests
between co-located nodes are free; serving a request across clusters
costs 1, and so does every node migration. The engine keeps each
connected component of the request graph inside one cluster, remapping
on demand so that as few clusters as possible change content, and
resets to singleton components when no placement can host the merged
component family. Everything is computed in exact integer arithmetic.
"""

from .configs import (
    ConfigMatrix,
    brute_force_min_target,
    config_matrix,
    enumerate_configurations,
    pseudo_configurations,
    solve_any_target,
)
from .engine import (
    ALGORITHMS,
    Engine,
    StepOutcome,
    StepTag,
    feasibility_exists,
    replay_remaps,
)
from .errors import (
    InputError,
    InvariantViolation,
    RepartError,
    ResourceLimitError,
    VerificationError,
)
from .graver import compute_graver, graver_basis_for
from .model import ComponentPartition, Instance, Mapping, Request
from .optimum import opt_cost, opt_per_phase_lower_bound
from .report import ExperimentOptions, Report, run_experiment
from .verify import verify_suite
from .workloads import Workload, generate_workload, load_workload, save_workload

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ComponentPartition",
    "ConfigMatrix",
    "Engine",
    "ExperimentOptions",
    "InputError",
    "Instance",
    "InvariantViolation",
    "Mapping",
    "RepartError",
    "Report",
    "Request",
    "ResourceLimitError",
    "StepOutcome",
    "StepTag",
    "VerificationError",
    "Workload",
    "brute_force_min_target",
    "compute_graver",
    "config_matrix",
    "enumerate_configurations",
    "feasibility_exists",
    "generate_workload",
    "graver_basis_for",
    "load_workload",
    "opt_cost",
    "opt_per_phase_lower_bound",
    "pseudo_configurations",
    "replay_remaps",
    "run_experiment",
    "save_workload",
    "solve_any_target",
    "verify_suite",
]
