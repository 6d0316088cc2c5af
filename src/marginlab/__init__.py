"""Margin landscapes of random sign constraints.

Tools for studying sign vectors subject to two-sided (or one-sided) margin
constraints under random disorder: first-moment free-energy scans, gaussian
box probabilities, exact overlap-band tuple counts, iterated-majority and
online solvers, and the randomized stability and universality experiments
built on top of them.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .disorder import (
    DisorderMatrix,
    dump_matrix,
    interpolate,
    load_matrix,
    resample_columns,
    sample_disorder,
    sample_rotation,
    uniform_tau_grid,
)
from .errors import (
    CapExceededError,
    DomainError,
    MarginlabError,
    SizingError,
    UsageError,
)
from .landscape import (
    SignVector,
    count_overlap_tuples_bruteforce,
    count_overlap_tuples_exact,
    discrepancy,
    enumerate_forbidden_tuples,
    enumerate_solutions,
    hamming,
    is_solution,
    overlap,
    overlap_band,
)
from .mvn import (
    ProbResult,
    box_probabilities_equicorrelated,
    box_probability_equicorrelated,
    box_probability_upper_bound,
    conditional_mean,
    quadrant_probability,
    std_normal_cdf,
)
from .solvers import (
    KimRocheSchedule,
    exhaustive_solve,
    kim_roche_schedule,
    kim_roche_solve,
    majority_solve,
    online_solve,
    running_max_abs_margin,
)
from .thresholds import (
    alpha_c,
    alpha_ogp,
    binary_entropy,
    chaos_exponent,
    critical_kappa,
    f1,
    f2,
    f3,
    find_negative_psi,
    necessity_scan,
    necessity_terms,
    negativity_onset,
    phi_count,
    psi_free_energy,
    psi_upper_bound,
    scan_negativity,
    upsilon,
)
from .experiments import (
    kim_roche_stability_trial,
    majority_stability_curve,
    majority_stability_trial,
    online_failure_census,
    online_two_stage_trial,
    overlap_trajectory,
    stable_replica_parameters,
    universality_gap,
    wilson_interval,
)

__all__ = [
    "__version__",
    # errors
    "MarginlabError", "DomainError", "SizingError", "CapExceededError", "UsageError",
    # disorder
    "DisorderMatrix", "sample_disorder", "interpolate", "resample_columns",
    "sample_rotation", "uniform_tau_grid", "dump_matrix", "load_matrix",
    # mvn
    "ProbResult", "std_normal_cdf", "quadrant_probability",
    "conditional_mean", "box_probabilities_equicorrelated", "box_probability_equicorrelated",
    "box_probability_upper_bound",
    # landscape
    "SignVector", "hamming", "overlap", "is_solution",
    "enumerate_solutions", "discrepancy", "overlap_band",
    "enumerate_forbidden_tuples", "count_overlap_tuples_exact",
    "count_overlap_tuples_bruteforce",
    # thresholds
    "binary_entropy", "alpha_c", "alpha_ogp", "critical_kappa", "f1", "f2", "f3",
    "scan_negativity", "negativity_onset", "phi_count", "upsilon",
    "psi_free_energy", "psi_upper_bound", "find_negative_psi", "chaos_exponent",
    "necessity_terms", "necessity_scan",
    # solvers
    "KimRocheSchedule", "kim_roche_schedule", "majority_solve", "kim_roche_solve",
    "online_solve", "running_max_abs_margin", "exhaustive_solve",
    # experiments
    "majority_stability_curve", "majority_stability_trial", "kim_roche_stability_trial",
    "overlap_trajectory",
    "online_failure_census", "online_two_stage_trial", "universality_gap",
    "stable_replica_parameters", "wilson_interval",
]
