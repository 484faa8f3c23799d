"""Consensus-based particle optimization with adaptive exact penalties.

Particles minimize a penalized objective j(x) + beta * r(x) by drifting
toward a Gibbs-weighted consensus point; beta and the feasibility
tolerance are adapted online from the ensemble's constraint violation.
"""

from .dynamics import (
    CboParams,
    DiffusionKind,
    ParticleEnsemble,
    consensus_raw,
    euler_maruyama_step,
    variance_functional,
)
from .harness import (
    BatchSpec,
    RunConfig,
    RunOutcome,
    RunTrace,
    SuccessStats,
    batched_consensus,
    config_from_spec,
    run,
    success_check,
    success_rate,
)
from .penalty import (
    ControllerMode,
    FeasibilityCheck,
    PenaltyController,
    controller_step,
    ensemble_violation,
    penalty_value,
    violation_gibbs,
    violation_plain_mean,
)
from .problems import (
    InitSpec,
    PROBLEMS,
    Problem,
    make_j1,
    make_j1_sphere,
    make_j1_torus,
    make_j2,
    make_j2_sphere,
    make_j2_torus,
    make_rastrigin2d,
    make_test1,
    rastrigin2d_constraint,
    sphere_penalty,
    torus_penalty,
)
from .qp import QpInstance, make_random_qp
from .rng import initial_positions, noise_normals

__version__ = "0.1.0"

__all__ = [
    "CboParams",
    "DiffusionKind",
    "ParticleEnsemble",
    "consensus_raw",
    "euler_maruyama_step",
    "variance_functional",
    "BatchSpec",
    "RunConfig",
    "RunOutcome",
    "RunTrace",
    "SuccessStats",
    "batched_consensus",
    "config_from_spec",
    "run",
    "success_check",
    "success_rate",
    "ControllerMode",
    "FeasibilityCheck",
    "PenaltyController",
    "controller_step",
    "ensemble_violation",
    "penalty_value",
    "violation_gibbs",
    "violation_plain_mean",
    "InitSpec",
    "PROBLEMS",
    "Problem",
    "make_j1",
    "make_j1_sphere",
    "make_j1_torus",
    "make_j2",
    "make_j2_sphere",
    "make_j2_torus",
    "make_rastrigin2d",
    "make_test1",
    "rastrigin2d_constraint",
    "sphere_penalty",
    "torus_penalty",
    "QpInstance",
    "make_random_qp",
    "initial_positions",
    "noise_normals",
    "__version__",
]
