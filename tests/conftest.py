from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import pencbo as pc

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_quadratic_bowl(d: int = 3, center=None) -> pc.Problem:
    """Unconstrained convex quadratic; r is identically zero."""
    if center is None:
        center = np.linspace(-0.5, 0.5, d)
    center = np.asarray(center, dtype=np.float64)

    def objective(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return 0.5 * ((x - center) ** 2).sum(axis=1)

    def penalty(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.zeros(x.shape[0])

    return pc.Problem(
        name=f"quadratic-bowl-{d}d",
        dim=d,
        objective=objective,
        penalty=penalty,
        init=pc.InitSpec.uniform(-3.0, 3.0),
        known_solution=center,
    )


def score_separately(problem: pc.Problem, config: pc.RunConfig, n_runs: int,
                     tol_inf: float) -> tuple:
    """The outcomes success_rate must report, scored from each seed's own run."""
    x_star = problem.known_solution
    outcomes = []
    for seed in range(config.seed, config.seed + n_runs):
        trace = pc.run(problem, replace(config, seed=seed))
        final = trace.final_consensus
        dist = float(np.max(np.abs(final - x_star))) if np.all(np.isfinite(final)) else np.inf
        outcomes.append(pc.RunOutcome(
            seed=seed, success=not trace.aborted and dist <= tol_inf,
            aborted=trace.aborted, distance_inf=dist, final_beta=trace.final_beta))
    return tuple(outcomes)


@pytest.fixture
def quadratic_bowl():
    return make_quadratic_bowl()


@pytest.fixture
def small_run_config():
    """Cheap but non-trivial run for harness plumbing tests."""
    return pc.RunConfig(
        params=pc.CboParams(lam=1.0, sigma=1.0, dt=0.05, alpha=1e6),
        controller=pc.PenaltyController.fresh(beta0=0.5, theta0=4.0),
        n_particles=16,
        n_iterations=25,
        seed=7,
    )
