"""Reference computations the benchmark checks pencbo's outputs against.

Nothing here calls pencbo: every reference is a closed form, a property
the method must have, or an independent solver, so a check can only pass
when the program agrees with a computation made apart from it.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# The penalty controller, restated from the paper's rule.


def replay_controller(beta, theta, tolerance, violation, passed,
                      beta0: float, theta0: float, eta_beta: float,
                      eta_theta: float) -> None:
    """Replay the increase-only controller over a trace's violation column.

    Row k must hold the state that steered iteration k: tolerance
    1/sqrt(theta), a check passed iff violation <= tolerance, then either
    theta <- eta_theta * theta, or beta <- eta_beta * beta and
    theta <- max(theta / eta_theta, theta0).  Equality is exact.
    """
    b, th = beta0, theta0
    for k in range(len(violation)):
        tol = 1.0 / math.sqrt(th)
        row = (float(beta[k]), float(theta[k]), float(tolerance[k]))
        require(row == (b, th, tol),
                f"controller row {k}: trace (beta, theta, tol) {row} != replay {(b, th, tol)}")
        ok = float(violation[k]) <= tol
        require(bool(passed[k]) == ok, f"controller row {k}: passed flag {bool(passed[k])} != {ok}")
        if ok:
            th = th * eta_theta
        else:
            b = b * eta_beta
            th = max(th / eta_theta, theta0)


# ---------------------------------------------------------------------------
# Closed forms of the built-in problems.


def quartic(u):
    return u**4 / 5.0 - 2.0 * u**2 + u


def test1_threshold() -> float:
    """|j'(-1.5)| for j(x) = x^4/5 - 2x^2 + x + 10: the exactness threshold."""
    x = -1.5
    return abs(4.0 * x**3 / 5.0 - 4.0 * x + 1.0)


def rastrigin2d_objective(x):
    return 0.5 * np.sum(quartic(x), axis=1) + 10.0


def rastrigin2d_g(x):
    """g(x) = (1/2) sum(z^2 - 10 cos(2 pi z)) + 5, z = R(pi/6) (x - (1, 1))."""
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    u = np.asarray(x, dtype=np.float64) - 1.0
    z = np.stack([c * u[:, 0] - s * u[:, 1], s * u[:, 0] + c * u[:, 1]], axis=1)
    return 0.5 * np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z), axis=1) + 5.0


def rastrigin2d_lattice_points():
    """Feasible points of g <= 0: the rotated lattice points z = (m, n)
    with m^2 + n^2 <= 10, where g = (m^2 + n^2)/2 - 5."""
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    z = np.array([(m, n) for m in range(-3, 4) for n in range(-3, 4) if m * m + n * n <= 10],
                 dtype=np.float64)
    return np.stack([c * z[:, 0] + s * z[:, 1], -s * z[:, 0] + c * z[:, 1]], axis=1) + 1.0


# |grad g| <= sqrt(2) * (6 + 10 pi) < 53 wherever |z_i| <= 6, which holds for
# points drawn from [-3, 3]^2 and for the feasible set; so g(x) > G_FAR puts x
# at least G_FAR / 53 = 0.019 from {g <= 0}, beyond the 3*sqrt(2)*0.004 = 0.017
# by which the penalty's grid may underestimate the distance.
G_FAR = 1.0


def check_rastrigin2d(points, objective, penalty, x_star) -> None:
    """Objective equals the closed-form quartic; the penalty is 0 on
    {g <= 0}, positive where g > G_FAR, and never above the distance to a
    known feasible point (x* or a lattice point)."""
    j = rastrigin2d_objective(points)
    require(np.allclose(objective, j, rtol=1e-12, atol=1e-12),
            f"rastrigin2d objective off the closed form by {np.max(np.abs(objective - j)):.3g}")
    g = rastrigin2d_g(points)
    require(rastrigin2d_g(x_star[None, :])[0] <= 0.0, "rastrigin2d x* is not feasible")
    feasible = g <= 0.0
    require(np.all(penalty[feasible] == 0.0), "rastrigin2d penalty nonzero on a feasible point")
    require(np.all(penalty >= 0.0), "rastrigin2d penalty negative")
    require(np.all(penalty[g > G_FAR] > 0.0),
            f"rastrigin2d penalty 0 at a point with g > {G_FAR}")
    anchors = np.vstack([rastrigin2d_lattice_points(), x_star[None, :]])
    bound = np.min(np.linalg.norm(points[:, None, :] - anchors[None, :, :], axis=2), axis=1)
    require(np.all(penalty <= bound + 1e-12),
            "rastrigin2d penalty exceeds the distance to a feasible point")


def j1_objective(x):
    return np.sum(quartic(x), axis=1) / x.shape[1] + 10.0


def sphere_distance(x):
    return np.abs(np.sqrt(np.sum(x * x, axis=1)) - 1.0)


def j1_sphere_solution(d: int = 5):
    """The minimizer of the symmetric double well on the unit sphere."""
    return np.full(d, -1.0 / math.sqrt(d))


def j2_objective(x):
    y = x - np.array([53 / 30, 23 / 15, 4 / 3, 16 / 15, 5 / 6])
    rms = np.sqrt(np.mean(y * y, axis=1))
    return -20.0 * np.exp(-0.2 * rms) - np.exp(np.mean(np.cos(2.0 * np.pi * y), axis=1)) + 20.0 + math.e


def torus_distance(x):
    """Distance to the torus of tube radius 1/2 around the unit circle in
    the leading d-1 coordinates."""
    rho = np.sqrt(np.sum(x[:, :-1] ** 2, axis=1))
    return np.abs(np.hypot(rho - 1.0, x[:, -1]) - 0.5)


def test1_objective(x):
    return quartic(x[:, 0]) + 10.0


def test1_penalty(x):
    return np.maximum(0.0, -x[:, 0] - 1.5)


def qp_objective(inst, x):
    return 0.5 * np.sum((x @ inst.A) * x, axis=1) - x @ inst.b


def qp_penalty(inst, x):
    return np.sum(np.abs(x @ inst.H + inst.h0), axis=1) + np.sum(np.maximum(0.0, -x), axis=1)


def check_close(name: str, got, want, rtol: float = 1e-10) -> None:
    got = np.asarray(got, dtype=np.float64)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    require(np.allclose(got, want, rtol=rtol, atol=rtol),
            f"{name}: off the reference by {np.max(np.abs(got - want)):.3g}")


def solve_qp(inst):
    """min 1/2 x'Ax - b'x  s.t.  H'x + h0 = 0, x >= 0, by scipy's SLSQP."""
    from scipy.optimize import minimize

    A, b, H, h0 = (np.array(a) for a in (inst.A, inst.b, inst.H, inst.h0))
    res = minimize(
        lambda x: 0.5 * x @ A @ x - b @ x,
        np.ones(len(b)),
        jac=lambda x: A @ x - b,
        method="SLSQP",
        bounds=[(0.0, None)] * len(b),
        constraints=[{"type": "eq", "fun": lambda x: H.T @ x + h0, "jac": lambda x: H.T}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    require(res.success, f"scipy could not solve the QP: {res.message}")
    return res.x


# ---------------------------------------------------------------------------
# Success rates.


def rate_not_below(successes: int, runs: int, threshold: float, alpha: float = 0.01) -> bool:
    """One-sided binomial test of 'success rate >= threshold'.

    False only when the observed count is so low that a true rate of
    ``threshold`` would give it (or fewer) with probability below alpha.
    """
    from scipy.stats import binom

    return bool(binom.cdf(successes, runs, threshold) >= alpha)


def trace_csv_header(d: int) -> str:
    """The trace CSV header as the README documents it."""
    return ("k,t,beta,theta,violation,tolerance,passed,"
            + ",".join(f"consensus_{i}" for i in range(d)) + ",V")
