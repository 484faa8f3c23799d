"""Statistical acceptance gate: one test and one printed verdict per criterion.

Each test freezes the experiment parameters it scores (the README table
documents them) and asserts the published behavior at its stated threshold.
Run with -s to see the verdict lines; total runtime is a few minutes, most
of it in the two mean-field criteria.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import pencbo as pc
from pencbo.dynamics import DiffusionKind
from pencbo.repro import SIGMA_GRID
from conftest import score_separately
from test_qp import solve_by_active_set_enumeration

THREADS = 4
BETA_BAR_1D = 4.3


def report(capsys, name: str, ok: bool, detail: str) -> None:
    # bypass output capture so the verdict line lands in the pytest log
    with capsys.disabled():
        print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def test1_traces():
    # shared by criteria 1 and 2: 100 seeded runs at the single-run figure
    # parameters, with the ensemble enlarged to 50 particles
    problem = pc.make_test1()
    base = pc.RunConfig(
        params=pc.CboParams(lam=1.0, sigma=10.0, dt=0.01, alpha=1e6),
        controller=pc.PenaltyController.fresh(beta0=0.1, theta0=1.0,
                                              eta_beta=1.1, eta_theta=1.1),
        n_particles=50,
        n_iterations=300,
        seed=0,
        check=pc.FeasibilityCheck.GIBBS,
    )
    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        traces = list(pool.map(
            lambda s: pc.run(problem, replace(base, seed=s)), range(100)))
    return traces, time.monotonic() - start


def _criterion1_hit(trace) -> bool:
    return (abs(float(trace.final_consensus[0]) + 1.5) <= 0.1
            and trace.final_beta >= BETA_BAR_1D)


def test_criterion_1_convergence_with_adapted_beta(test1_traces, capsys):
    traces, elapsed = test1_traces
    rate = np.mean([_criterion1_hit(tr) for tr in traces])
    report(capsys, "criterion 1 (1D convergence, beta reaches its exactness threshold)",
           rate >= 0.8 and elapsed < 10.0,
           f"rate={rate:.2f} need >= 0.80, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_beta_stabilizes_once_exact(test1_traces, capsys):
    traces, _ = test1_traces
    successes = [tr for tr in traces if _criterion1_hit(tr)]
    assert successes, "criterion 2 is scored on criterion-1 successes"
    stable = 0
    for tr in successes:
        beta_seq = np.append(tr.beta, tr.final_beta)
        first = int(np.argmax(beta_seq >= BETA_BAR_1D))
        stable += beta_seq[-1] <= beta_seq[first] * 1.1 * (1 + 1e-12)
    rate = stable / len(successes)
    report(capsys, "criterion 2 (beta grows at most once past the threshold)",
           rate >= 0.8, f"rate={rate:.2f} over {len(successes)} runs, need >= 0.80")


def test_criterion_3_tolerance_selects_the_landscape(capsys):
    # tight tolerance concentrates on the constrained solution, loose
    # tolerance leaves the run on the unconstrained quartic minimizer
    problem = pc.make_rastrigin2d()
    x_star = problem.known_solution
    roots = np.roots([0.8, 0.0, -4.0, 1.0])  # stationary points of the quartic
    x_hat = np.full(2, min(r.real for r in roots if abs(r.imag) < 1e-12))

    def final_dist(seed: int, theta0: float, target: np.ndarray) -> float:
        cfg = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.01, alpha=1e6),
            controller=pc.PenaltyController.fresh(beta0=0.1, theta0=theta0,
                                                  eta_beta=1.01, eta_theta=1.01),
            n_particles=100_000,
            n_iterations=500,
            seed=seed,
            check=pc.FeasibilityCheck.PLAIN_MEAN,
        )
        trace = pc.run(problem, cfg)
        return float(np.max(np.abs(trace.final_consensus - target)))

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        tight = list(pool.map(lambda s: final_dist(s, 16.0, x_star), range(10)))
        loose = list(pool.map(lambda s: final_dist(s, 0.25, x_hat), range(10)))
    hits_tight = sum(d <= 0.2 for d in tight)
    hits_loose = sum(d <= 0.2 for d in loose)
    report(capsys, "criterion 3 (mean-field landscape switch via the tolerance)",
           hits_tight >= 7 and hits_loose >= 7,
           f"tight {hits_tight}/10 near x*, loose {hits_loose}/10 near x_hat, "
           f"need >= 7 each")


def test_criterion_4_sphere_success_profile(capsys):
    problem = pc.PROBLEMS["j1-sphere"]()
    params = pc.CboParams(lam=1.0, sigma=0.6, dt=0.1, alpha=1e6)

    def rate_for(beta0: float, mode: pc.ControllerMode) -> float:
        cfg = pc.RunConfig(
            params=params,
            controller=pc.PenaltyController.fresh(beta0=beta0, theta0=4.0,
                                                  eta_beta=1.1, eta_theta=1.1,
                                                  mode=mode),
            n_particles=200,
            n_iterations=300,
            seed=0,
            check=pc.FeasibilityCheck.GIBBS,
        )
        return pc.success_rate(problem, cfg, 100, tol_inf=0.1).rate

    increasing = {b: rate_for(b, pc.ControllerMode.INCREASE_ONLY)
                  for b in (1e-3, 1e-1, 1.0)}
    decreasing = rate_for(1e3, pc.ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION)
    ok = all(r >= 0.85 for r in increasing.values()) and decreasing >= 0.7
    detail = (", ".join(f"beta0={b:g}: {r:.2f}" for b, r in increasing.items())
              + f" (need >= 0.85); beta0=1e3 decreasing: {decreasing:.2f} (need >= 0.70)")
    report(capsys, "criterion 4 (d=5 sphere success rates across beta0)", ok, detail)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_criterion_5_anisotropic_advantage_on_qp(capsys):
    # 25-run smoke variant of the published 100-run sweep
    problem, _ = pc.make_random_qp(10, 0)
    best = {}
    for kind in (DiffusionKind.ISOTROPIC, DiffusionKind.ANISOTROPIC):
        rates = []
        for sigma in SIGMA_GRID:
            cfg = pc.RunConfig(
                params=pc.CboParams(lam=1.0, sigma=sigma, dt=0.1, alpha=1e6,
                                    diffusion=kind),
                controller=pc.PenaltyController.fresh(beta0=0.01, theta0=4.0,
                                                      eta_beta=1.05, eta_theta=1.05),
                n_particles=500,
                n_iterations=300,
                seed=0,
                check=pc.FeasibilityCheck.GIBBS,
            )
            rates.append(pc.success_rate(problem, cfg, 25, tol_inf=0.25).rate)
        best[kind] = max(rates)
    ok = (best[DiffusionKind.ANISOTROPIC] >= 0.8
          and best[DiffusionKind.ANISOTROPIC] >= best[DiffusionKind.ISOTROPIC] - 0.05)
    report(capsys, "criterion 5 (anisotropic noise reaches higher QP success)",
           ok,
           f"aniso best={best[DiffusionKind.ANISOTROPIC]:.2f} (need >= 0.80), "
           f"iso best={best[DiffusionKind.ISOTROPIC]:.2f}, margin -0.05 allowed")


def test_criterion_6_variance_decay(quadratic_bowl, capsys):
    # 2*lam > d*sigma^2 holds (2 > 0.75), so the ensemble variance must
    # collapse by two orders of magnitude within five time units
    center = quadratic_bowl.known_solution

    def ratio(seed: int) -> float:
        cfg = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.01, alpha=1e6),
            controller=pc.PenaltyController.fresh(beta0=0.1, theta0=4.0),
            n_particles=10_000,
            n_iterations=500,
            seed=seed,
        )
        start = pc.initial_positions(seed, cfg.n_particles, quadratic_bowl.dim,
                                     quadratic_bowl.init)
        v0 = 0.5 * float(np.mean(np.sum((start - center) ** 2, axis=1)))
        trace = pc.run(quadratic_bowl, cfg)
        return float(trace.v[-1]) / v0

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        ratios = list(pool.map(ratio, range(10)))
    med = float(np.median(ratios))
    report(capsys, "criterion 6 (exponential variance decay)",
           med <= 0.05, f"median V(5)/V(0)={med:.4f}, need <= 0.05")


def test_criterion_7_generator_matches_enumeration_oracle(capsys):
    worst = 0.0
    for seed in range(50):
        _, inst = pc.make_random_qp(2, seed)
        x_oracle = solve_by_active_set_enumeration(inst)
        worst = max(worst, float(np.max(np.abs(x_oracle - inst.x_star))))
    report(capsys, "criterion 7 (stored QP solutions match an independent oracle)",
           worst <= 1e-6, f"worst |x_oracle - x*| = {worst:.2e} over 50 seeds, need <= 1e-6")


def test_criterion_8_core_invariants_inline(quadratic_bowl, capsys):
    # representative spot checks; the dedicated suites exercise each in depth
    rng = np.random.default_rng(5)
    positions = rng.normal(size=(40, 3))
    values = rng.uniform(size=40)
    checks = {}

    point = pc.consensus_raw(positions, values, alpha=7.0)
    checks["hull"] = bool(np.all(point >= positions.min(0) - 1e-12)
                          and np.all(point <= positions.max(0) + 1e-12))

    shifted = pc.consensus_raw(positions + 2.5, values, 7.0)
    checks["translation"] = bool(np.allclose(shifted, point + 2.5, rtol=1e-12))

    argmin_pt = pc.consensus_raw(positions, values, alpha=1e6)
    checks["argmin-limit"] = bool(
        np.allclose(argmin_pt, positions[np.argmin(values)], atol=1e-9))

    ctrl = pc.PenaltyController.fresh(beta0=1.0, theta0=4.0)
    passed_ctrl, ok = pc.controller_step(ctrl, violation=0.1)
    failed_ctrl, bad = pc.controller_step(ctrl, violation=9.0)
    checks["controller-table"] = (ok and not bad
                                  and passed_ctrl.theta == 4.0 * 1.1
                                  and passed_ctrl.beta == 1.0
                                  and failed_ctrl.beta == 1.1
                                  and failed_ctrl.theta == 4.0)

    pens = rng.uniform(size=40)
    checks["alpha-zero"] = bool(np.isclose(
        pc.violation_gibbs(pens, values, alpha=0.0), pc.violation_plain_mean(pens)))

    config = pc.RunConfig(
        params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.05, alpha=1e6),
        controller=pc.PenaltyController.fresh(beta0=0.5, theta0=4.0),
        n_particles=16,
        n_iterations=30,
        seed=11,
    )
    trace = pc.run(quadratic_bowl, config)
    replay = config.controller
    consistent = True
    for i in range(trace.n_recorded):
        consistent &= (trace.beta[i] == replay.beta and trace.theta[i] == replay.theta)
        replay, _ = pc.controller_step(replay, trace.violation[i])
    checks["trace-replay"] = bool(consistent and trace.final_beta == replay.beta)

    stats = pc.success_rate(quadratic_bowl, config, 8, tol_inf=2.0)
    checks["separate-runs"] = stats.outcomes == score_separately(quadratic_bowl, config, 8, 2.0)

    failed = sorted(name for name, good in checks.items() if not good)
    report(capsys, "criterion 8 (unit and property invariants)",
           not failed, "all spot checks hold" if not failed else f"failed: {failed}")
