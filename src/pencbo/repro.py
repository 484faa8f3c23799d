"""Built-in experiment definitions for the published figure set.

Each entry reproduces the data behind one figure: single traces for the
1D and mean-field illustrations, success-rate sweeps for the d=5 and QP
studies.  ``FIGURE_PARAMETERS`` is the authoritative parameter table; the
README repeats it in markdown and a unit test keeps the two in sync.

Sweeps default to 100 repetitions per point (the published plots average
500) and the mean-field runs default to 1e5 particles (published: 1e6);
both are overridable and noted in the emitted summary.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Optional

import numpy as np

from .dynamics import DiffusionKind
from .harness import RunConfig, config_from_spec, run, success_rate
from .penalty import ControllerMode, FeasibilityCheck
from .problems import make_rastrigin2d, make_test1, PROBLEMS
from .qp import make_random_qp

__all__ = ["FIGURE_PARAMETERS", "FIGURES", "reproduce"]

# One row per figure (or panel where parameters differ).  "sweep" marks the
# swept axis; the README table mirrors these values column for column.
FIGURE_PARAMETERS: dict[str, dict[str, object]] = {
    "fig1": dict(problem="test1", n_particles=10, n_iterations=150, lam=1.0,
                 sigma=10.0, dt=0.01, beta0=0.1, theta0=1.0, eta_beta=1.1,
                 eta_theta=1.1, check="gibbs"),
    "fig2": dict(problem="test1", n_particles=10, n_iterations=300, lam=1.0,
                 sigma=10.0, dt=0.01, beta0=0.1, theta0=1.0, eta_beta=1.1,
                 eta_theta=1.1, check="gibbs"),
    "fig4a": dict(problem="rastrigin2d", n_particles=100_000, n_iterations=500,
                  lam=1.0, sigma=0.5, dt=0.01, beta0=0.1, theta0=16.0,
                  eta_beta=1.01, eta_theta=1.01, check="plain_mean"),
    "fig4b": dict(problem="rastrigin2d", n_particles=100_000, n_iterations=500,
                  lam=1.0, sigma=0.5, dt=0.01, beta0=0.1, theta0=0.25,
                  eta_beta=1.01, eta_theta=1.01, check="plain_mean"),
    "fig4c": dict(problem="rastrigin2d", n_particles=100_000, n_iterations=500,
                  lam=1.0, sigma=0.5, dt=0.01, beta0=0.1, theta0=16.0,
                  eta_beta=1.01, eta_theta=1.1, check="plain_mean"),
    "fig4d": dict(problem="rastrigin2d", n_particles=100_000, n_iterations=500,
                  lam=1.0, sigma=0.5, dt=0.01, beta0=0.1, theta0=16.0,
                  eta_beta=1.01, eta_theta=1.01, check="gibbs"),
    "fig5": dict(problem="j1-sphere,j2-sphere", n_particles=200, n_iterations=300,
                 lam=1.0, sigma=0.6, dt=0.1, beta0="sweep", theta0=4.0,
                 eta_beta=1.1, eta_theta=1.1, check="all"),
    "fig6": dict(problem="j1-torus,j2-torus", n_particles=200, n_iterations=300,
                 lam=1.0, sigma=0.6, dt=0.1, beta0="sweep", theta0=4.0,
                 eta_beta=1.1, eta_theta=1.1, check="all"),
    "fig7": dict(problem="qp d=10,15,20", n_particles=500, n_iterations=300,
                 lam=1.0, sigma="sweep", dt=0.1, beta0=0.01, theta0=4.0,
                 eta_beta=1.05, eta_theta=1.05, check="gibbs"),
    "fig8": dict(problem="qp d=10,15,20", n_particles=500, n_iterations=300,
                 lam=1.0, sigma="sweep", dt=0.1, beta0=0.01, theta0=4.0,
                 eta_beta=1.05, eta_theta=1.05, check="gibbs"),
}

FIGURES = ("fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8")

BETA0_GRID = tuple(float(b) for b in np.geomspace(1e-5, 1e3, 9))
SIGMA_GRID = tuple(float(s) for s in np.geomspace(0.1, 3.0, 12))
QP_DIMENSIONS = (10, 15, 20)
QP_INSTANCE_SEED = 0


def _config(row: dict, seed: int, n_particles: Optional[int], **overrides) -> RunConfig:
    """The run config of one figure row; ``overrides`` fill its swept axes."""
    return config_from_spec({**row, "seed": seed,
                             "n_particles": n_particles or row["n_particles"],
                             **overrides})


def _write_summary(out_dir: str, figure: str, summary: dict) -> str:
    path = os.path.join(out_dir, f"{figure}_summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
    return path


def _trace_figures(figure: str, out_dir: str, seed: int,
                   n_particles: Optional[int]) -> list[str]:
    paths = []
    if figure in ("fig1", "fig2"):
        row = FIGURE_PARAMETERS[figure]
        problem = make_test1()
        config = replace(_config(row, seed, n_particles),
                         record_particles=(figure == "fig1"))
        trace = run(problem, config)
        trace_path = os.path.join(out_dir, f"{figure}_trace.csv")
        trace.to_csv(trace_path)
        paths.append(trace_path)
        if figure == "fig1" and trace.particles is not None:
            part_path = os.path.join(out_dir, "fig1_particles.csv")
            with open(part_path, "w") as fh:
                fh.write("k,t,particle,x0\n")
                for k, snap in enumerate(trace.particles):
                    t = k * config.params.dt
                    for i, x in enumerate(snap[:, 0]):
                        fh.write(f"{k},{t!r},{i},{float(x)!r}\n")
            paths.append(part_path)
        summary = dict(figure=figure, config=row, seed=seed,
                       n_particles=config.n_particles,
                       final_consensus=trace.final_consensus.tolist(),
                       final_beta=trace.final_beta, aborted=trace.aborted,
                       duration_s=trace.duration_s)
        paths.append(_write_summary(out_dir, figure, summary))
        return paths

    # fig4: the four mean-field panels
    problem = make_rastrigin2d()
    panel_stats = {}
    for panel in ("fig4a", "fig4b", "fig4c", "fig4d"):
        row = FIGURE_PARAMETERS[panel]
        config = _config(row, seed, n_particles)
        trace = run(problem, config)
        trace_path = os.path.join(out_dir, f"{panel}_trace.csv")
        trace.to_csv(trace_path)
        paths.append(trace_path)
        panel_stats[panel] = dict(
            final_consensus=trace.final_consensus.tolist(),
            final_beta=trace.final_beta, aborted=trace.aborted,
            duration_s=trace.duration_s,
        )
    summary = dict(
        figure="fig4", seed=seed,
        n_particles=n_particles or int(FIGURE_PARAMETERS["fig4a"]["n_particles"]),
        note="published panels use 1e6 particles; default here is 1e5 (override with n_particles)",
        panels=panel_stats,
    )
    paths.append(_write_summary(out_dir, "fig4", summary))
    return paths


def _beta0_sweep(figure: str, out_dir: str, seed: int, n_runs: int,
                 n_particles: Optional[int]) -> list[str]:
    surfaces = FIGURE_PARAMETERS[figure]["problem"].split(",")
    row = FIGURE_PARAMETERS[figure]
    variants = (
        ("plain", FeasibilityCheck.PLAIN_MEAN, ControllerMode.INCREASE_ONLY),
        ("gibbs", FeasibilityCheck.GIBBS, ControllerMode.INCREASE_ONLY),
        ("gibbs_decreasing", FeasibilityCheck.GIBBS,
         ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION),
    )
    table_path = os.path.join(out_dir, f"{figure}_success.csv")
    results = []
    with open(table_path, "w") as fh:
        fh.write("problem,variant,beta0,success_rate,final_beta_median,n_aborted\n")
        for name in surfaces:
            problem = PROBLEMS[name]()
            for label, check, mode in variants:
                for beta0 in BETA0_GRID:
                    config = _config(row, seed, n_particles,
                                     beta0=beta0, check=check, mode=mode)
                    stats = success_rate(problem, config, n_runs, tol_inf=0.1)
                    med = float(np.median([o.final_beta for o in stats.outcomes]))
                    fh.write(f"{name},{label},{beta0!r},{stats.rate!r},{med!r},{stats.n_aborted}\n")
                    results.append(dict(problem=name, variant=label, beta0=beta0,
                                        rate=stats.rate, n_aborted=stats.n_aborted))
    summary = dict(figure=figure, seed=seed, n_runs=n_runs,
                   note="published sweeps average 500 runs; default here is 100",
                   config=row, results=results)
    return [table_path, _write_summary(out_dir, figure, summary)]


def _sigma_sweep(figure: str, out_dir: str, seed: int, n_runs: int,
                 n_particles: Optional[int]) -> list[str]:
    row = FIGURE_PARAMETERS[figure]
    kind = DiffusionKind.ISOTROPIC if figure == "fig7" else DiffusionKind.ANISOTROPIC
    table_path = os.path.join(out_dir, f"{figure}_success.csv")
    results = []
    with open(table_path, "w") as fh:
        fh.write("d,sigma,success_rate,n_aborted\n")
        for d in QP_DIMENSIONS:
            problem, _ = make_random_qp(d, QP_INSTANCE_SEED)
            for sigma in SIGMA_GRID:
                config = _config(row, seed, n_particles, sigma=sigma, diffusion=kind)
                stats = success_rate(problem, config, n_runs, tol_inf=0.25)
                fh.write(f"{d},{sigma!r},{stats.rate!r},{stats.n_aborted}\n")
                results.append(dict(d=d, sigma=sigma, rate=stats.rate,
                                    n_aborted=stats.n_aborted))
    summary = dict(figure=figure, seed=seed, n_runs=n_runs,
                   diffusion=kind.value, qp_instance_seed=QP_INSTANCE_SEED,
                   note="published sweeps average 500 runs; default here is 100",
                   config=row, results=results)
    return [table_path, _write_summary(out_dir, figure, summary)]


def reproduce(figure: str, out_dir: str, seed: int = 0,
              n_particles: Optional[int] = None, n_runs: Optional[int] = None) -> list[str]:
    """Write the plot-ready data files for one figure; returns the paths."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    os.makedirs(out_dir, exist_ok=True)
    if figure in ("fig1", "fig2", "fig4"):
        return _trace_figures(figure, out_dir, seed, n_particles)
    if figure in ("fig5", "fig6"):
        return _beta0_sweep(figure, out_dir, seed, n_runs or 100, n_particles)
    return _sigma_sweep(figure, out_dir, seed, n_runs or 100, n_particles)
