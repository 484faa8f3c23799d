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
from typing import Optional, Sequence

import numpy as np

from .harness import RunConfig, RunTrace, config_from_spec, run, success_rate
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
                 eta_beta=1.05, eta_theta=1.05, check="gibbs", diffusion="isotropic"),
    "fig8": dict(problem="qp d=10,15,20", n_particles=500, n_iterations=300,
                 lam=1.0, sigma="sweep", dt=0.1, beta0=0.01, theta0=4.0,
                 eta_beta=1.05, eta_theta=1.05, check="gibbs", diffusion="anisotropic"),
}

BETA0_GRID = tuple(float(b) for b in np.geomspace(1e-5, 1e3, 9))
SIGMA_GRID = tuple(float(s) for s in np.geomspace(0.1, 3.0, 12))
QP_DIMENSIONS = (10, 15, 20)
QP_INSTANCE_SEED = 0
DEFAULT_N_RUNS = 100  # repetitions per sweep point


def _config(row: dict, seed: int, n_particles: Optional[int], **overrides) -> RunConfig:
    """The run config of one figure row; ``overrides`` fill its swept axes."""
    if n_particles is None:
        n_particles = row["n_particles"]
    return config_from_spec({**row, "seed": seed, "n_particles": n_particles, **overrides})


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
    return path


def _write_trace(trace: RunTrace, path: str) -> dict:
    """Write the trace CSV to ``path``; returns the run's summary fields."""
    trace.to_csv(path)
    return dict(final_consensus=trace.final_consensus.tolist(),
                final_beta=trace.final_beta, iterations_recorded=trace.n_recorded,
                aborted=trace.aborted, abort_reason=trace.abort_reason,
                duration_s=trace.duration_s, trace_csv=path)


def _test1_figure(figure: str, out_dir: str, seed: int, n_particles, n_runs) -> list[str]:
    """fig1/fig2: one test1 trace; fig1 also dumps every particle position."""
    row = FIGURE_PARAMETERS[figure]
    config = replace(_config(row, seed, n_particles), record_particles=(figure == "fig1"))
    trace = run(make_test1(), config)
    stats = _write_trace(trace, os.path.join(out_dir, f"{figure}_trace.csv"))
    paths = [stats["trace_csv"]]
    if config.record_particles:
        part_path = os.path.join(out_dir, "fig1_particles.csv")
        with open(part_path, "w") as fh:
            fh.write("k,t,particle,x0\n")
            for k, snap in enumerate(trace.particles):
                t = k * config.params.dt
                for i, x in enumerate(snap[:, 0]):
                    fh.write(f"{k},{t!r},{i},{float(x)!r}\n")
        paths.append(part_path)
    summary = dict(figure=figure, config=row, seed=seed,
                   n_particles=config.n_particles, **stats)
    return paths + [_write_json(os.path.join(out_dir, f"{figure}_summary.json"), summary)]


def _fig4(figure: str, out_dir: str, seed: int, n_particles, n_runs) -> list[str]:
    """fig4: the four mean-field panels on rastrigin2d."""
    problem = make_rastrigin2d()
    panel_stats = {}
    for panel in ("fig4a", "fig4b", "fig4c", "fig4d"):
        config = _config(FIGURE_PARAMETERS[panel], seed, n_particles)
        panel_stats[panel] = _write_trace(run(problem, config),
                                          os.path.join(out_dir, f"{panel}_trace.csv"))
    note = "published panels use 1e6 particles; default here is 1e5 (override with n_particles)"
    summary = dict(figure=figure, seed=seed, n_particles=config.n_particles, note=note,
                   panels=panel_stats)
    return ([stats["trace_csv"] for stats in panel_stats.values()]
            + [_write_json(os.path.join(out_dir, "fig4_summary.json"), summary)])


def _success_table(path: str, columns: Sequence[str], cells, n_runs: int,
                   tol_inf: float) -> list[dict]:
    """Score each ``(coordinates, problem, config)`` cell with ``success_rate``,
    appending its row to the CSV at ``path`` as soon as it is scored; returns
    one summary entry per cell.  The README gives both layouts."""
    entries = []
    with open(path, "w") as fh:
        fh.write(",".join(columns) + ",success_rate,final_beta_median,n_aborted\n")
        for coords, problem, config in cells:
            stats = success_rate(problem, config, n_runs, tol_inf)
            med = float(np.median([o.final_beta for o in stats.outcomes]))
            fh.write(",".join(map(str, coords)) + f",{stats.rate!r},{med!r},{stats.n_aborted}\n")
            entries.append(dict(zip(columns, coords), success_rate=stats.rate,
                                final_beta_median=med, n_aborted=stats.n_aborted,
                                outcomes=[dict(seed=o.seed, success=o.success, aborted=o.aborted)
                                          for o in stats.outcomes]))
    return entries


def _sweep_figure(figure: str, out_dir: str, seed: int, n_runs: int, columns, cells,
                  tol_inf: float, **extra) -> list[str]:
    table_path = os.path.join(out_dir, f"{figure}_success.csv")
    results = _success_table(table_path, columns, cells, n_runs, tol_inf)
    summary = dict(figure=figure, seed=seed, n_runs=n_runs, **extra,
                   note="published sweeps average 500 runs; default here is 100",
                   config=FIGURE_PARAMETERS[figure], results=results)
    return [table_path, _write_json(os.path.join(out_dir, f"{figure}_summary.json"), summary)]


def _beta0_sweep(figure: str, out_dir: str, seed: int, n_particles, n_runs) -> list[str]:
    """fig5/fig6: success over beta0 on each surface, under each controller variant."""
    row = FIGURE_PARAMETERS[figure]
    variants = (
        ("plain", FeasibilityCheck.PLAIN_MEAN, ControllerMode.INCREASE_ONLY),
        ("gibbs", FeasibilityCheck.GIBBS, ControllerMode.INCREASE_ONLY),
        ("gibbs_decreasing", FeasibilityCheck.GIBBS,
         ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION),
    )
    problems = {name: PROBLEMS[name]() for name in row["problem"].split(",")}
    cells = [((name, label, beta0), problem,
              _config(row, seed, n_particles, beta0=beta0, check=check, mode=mode))
             for name, problem in problems.items()
             for label, check, mode in variants for beta0 in BETA0_GRID]
    return _sweep_figure(figure, out_dir, seed, n_runs, ("problem", "variant", "beta0"),
                         cells, tol_inf=0.1)


def _sigma_sweep(figure: str, out_dir: str, seed: int, n_particles, n_runs) -> list[str]:
    """fig7/fig8: success over sigma on the random QP of each dimension."""
    row = FIGURE_PARAMETERS[figure]
    problems = {d: make_random_qp(d, QP_INSTANCE_SEED)[0] for d in QP_DIMENSIONS}
    cells = [((d, sigma), problem, _config(row, seed, n_particles, sigma=sigma))
             for d, problem in problems.items() for sigma in SIGMA_GRID]
    return _sweep_figure(figure, out_dir, seed, n_runs, ("d", "sigma"), cells, tol_inf=0.25,
                         diffusion=row["diffusion"], qp_instance_seed=QP_INSTANCE_SEED)


# figure id -> writer(figure, out_dir, seed, n_particles, n_runs) of its data files
_WRITERS = {"fig1": _test1_figure, "fig2": _test1_figure, "fig4": _fig4, "fig5": _beta0_sweep,
            "fig6": _beta0_sweep, "fig7": _sigma_sweep, "fig8": _sigma_sweep}
FIGURES = tuple(_WRITERS)


def reproduce(figure: str, out_dir: str, seed: int = 0,
              n_particles: Optional[int] = None, n_runs: Optional[int] = None) -> list[str]:
    """Write the plot-ready data files for one figure; returns the paths.

    ``None`` takes the figure's default: its own particle count, and
    ``DEFAULT_N_RUNS`` runs per sweep point.  A count below 1 raises
    ValueError before ``out_dir`` is created.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    for name, value in (("n_particles", n_particles), ("n_runs", n_runs)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    os.makedirs(out_dir, exist_ok=True)
    return _WRITERS[figure](figure, out_dir, seed, n_particles,
                            DEFAULT_N_RUNS if n_runs is None else n_runs)
