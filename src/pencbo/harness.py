"""Run loop: initialize, form consensus, step, check feasibility, adapt.

One iteration performs, in order: consensus of the current ensemble under
the current penalty weight (optionally within a batch), one Euler-Maruyama
step with seeded noise, evaluation of objective and penalty at the new
positions, the configured feasibility check, and the controller update.
Everything an iteration records is reproducible from the seed alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import (
    CboParams,
    ParticleEnsemble,
    consensus_raw,
    euler_maruyama_step,
    variance_functional,
)
from .penalty import (
    FeasibilityCheck,
    PenaltyController,
    _merit,
    controller_step,
    ensemble_violation,
)
from .problems import InitSpec, Problem
from .rng import batch_stream, initial_positions, noise_normals

__all__ = [
    "BatchSpec",
    "RunConfig",
    "config_from_spec",
    "RunTrace",
    "RunOutcome",
    "SuccessStats",
    "run",
    "success_rate",
    "batched_consensus",
]


@dataclass(frozen=True)
class BatchSpec:
    """Consensus batching: a random subset of size M, or a partition into
    S equal batches that each step toward their own consensus point.

    For the random subset, ``update_scope`` selects whether all particles
    or only the sampled ones move; a partition moves all of them, so its
    scope must be "all".
    """

    kind: str
    size: int
    update_scope: str = "all"

    def __post_init__(self):
        if self.kind not in ("random_subset", "partition"):
            raise ValueError(f"unknown batch kind {self.kind!r}")
        if self.size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.size}")
        if self.update_scope not in ("all", "batch"):
            raise ValueError(f"update_scope must be 'all' or 'batch', got {self.update_scope!r}")
        if self.kind == "partition" and self.update_scope != "all":
            raise ValueError("a partition moves every particle; update_scope must be 'all'")

    @staticmethod
    def random_subset(m: int, update_scope: str = "all") -> "BatchSpec":
        return BatchSpec(kind="random_subset", size=m, update_scope=update_scope)

    @staticmethod
    def partition(s: int) -> "BatchSpec":
        return BatchSpec(kind="partition", size=s)

    def validate_for(self, n: int) -> None:
        if self.kind == "random_subset" and self.size > n:
            raise ValueError(f"subset size {self.size} exceeds ensemble size {n}")
        if self.kind == "partition" and n % self.size != 0:
            raise ValueError(f"partition count {self.size} must divide ensemble size {n}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs besides the problem itself.

    ``init=None`` falls back to the problem's default initial distribution.
    The seed determines initial positions, noise, and batch draws.
    """

    params: CboParams
    controller: PenaltyController
    n_particles: int
    n_iterations: int
    seed: int
    check: FeasibilityCheck = FeasibilityCheck.GIBBS
    init: Optional[InitSpec] = None
    batch: Optional[BatchSpec] = None
    record_particles: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if not isinstance(self.check, FeasibilityCheck):
            object.__setattr__(self, "check", FeasibilityCheck(self.check))
        if self.batch is not None:
            self.batch.validate_for(self.n_particles)


# Spec fields a RunConfig is built from, and the value each omitted field takes.
SPEC_DEFAULTS = dict(
    seed=0, n_particles=100, n_iterations=100,
    lam=1.0, sigma=1.0, dt=0.1, alpha=1e6, diffusion="isotropic",
    beta0=0.1, theta0=4.0, eta_beta=1.1, eta_theta=1.1,
    mode="increase_only", check="gibbs", init=None, batch=None,
)


def _whole(value, name: str) -> int:
    """A spec count or seed as an int; ValueError for a float that is not
    whole (100.0 is), where ``int`` would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def config_from_spec(spec: dict) -> RunConfig:
    """Build a RunConfig from a flat experiment spec (schema in the README).

    Omitted fields take their ``SPEC_DEFAULTS`` value; fields that do not
    configure a run (``problem``, ``n_runs``, ...) are ignored.  Enum fields
    take members or their string values, which the config classes coerce,
    and ``init``/``batch`` take dicts of InitSpec/BatchSpec fields.  A bad
    value raises TypeError or ValueError.
    """
    spec = {**SPEC_DEFAULTS, **spec}
    init, batch = spec["init"], spec["batch"]
    return RunConfig(
        params=CboParams(
            lam=float(spec["lam"]), sigma=float(spec["sigma"]),
            dt=float(spec["dt"]), alpha=float(spec["alpha"]),
            diffusion=spec["diffusion"],
        ),
        controller=PenaltyController.fresh(
            beta0=float(spec["beta0"]), theta0=float(spec["theta0"]),
            eta_beta=float(spec["eta_beta"]), eta_theta=float(spec["eta_theta"]),
            mode=spec["mode"],
        ),
        n_particles=_whole(spec["n_particles"], "n_particles"),
        n_iterations=_whole(spec["n_iterations"], "n_iterations"),
        seed=_whole(spec["seed"], "seed"),
        check=spec["check"],
        init=InitSpec(**init) if isinstance(init, dict) else init,
        batch=BatchSpec(**batch) if isinstance(batch, dict) else batch,
    )


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration history of one run.

    Row k holds the controller state (beta, theta, tolerance) that steered
    iteration k, the consensus point the step moved toward, and the
    violation measured after the step, which the recorded passed flag fed
    back into the controller.  Replaying the controller over the recorded
    violations therefore reproduces the beta/theta columns exactly.
    ``v`` is half the mean squared distance to the known solution (NaN when
    none is known).  On an abort the arrays stop at the failed iteration.
    """

    t: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    violation: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray
    consensus: np.ndarray
    v: np.ndarray
    final_consensus: np.ndarray
    final_beta: float
    duration_s: float
    abort_reason: Optional[str] = None
    particles: Optional[list[np.ndarray]] = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def n_recorded(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        """One row per iteration; the V column is left empty when no
        reference solution is known."""
        d = self.consensus.shape[1]
        header = "k,t,beta,theta,violation,tolerance,passed," + ",".join(
            f"consensus_{i}" for i in range(d)
        ) + ",V"
        lines = [header]
        for i in range(self.n_recorded):
            cons = ",".join(repr(float(c)) for c in self.consensus[i])
            v = "" if np.isnan(self.v[i]) else repr(float(self.v[i]))
            scalars = ",".join(
                repr(float(col[i]))
                for col in (self.t, self.beta, self.theta, self.violation, self.tolerance)
            )
            lines.append(f"{i},{scalars},{int(self.passed[i])},{cons},{v}")
        text = "\n".join(lines) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


def batched_consensus(
    positions: np.ndarray,
    values: np.ndarray,
    alpha: float,
    spec: BatchSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(target, recorded): what the step moves the (n, d) rows toward, and
    the (d,) consensus point the trace keeps.

    Random subset: the consensus of M rows drawn without replacement is
    recorded; with update scope "all" every row targets it, with "batch"
    only the drawn rows do and the others target their own positions.
    Partition: each batch of a seeded shuffle into S equal batches targets
    its own consensus point, inside that batch's coordinate hull, and the
    full-ensemble consensus is recorded.
    """
    n = positions.shape[0]
    spec.validate_for(n)
    values = np.asarray(values, dtype=np.float64)
    if spec.kind == "random_subset":
        rows = np.sort(rng.choice(n, size=spec.size, replace=False))
        point = consensus_raw(positions[rows], values[rows], alpha)
        if spec.update_scope == "all":
            return point, point
        target = positions.copy()
        target[rows] = point
        return target, point
    target = positions.copy()
    for rows in rng.permutation(n).reshape(spec.size, n // spec.size):
        rows = np.sort(rows)
        target[rows] = consensus_raw(positions[rows], values[rows], alpha)
    return target, consensus_raw(positions, values, alpha)


def _evaluate(problem: Problem, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective and penalty values of the (n, d) rows; ValueError, naming
    the problem, when either callable does not return shape (n,), and
    FloatingPointError, naming the callable and the first such particle,
    when either returns a non-finite value."""
    values = (np.asarray(problem.objective(positions), dtype=np.float64),
              np.asarray(problem.penalty(positions), dtype=np.float64))
    for label, vals in zip(("objective", "penalty"), values):
        if vals.shape != positions.shape[:1]:
            raise ValueError(
                f"problem {problem.name!r}: {label} must map shape {positions.shape} "
                f"to ({positions.shape[0]},), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            bad = np.flatnonzero(~np.isfinite(vals))[0]
            raise FloatingPointError(f"{label} returned {float(vals[bad])} at particle {bad}")
    return values


def run(problem: Problem, config: RunConfig) -> RunTrace:
    """Execute K iterations; never raises on numerical blow-up.

    A non-finite position, value, weight or violation (FloatingPointError)
    stops the run early and returns the trace so far, with the failing
    iteration, or the final consensus, named in ``abort_reason``; the final
    consensus is then that of the last finite ensemble, or NaN.  Anything
    else raises, e.g. ValueError when, at any iteration, the objective or
    penalty does not map the (n, d) ensemble to shape (n,).

    Every iteration makes one step toward a consensus target: without
    batching the consensus point, and with batching the target that
    ``batched_consensus`` builds.
    """
    n, d, K = config.n_particles, problem.dim, config.n_iterations
    params, alpha, batch = config.params, config.params.alpha, config.batch
    init = config.init if config.init is not None else problem.init
    ref = problem.known_solution
    # one record per finished iteration, its fields named as RunTrace's columns
    rows = np.zeros(K, dtype=[
        ("t", float), ("beta", float), ("theta", float), ("violation", float),
        ("tolerance", float), ("passed", bool), ("consensus", float, (d,)), ("v", float),
    ])

    start = time.perf_counter()
    ctrl = config.controller
    reason = j_vals = r_vals = None
    done = 0
    snapshots: Optional[list[np.ndarray]] = [] if config.record_particles else None

    ensemble = ParticleEnsemble(initial_positions(config.seed, n, d, init))
    if snapshots is not None:
        snapshots.append(ensemble.positions)
    try:
        j_vals, r_vals = _evaluate(problem, ensemble.positions)
        for k in range(K):
            merit = _merit(j_vals, r_vals, ctrl.beta)
            noise = noise_normals(config.seed, k, n, d)
            if batch is None:
                target = recorded = consensus_raw(ensemble.positions, merit, alpha)
            else:
                target, recorded = batched_consensus(
                    ensemble.positions, merit, alpha, batch, batch_stream(config.seed, k)
                )
            # the ensemble advances once its values are finite, so that an
            # abort leaves it paired with its own values for the final consensus
            stepped = euler_maruyama_step(ensemble, target, params, noise)
            j_vals, r_vals = _evaluate(problem, stepped.positions)
            ensemble = stepped
            violation = ensemble_violation(r_vals, j_vals, ctrl.beta, alpha, config.check)
            v = np.nan if ref is None else variance_functional(ensemble.positions, ref)
            nxt, passed = controller_step(ctrl, violation)
            rows[k] = ((k + 1) * params.dt, ctrl.beta, ctrl.theta, violation,
                       ctrl.tolerance, passed, recorded, v)
            ctrl = nxt
            if snapshots is not None:
                snapshots.append(ensemble.positions)
            done = k + 1
    except FloatingPointError as exc:
        reason = f"iteration {done}: {exc}"

    final_consensus = np.full(d, np.nan)
    if j_vals is not None:
        try:
            final_consensus = consensus_raw(
                ensemble.positions, _merit(j_vals, r_vals, ctrl.beta), alpha
            )
        except FloatingPointError as exc:
            reason = reason or f"final consensus: {exc}"

    rows = rows[:done]
    return RunTrace(
        **{name: rows[name] for name in rows.dtype.names},
        final_consensus=final_consensus,
        final_beta=ctrl.beta,
        duration_s=time.perf_counter() - start,
        abort_reason=reason,
        particles=snapshots,
    )


@dataclass(frozen=True)
class RunOutcome:
    seed: int
    success: bool
    aborted: bool
    distance_inf: float
    final_beta: float


@dataclass(frozen=True)
class SuccessStats:
    outcomes: tuple[RunOutcome, ...]

    @property
    def rate(self) -> float:
        return sum(o.success for o in self.outcomes) / len(self.outcomes)

    @property
    def n_aborted(self) -> int:
        return sum(o.aborted for o in self.outcomes)


def success_rate(
    problem: Problem,
    config: RunConfig,
    n_runs: int,
    tol_inf: float,
    threads: int = 1,
) -> SuccessStats:
    """Fraction of runs ending within tol_inf of the known solution.

    Run i uses seed config.seed + i.  A run succeeds iff it did not abort
    and its final consensus is within tol_inf of x* in every coordinate,
    the boundary included; aborted runs are flagged in the outcome list.
    Runs do not record V, which no outcome reads.  Runs execute one after
    another; ``threads`` accepts only 1 and remains only because
    ``perfbench/workloads.py`` passes ``threads=1``.
    """
    if threads != 1:
        raise ValueError(f"runs execute serially; threads must be 1, got {threads}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if problem.known_solution is None:
        raise ValueError(f"problem {problem.name!r} has no known solution to score against")
    if not tol_inf > 0:
        raise ValueError(f"tol_inf must be > 0, got {tol_inf}")
    x_star = problem.known_solution
    unscored = replace(problem, known_solution=None)
    outcomes = []
    for i in range(n_runs):
        trace = run(unscored, replace(config, seed=config.seed + i))
        final = trace.final_consensus
        dist = float(np.max(np.abs(final - x_star))) if np.all(np.isfinite(final)) else np.inf
        outcomes.append(RunOutcome(
            seed=config.seed + i,
            success=not trace.aborted and dist <= tol_inf,
            aborted=trace.aborted,
            distance_inf=dist,
            final_beta=trace.final_beta,
        ))
    return SuccessStats(outcomes=tuple(outcomes))
