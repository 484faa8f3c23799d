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
    DiffusionKind,
    ParticleEnsemble,
    consensus_raw,
    euler_maruyama_step,
    variance_functional,
)
from .penalty import (
    ControllerMode,
    FeasibilityCheck,
    PenaltyController,
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
    "success_check",
    "success_rate",
    "batched_consensus",
]


@dataclass(frozen=True)
class BatchSpec:
    """Consensus batching: a random subset of size M, or a partition into
    S equal batches that each step toward their own consensus point.

    For the random subset, ``update_scope`` selects whether all particles
    or only the sampled ones move.
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


# Spec fields a RunConfig is built from, and the value each omitted field takes.
SPEC_DEFAULTS = dict(
    seed=0, n_particles=100, n_iterations=100,
    lam=1.0, sigma=1.0, dt=0.1, alpha=1e6, diffusion="isotropic",
    beta0=0.1, theta0=4.0, eta_beta=1.1, eta_theta=1.1,
    mode="increase_only", check="gibbs", init=None, batch=None,
)


def config_from_spec(spec: dict) -> RunConfig:
    """Build a RunConfig from a flat experiment spec (schema in the README).

    Omitted fields take their ``SPEC_DEFAULTS`` value; fields that do not
    configure a run (``problem``, ``n_runs``, ...) are ignored.  Enum fields
    take members or their string values, and ``init``/``batch`` take dicts
    of InitSpec/BatchSpec fields.  A bad value raises TypeError or
    ValueError.
    """
    spec = {**SPEC_DEFAULTS, **spec}
    init, batch = spec["init"], spec["batch"]
    return RunConfig(
        params=CboParams(
            lam=float(spec["lam"]), sigma=float(spec["sigma"]),
            dt=float(spec["dt"]), alpha=float(spec["alpha"]),
            diffusion=DiffusionKind(spec["diffusion"]),
        ),
        controller=PenaltyController.fresh(
            beta0=float(spec["beta0"]), theta0=float(spec["theta0"]),
            eta_beta=float(spec["eta_beta"]), eta_theta=float(spec["eta_theta"]),
            mode=ControllerMode(spec["mode"]),
        ),
        n_particles=int(spec["n_particles"]),
        n_iterations=int(spec["n_iterations"]),
        seed=int(spec["seed"]),
        check=FeasibilityCheck(spec["check"]),
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

    k: np.ndarray
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
    aborted: bool = False
    abort_reason: Optional[str] = None
    particles: Optional[list[np.ndarray]] = None

    @property
    def n_recorded(self) -> int:
        return len(self.k)

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
            lines.append(f"{int(self.k[i])},{scalars},{int(self.passed[i])},{cons},{v}")
        text = "\n".join(lines) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


def batched_consensus(
    ensemble: ParticleEnsemble,
    values: np.ndarray,
    alpha: float,
    spec: BatchSpec,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Consensus restricted to batches; returns (indices, point) pairs.

    Random subset: one pair over M indices sampled without replacement
    (M = N reduces to the full consensus).  Partition: a seeded shuffle
    split into S equal batches, one pair per batch, each point confined to
    its own batch's coordinate hull.
    """
    spec.validate_for(ensemble.n)
    values = np.asarray(values, dtype=np.float64)
    if spec.kind == "random_subset":
        batches = [rng.choice(ensemble.n, size=spec.size, replace=False)]
    else:
        batches = rng.permutation(ensemble.n).reshape(spec.size, ensemble.n // spec.size)
    out = []
    for rows in batches:
        rows = np.sort(rows)
        out.append((rows, consensus_raw(ensemble.positions[rows], values[rows], alpha)))
    return out


def _evaluate(problem: Problem, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective and penalty values of the (n, d) rows; ValueError, naming
    the problem, when either callable does not return shape (n,)."""
    j_vals = np.asarray(problem.objective(positions), dtype=np.float64)
    r_vals = np.asarray(problem.penalty(positions), dtype=np.float64)
    for label, vals in (("objective", j_vals), ("penalty", r_vals)):
        if vals.shape != positions.shape[:1]:
            raise ValueError(
                f"problem {problem.name!r}: {label} must map shape {positions.shape} "
                f"to ({positions.shape[0]},), got {vals.shape}"
            )
    return j_vals, r_vals


def run(problem: Problem, config: RunConfig) -> RunTrace:
    """Execute K iterations; never raises on numerical blow-up.

    A non-finite position, value, weight or violation (FloatingPointError)
    stops the run early and returns the trace so far with ``aborted`` set
    and the failing iteration named in ``abort_reason``.  Anything else
    raises, e.g. ValueError when, at any iteration, the objective or
    penalty does not map the (n, d) ensemble to shape (n,).

    Every iteration makes one step toward a consensus target.  Without
    batching, and for a random subset with update scope "all", that target
    is the single (sub)set consensus point.  Otherwise each particle gets
    its batch's point, and a particle outside the sampled subset gets its
    own position, so it does not move.
    """
    n, d, K = config.n_particles, problem.dim, config.n_iterations
    params, alpha, batch = config.params, config.params.alpha, config.batch
    if batch is not None:
        batch.validate_for(n)
    init = config.init if config.init is not None else problem.init
    ref = problem.known_solution

    k_arr = np.zeros(K, dtype=np.int64)
    t_arr = np.zeros(K)
    beta_arr = np.zeros(K)
    theta_arr = np.zeros(K)
    viol_arr = np.zeros(K)
    tol_arr = np.zeros(K)
    pass_arr = np.zeros(K, dtype=bool)
    cons_arr = np.zeros((K, d))
    v_arr = np.full(K, np.nan)

    start = time.perf_counter()
    ctrl = config.controller
    aborted = False
    reason = None
    done = 0
    snapshots: Optional[list[np.ndarray]] = [] if config.record_particles else None

    ensemble = ParticleEnsemble(initial_positions(config.seed, n, d, init))
    if snapshots is not None:
        snapshots.append(ensemble.positions)
    j_vals, r_vals = _evaluate(problem, ensemble.positions)

    for k in range(K):
        try:
            merit = j_vals + ctrl.beta * r_vals
            noise = noise_normals(config.seed, k, n, d)
            if batch is None:
                target = recorded = consensus_raw(ensemble.positions, merit, alpha)
            else:
                pairs = batched_consensus(
                    ensemble, merit, alpha, batch, batch_stream(config.seed, k)
                )
                if batch.kind == "partition":
                    recorded = consensus_raw(ensemble.positions, merit, alpha)
                else:
                    recorded = pairs[0][1]
                if batch.kind == "random_subset" and batch.update_scope == "all":
                    target = recorded
                else:
                    target = ensemble.positions.copy()
                    for rows, point in pairs:
                        target[rows] = point
            ensemble = euler_maruyama_step(ensemble, target, params, noise)

            j_vals, r_vals = _evaluate(problem, ensemble.positions)
            violation = ensemble_violation(r_vals, j_vals, ctrl.beta, alpha, config.check)

            k_arr[k] = k
            t_arr[k] = (k + 1) * params.dt
            beta_arr[k] = ctrl.beta
            theta_arr[k] = ctrl.theta
            viol_arr[k] = violation
            tol_arr[k] = ctrl.tolerance
            cons_arr[k] = recorded
            if ref is not None:
                v_arr[k] = variance_functional(ensemble, ref)
            ctrl, passed = controller_step(ctrl, violation)
            pass_arr[k] = passed
            if snapshots is not None:
                snapshots.append(ensemble.positions)
            done = k + 1
        except FloatingPointError as exc:
            aborted = True
            reason = f"iteration {k}: {exc}"
            break

    try:
        final_consensus = consensus_raw(ensemble.positions, j_vals + ctrl.beta * r_vals, alpha)
    except FloatingPointError:
        final_consensus = np.full(d, np.nan)

    sl = slice(0, done)
    return RunTrace(
        k=k_arr[sl],
        t=t_arr[sl],
        beta=beta_arr[sl],
        theta=theta_arr[sl],
        violation=viol_arr[sl],
        tolerance=tol_arr[sl],
        passed=pass_arr[sl],
        consensus=cons_arr[sl],
        v=v_arr[sl],
        final_consensus=final_consensus,
        final_beta=ctrl.beta,
        duration_s=time.perf_counter() - start,
        aborted=aborted,
        abort_reason=reason,
        particles=snapshots,
    )


def success_check(final_consensus: np.ndarray, x_star: np.ndarray, tol_inf: float) -> bool:
    """True iff the consensus point is within tol_inf of x* in every coordinate."""
    final_consensus = np.asarray(final_consensus, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if final_consensus.shape != x_star.shape:
        raise ValueError(f"shape mismatch: {final_consensus.shape} vs {x_star.shape}")
    if not tol_inf > 0:
        raise ValueError(f"tol_inf must be > 0, got {tol_inf}")
    if not np.all(np.isfinite(final_consensus)):
        return False
    return bool(np.max(np.abs(final_consensus - x_star)) <= tol_inf)


@dataclass(frozen=True)
class RunOutcome:
    seed: int
    success: bool
    aborted: bool
    distance_inf: float
    final_beta: float


@dataclass(frozen=True)
class SuccessStats:
    rate: float
    outcomes: tuple[RunOutcome, ...]

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

    Run i uses seed config.seed + i; aborted runs count as failures and are
    flagged in the outcome list.  Runs execute one after another;
    ``threads`` accepts only 1 and remains only because
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
    outcomes = []
    for i in range(n_runs):
        trace = run(problem, replace(config, seed=config.seed + i))
        final = trace.final_consensus
        dist = float(np.max(np.abs(final - x_star))) if np.all(np.isfinite(final)) else np.inf
        outcomes.append(RunOutcome(
            seed=config.seed + i,
            success=not trace.aborted and success_check(final, x_star, tol_inf),
            aborted=trace.aborted,
            distance_inf=dist,
            final_beta=trace.final_beta,
        ))
    rate = sum(o.success for o in outcomes) / n_runs
    return SuccessStats(rate=rate, outcomes=tuple(outcomes))
