"""The four benchmark workloads, driven through pencbo's public API only.

Each workload builds its inputs from the benchmark seed, runs one kind of
operation (``op``) and checks every output against ``checks``.  Operation
i of a run uses run seeds derived from (benchmark seed, i), so a run is a
pure function of its seed and the traced run repeats the first operations
of the timed one exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import replace

import numpy as np

import checks
from checks import require


class OpFailed(Exception):
    """The operation ran but reported failure (a numerical abort)."""


class Workload:
    name = ""
    n_setups = 9      # fresh set-up processes per run; the median is reported
    traced_ops = 2    # operations made with and without tracing in a traced run

    def setup(self, pc, seed: int, out_dir) -> dict:
        """Build the problem and make its first objective and penalty call;
        returns CPU seconds of the parts the traced run reports."""
        raise NotImplementedError

    def check_setup(self) -> None:
        """Check the first-call outputs against their references."""

    @contextlib.contextmanager
    def traced(self, tracer):
        """Swap the problem's callables for traced ones."""
        yield

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, runs) -> int:
        """Check one operation's output; returns its particle-steps.  ``runs``
        holds the RunTraces a traced operation produced, else nothing."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, made after the timed operations."""


def _timed_first_call(problem, points) -> tuple[tuple, float]:
    start = time.process_time()
    values = (problem.objective(points), problem.penalty(points))
    return values, time.process_time() - start


class MeanField(Workload):
    """The fig4a panel: rastrigin2d at N = 1e5 with the plain-mean check."""

    name = "meanfield-rastrigin2d"
    n_setups = 5
    N, K = 100_000, 20
    CTRL = dict(beta0=0.1, theta0=16.0, eta_beta=1.01, eta_theta=1.01)

    def setup(self, pc, seed, out_dir):
        self.pc, self.seed = pc, seed
        self.points = np.random.default_rng([seed, 1]).uniform(-3.0, 3.0, (4096, 2))
        self.problem = pc.make_rastrigin2d()
        self.first, first_call_s = _timed_first_call(self.problem, self.points)
        self.config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.01, alpha=1e6),
            controller=pc.PenaltyController.fresh(**self.CTRL),
            n_particles=self.N, n_iterations=self.K, seed=0,
            check=pc.FeasibilityCheck.PLAIN_MEAN,
        )
        return {"first_call_s": first_call_s}

    def check_setup(self):
        checks.check_rastrigin2d(self.points, *self.first, np.array(self.problem.known_solution))

    @contextlib.contextmanager
    def traced(self, tracer):
        plain = self.problem
        self.problem = tracer.wrap_problem(plain, "problems")
        try:
            yield
        finally:
            self.problem = plain

    def op(self, i):
        return self.pc.run(self.problem, replace(self.config, seed=self.seed * 1000 + i))

    def check(self, i, trace, runs):
        if trace.aborted:
            raise OpFailed(trace.abort_reason)
        require(trace.n_recorded == self.K, f"{trace.n_recorded} of {self.K} iterations recorded")
        checks.replay_controller(trace.beta, trace.theta, trace.tolerance, trace.violation,
                                 trace.passed, **self.CTRL)
        require(np.all(np.isfinite(trace.final_consensus)), "non-finite final consensus")
        return self.N * trace.n_recorded


class Sweep(Workload):
    """One success-rate point: R seeded runs per ``success_rate`` call.

    Subclasses give ``build`` (problem, probe points and config),
    ``ref_objective``, ``ref_penalty`` and ``independent_solution``.
    """

    R = 4
    K = 300

    def setup(self, pc, seed, out_dir):
        self.pc, self.seed = pc, seed
        self.runs = self.successes = 0
        marks = self.build(pc, seed)
        self.first, marks["first_call_s"] = _timed_first_call(self.problem, self.points)
        return marks

    def check_setup(self):
        checks.check_close(f"{self.name} objective", self.first[0], self.ref_objective(self.points))
        checks.check_close(f"{self.name} penalty", self.first[1], self.ref_penalty(self.points))
        x_ref = self.independent_solution()
        err = float(np.max(np.abs(self.problem.known_solution - x_ref)))
        require(err <= self.SOLUTION_TOL,
                f"known solution is {err:.3g} from the independent one")
        self.x_ref = x_ref

    @contextlib.contextmanager
    def traced(self, tracer):
        plain = self.problem
        self.problem = tracer.wrap_problem(plain, self.LAYER)
        try:
            yield
        finally:
            self.problem = plain

    def op(self, i):
        config = replace(self.config, seed=self.seed * 1_000_000 + i * self.R)
        return self.pc.success_rate(self.problem, config, self.R, self.TOL, threads=1)

    def check(self, i, stats, runs):
        first = self.seed * 1_000_000 + i * self.R
        require([o.seed for o in stats.outcomes] == list(range(first, first + self.R)),
                "outcome seeds are not the requested ones")
        for o in stats.outcomes:
            require(o.success == (not o.aborted and o.distance_inf <= self.TOL),
                    f"seed {o.seed}: success flag disagrees with its distance {o.distance_inf}")
        wins = sum(o.success for o in stats.outcomes)
        require(stats.rate == wins / self.R, "rate is not the share of successes")
        if runs:
            require(len(runs) == self.R, f"{len(runs)} runs traced, {self.R} expected")
            for o, trace in zip(stats.outcomes, runs):
                checks.replay_controller(trace.beta, trace.theta, trace.tolerance,
                                         trace.violation, trace.passed, **self.CTRL)
                dist = float(np.max(np.abs(trace.final_consensus - self.x_ref)))
                require(o.success == (not trace.aborted and dist <= self.TOL),
                        f"seed {o.seed}: success flag disagrees with the independent solution")
        self.runs += self.R
        self.successes += wins
        return self.N * self.K * (self.R - stats.n_aborted)

    def finish(self):
        require(checks.rate_not_below(self.successes, self.runs, self.MIN_RATE),
                f"success rate {self.successes}/{self.runs} is below {self.MIN_RATE}")


class SweepSphere(Sweep):
    """fig5 point: j1 on the unit sphere, Gibbs check, increase-only."""

    name = "sweep-sphere"
    LAYER = "problems"
    N = 200
    TOL, MIN_RATE, SOLUTION_TOL = 0.1, 0.85, 1e-12
    CTRL = dict(beta0=0.1, theta0=4.0, eta_beta=1.1, eta_theta=1.1)

    def build(self, pc, seed):
        self.points = np.random.default_rng([seed, 2]).uniform(-2.0, 2.0, (4096, 5))
        self.problem = pc.make_j1_sphere()
        self.config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.6, dt=0.1, alpha=1e6),
            controller=pc.PenaltyController.fresh(**self.CTRL),
            n_particles=self.N, n_iterations=self.K, seed=0,
            check=pc.FeasibilityCheck.GIBBS,
        )
        return {}

    def ref_objective(self, x):
        return checks.j1_objective(x)

    def ref_penalty(self, x):
        return checks.sphere_distance(x)

    def independent_solution(self):
        return checks.j1_sphere_solution(5)


class SweepQp(Sweep):
    """fig8 point: the d=10 QP (instance seed 0), anisotropic noise."""

    name = "sweep-qp"
    LAYER = "qp"
    N = 500
    TOL, MIN_RATE, SOLUTION_TOL = 0.25, 0.8, 1e-6
    CTRL = dict(beta0=0.01, theta0=4.0, eta_beta=1.05, eta_theta=1.05)

    def build(self, pc, seed):
        from pencbo.repro import SIGMA_GRID

        self.points = np.random.default_rng([seed, 3]).uniform(-1.0, 3.0, (4096, 10))
        start = time.process_time()
        self.problem, self.instance = pc.make_random_qp(10, 0)
        make_qp_s = time.process_time() - start
        self.config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=SIGMA_GRID[10], dt=0.1, alpha=1e6,
                                diffusion=pc.DiffusionKind.ANISOTROPIC),
            controller=pc.PenaltyController.fresh(**self.CTRL),
            n_particles=self.N, n_iterations=self.K, seed=0,
            check=pc.FeasibilityCheck.GIBBS,
        )
        return {"make_qp_s": make_qp_s}

    def ref_objective(self, x):
        return checks.qp_objective(self.instance, x)

    def ref_penalty(self, x):
        return checks.qp_penalty(self.instance, x)

    def independent_solution(self):
        return checks.solve_qp(self.instance)


def _spec(**fields) -> dict:
    base = dict(lam=1.0, dt=0.1, alpha=1e6, eta_beta=1.1, eta_theta=1.1,
                mode="increase_only", check="gibbs")
    base.update(fields)
    return base


class TraceCli(Workload):
    """Three ``pencbo run`` calls through ``cli.main``, each writing its trace
    CSV and summary JSON: fig2, and j2-torus under both batching modes."""

    name = "trace-cli"
    traced_ops = 3
    K = 300
    SPECS = {
        "fig2": _spec(problem="test1", n_particles=10, n_iterations=K, sigma=10.0,
                      dt=0.01, beta0=0.1, theta0=1.0),
        "partition": _spec(problem="j2-torus", n_particles=1000, n_iterations=K,
                           sigma=0.6, beta0=0.1, theta0=4.0,
                           batch={"kind": "partition", "size": 10}),
        "subset": _spec(problem="j2-torus", n_particles=1000, n_iterations=K,
                        sigma=0.6, beta0=0.1, theta0=4.0,
                        batch={"kind": "random_subset", "size": 100,
                               "update_scope": "batch"}),
    }

    def setup(self, pc, seed, out_dir):
        import pencbo.cli  # noqa: F401  (binds pc.cli; a CLI user pays this import)

        self.pc, self.seed, self.out = pc, seed, out_dir
        self.points = np.random.default_rng([seed, 4]).uniform(-2.0, 2.0, (4096, 5))
        test1, torus = pc.make_test1(), pc.make_j2_torus()
        x1 = self.points[:, :1]
        start = time.process_time()
        self.first = (test1.objective(x1), test1.penalty(x1),
                      torus.objective(self.points), torus.penalty(self.points))
        first_call_s = time.process_time() - start
        self.spec_paths = {}
        for run_name, spec in self.SPECS.items():
            path = os.path.join(out_dir, f"{run_name}_spec.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            self.spec_paths[run_name] = path
        self.kept = None
        return {"first_call_s": first_call_s}

    def check_setup(self):
        x1 = self.points[:, :1]
        checks.check_close("test1 objective", self.first[0], checks.test1_objective(x1))
        checks.check_close("test1 penalty", self.first[1], checks.test1_penalty(x1))
        checks.check_close("j2 objective", self.first[2], checks.j2_objective(self.points))
        checks.check_close("torus penalty", self.first[3], checks.torus_distance(self.points))

    def op(self, i):
        seed = self.seed * 1000 + i
        codes = {}
        for run_name, spec_path in self.spec_paths.items():
            argv = ["run", "--spec", spec_path, "--seed", str(seed),
                    "--out", os.path.join(self.out, f"op{i}", run_name)]
            with contextlib.redirect_stdout(io.StringIO()):
                codes[run_name] = self.pc.cli.main(argv)
        return seed, codes

    def _read(self, i, run_name, seed):
        problem = self.SPECS[run_name]["problem"]
        base = os.path.join(self.out, f"op{i}", run_name, f"{problem}_seed{seed}")
        with open(base + "_summary.json") as fh:
            summary = json.load(fh)
        with open(base + "_trace.csv") as fh:
            lines = fh.read().splitlines()
        return base + "_trace.csv", summary, lines

    def check(self, i, out, runs):
        seed, codes = out
        bad = {name: code for name, code in codes.items() if code != 0}
        if bad:
            raise OpFailed(f"pencbo run exit codes {bad}")
        steps = 0
        for run_name, spec in self.SPECS.items():
            csv_path, summary, lines = self._read(i, run_name, seed)
            d = len(summary["final_consensus"])
            require(lines[0] == checks.trace_csv_header(d), f"{run_name}: CSV header {lines[0]!r}")
            rows = [line.split(",") for line in lines[1:]]
            require(len(rows) == self.K == summary["iterations_recorded"],
                    f"{run_name}: {len(rows)} rows, {summary['iterations_recorded']} recorded")
            cols = list(zip(*rows))
            checks.replay_controller(
                [float(v) for v in cols[2]], [float(v) for v in cols[3]],
                [float(v) for v in cols[5]], [float(v) for v in cols[4]],
                [int(v) for v in cols[6]],
                beta0=spec["beta0"], theta0=spec["theta0"],
                eta_beta=spec["eta_beta"], eta_theta=spec["eta_theta"])
            final = np.array(summary["final_consensus"])
            if run_name == "fig2":
                require(abs(final[0] + 1.5) <= 0.1, f"fig2 ends at {final[0]}, not within 0.1 of -1.5")
                require(summary["final_beta"] >= checks.test1_threshold(),
                        f"fig2 final beta {summary['final_beta']} below {checks.test1_threshold()}")
            if run_name == "partition":
                dist = float(checks.torus_distance(final[None, :])[0])
                require(dist <= 0.1, f"partition run ends {dist} from the torus")
            steps += spec["n_particles"] * summary["iterations_recorded"]
        if self.kept is None:
            self.kept = (i, seed)  # its fig2 files are re-run in finish()
        elif i != self.kept[0]:
            shutil.rmtree(os.path.join(self.out, f"op{i}"))
        return steps

    def finish(self):
        """Re-running fig2's echoed spec reproduces its CSV byte for byte."""
        require(self.kept is not None, "no operation completed")
        i, seed = self.kept
        csv_path, summary, _ = self._read(i, "fig2", seed)
        echo = os.path.join(self.out, "echo_spec.json")
        with open(echo, "w") as fh:
            json.dump(summary["spec"], fh)
        echo_out = os.path.join(self.out, "echo")
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.pc.cli.main(["run", "--spec", echo, "--out", echo_out])
        require(code == 0, f"re-running the echoed spec exited {code}")
        with open(csv_path, "rb") as a, open(
                os.path.join(echo_out, os.path.basename(csv_path)), "rb") as b:
            require(a.read() == b.read(), "re-running fig2's echoed spec changed its CSV")


WORKLOADS = {w.name: w for w in (MeanField, SweepSphere, SweepQp, TraceCli)}
