import io
from dataclasses import replace

import numpy as np
import pytest

import pencbo as pc
from conftest import make_quadratic_bowl, score_separately
from pencbo import harness
from pencbo.penalty import controller_step
from pencbo.rng import batch_stream


class TestTraceSelfConsistency:
    def test_replaying_controller_reproduces_beta_theta(self, small_run_config):
        problem = pc.make_test1()
        trace = pc.run(problem, small_run_config)
        ctrl = small_run_config.controller
        for i in range(trace.n_recorded):
            assert trace.beta[i] == ctrl.beta
            assert trace.theta[i] == ctrl.theta
            assert trace.tolerance[i] == ctrl.tolerance
            ctrl, passed = controller_step(ctrl, trace.violation[i])
            assert passed == bool(trace.passed[i])
        assert trace.final_beta == ctrl.beta

    def test_time_axis_is_dt_multiples(self, small_run_config):
        problem = pc.make_test1()
        trace = pc.run(problem, small_run_config)
        np.testing.assert_allclose(
            trace.t, (np.arange(trace.n_recorded) + 1) * small_run_config.params.dt
        )

    def test_record_count_equals_iterations(self, small_run_config):
        trace = pc.run(pc.make_test1(), small_run_config)
        assert trace.n_recorded == small_run_config.n_iterations
        assert not trace.aborted


class TestDeterminism:
    def test_same_seed_identical_traces(self, small_run_config):
        problem = pc.make_test1()
        a = pc.run(problem, small_run_config)
        b = pc.run(problem, small_run_config)
        np.testing.assert_array_equal(a.consensus, b.consensus)
        np.testing.assert_array_equal(a.violation, b.violation)
        np.testing.assert_array_equal(a.final_consensus, b.final_consensus)

    def test_different_seeds_differ(self, small_run_config):
        problem = pc.make_test1()
        a = pc.run(problem, small_run_config)
        b = pc.run(problem, replace(small_run_config, seed=small_run_config.seed + 1))
        assert not np.array_equal(a.consensus, b.consensus)

    def test_success_rate_matches_separate_runs(self, quadratic_bowl):
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.05),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0),
            n_particles=30,
            n_iterations=40,
            seed=100,
        )
        # at tol_inf 0.12 some seeds succeed and some fail
        stats = pc.success_rate(quadratic_bowl, config, n_runs=8, tol_inf=0.12)
        expected = score_separately(quadratic_bowl, config, 8, 0.12)
        assert stats.outcomes == expected
        assert stats.rate == sum(o.success for o in expected) / 8
        assert 0 < stats.rate < 1

    def test_record_particles_matches_positions_replay(self, small_run_config):
        problem = pc.make_test1()
        config = replace(small_run_config, record_particles=True, n_iterations=5)
        trace = pc.run(problem, config)
        assert len(trace.particles) == 6  # initial state plus one per iteration
        start = pc.initial_positions(config.seed, config.n_particles, 1, problem.init)
        np.testing.assert_array_equal(trace.particles[0], start)


class TestFrozenDynamics:
    def test_zero_rates_keep_particles_still(self):
        # Plain-mean check: frozen positions pin the measured violation.  The
        # weighted check would still drift because its weights depend on beta.
        problem = pc.make_test1()
        config = pc.RunConfig(
            params=pc.CboParams(lam=0.0, sigma=0.0, dt=0.01),
            controller=pc.PenaltyController.fresh(beta0=0.5, theta0=4.0),
            n_particles=12,
            n_iterations=30,
            seed=3,
            check=pc.FeasibilityCheck.PLAIN_MEAN,
            record_particles=True,
        )
        trace = pc.run(problem, config)
        for snap in trace.particles[1:]:
            np.testing.assert_array_equal(snap, trace.particles[0])
        assert np.ptp(trace.violation) == 0.0

    @pytest.mark.parametrize("beta0,grows", [(1e-3, True), (1e3, False)])
    def test_beta_grows_iff_frozen_violation_fails(self, beta0, grows):
        # Still particles pin the violation; beta then ratchets exactly when
        # the measured violation exceeds the initial tolerance.
        problem = pc.make_test1()
        config = pc.RunConfig(
            params=pc.CboParams(lam=0.0, sigma=0.0, dt=0.01),
            controller=pc.PenaltyController.fresh(beta0=beta0, theta0=4.0),
            n_particles=64,
            n_iterations=20,
            seed=12,
            check=pc.FeasibilityCheck.GIBBS,
        )
        trace = pc.run(problem, config)
        exceeded = trace.violation[0] > 0.5
        assert (trace.final_beta > beta0) == exceeded
        # large beta steers the weighted check onto feasible particles
        assert exceeded == grows


class TestBatching:
    def test_full_subset_equals_unbatched(self, small_run_config):
        problem = pc.make_test1()
        batched = replace(
            small_run_config,
            batch=pc.BatchSpec.random_subset(small_run_config.n_particles),
        )
        a = pc.run(problem, small_run_config)
        b = pc.run(problem, batched)
        np.testing.assert_allclose(a.consensus, b.consensus, rtol=1e-12, atol=1e-14)

    def test_subset_of_one_is_a_particle(self):
        rng = np.random.default_rng(0)
        ens = pc.ParticleEnsemble(rng.normal(size=(10, 2)))
        values = rng.normal(size=10)
        pairs = pc.batched_consensus(
            ens, values, 1e6, pc.BatchSpec.random_subset(1), np.random.default_rng(5)
        )
        (idx, point), = pairs
        np.testing.assert_array_equal(point, ens.positions[idx[0]])

    def test_partition_points_stay_in_batch_hull(self):
        rng = np.random.default_rng(1)
        ens = pc.ParticleEnsemble(rng.normal(size=(12, 3)))
        values = rng.normal(size=12)
        pairs = pc.batched_consensus(
            ens, values, 10.0, pc.BatchSpec.partition(3), np.random.default_rng(7)
        )
        assert len(pairs) == 3
        seen = np.concatenate([idx for idx, _ in pairs])
        assert sorted(seen) == list(range(12))
        for idx, point in pairs:
            sub = ens.positions[idx]
            assert np.all(point >= sub.min(axis=0) - 1e-12)
            assert np.all(point <= sub.max(axis=0) + 1e-12)

    def test_batch_scope_moves_only_sampled_rows(self):
        problem = pc.make_test1()
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.0, dt=0.5),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0),
            n_particles=8,
            n_iterations=1,
            seed=21,
            batch=pc.BatchSpec.random_subset(3, update_scope="batch"),
            record_particles=True,
        )
        trace = pc.run(problem, config)
        before, after = trace.particles[0], trace.particles[1]
        moved = np.any(before != after, axis=1)
        idx = np.sort(
            batch_stream(config.seed, 0).choice(8, size=3, replace=False)
        )
        # sampled rows drift toward their consensus; the rest must not move
        assert set(np.flatnonzero(moved)) <= set(idx.tolist())
        untouched = np.setdiff1d(np.arange(8), idx)
        np.testing.assert_array_equal(before[untouched], after[untouched])

    @pytest.mark.parametrize("batch", [
        None,
        pc.BatchSpec.random_subset(5, update_scope="all"),
        pc.BatchSpec.random_subset(5, update_scope="batch"),
        pc.BatchSpec.partition(4),
    ])
    def test_one_step_per_iteration_in_every_mode(self, small_run_config, monkeypatch, batch):
        calls = []
        step = harness.euler_maruyama_step
        monkeypatch.setattr(harness, "euler_maruyama_step",
                            lambda *args: calls.append(args[1].shape) or step(*args))
        trace = pc.run(pc.make_test1(), replace(small_run_config, batch=batch))
        assert len(calls) == trace.n_recorded == small_run_config.n_iterations
        per_row = batch is not None and (batch.kind == "partition" or batch.update_scope == "batch")
        assert set(calls) == {(16, 1) if per_row else (1,)}

    def test_invalid_batch_specs_rejected(self):
        with pytest.raises(ValueError):
            pc.BatchSpec.random_subset(0)
        with pytest.raises(ValueError):
            pc.BatchSpec("nonsense", 3)
        with pytest.raises(ValueError):
            pc.BatchSpec.random_subset(20).validate_for(10)
        with pytest.raises(ValueError):
            pc.BatchSpec.partition(3).validate_for(10)


class TestAbort:
    def test_blowup_flags_abort_with_partial_trace(self):
        problem = pc.make_test1()
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=1e150, dt=1.0),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0),
            n_particles=8,
            n_iterations=50,
            seed=0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            trace = pc.run(problem, config)
        assert trace.aborted
        assert "iteration" in trace.abort_reason
        assert trace.n_recorded < 50

    def test_nonfinite_objective_value_aborts(self, quadratic_bowl, small_run_config):
        # a NaN value is numerical, not a contract breach: the run aborts
        def objective(x):
            vals = quadratic_bowl.objective(x)
            vals[0] = np.nan
            return vals

        trace = pc.run(replace(quadratic_bowl, objective=objective), small_run_config)
        assert trace.aborted
        assert trace.abort_reason == "iteration 0: consensus values must be finite"
        assert np.all(np.isnan(trace.final_consensus))

    def test_aborted_runs_count_as_failures(self, quadratic_bowl):
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=1e150, dt=1.0),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0),
            n_particles=8,
            n_iterations=10,
            seed=0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            stats = pc.success_rate(quadratic_bowl, config, n_runs=3, tol_inf=0.5)
        assert stats.rate == 0.0
        assert stats.n_aborted == 3


class TestProblemContract:
    @staticmethod
    def column_bowl():
        # objective returns shape (n, 1) instead of (n,)
        bowl = make_quadratic_bowl()
        return replace(bowl, objective=lambda x: bowl.objective(x)[:, None])

    def test_wrong_shape_objective_raises_in_run(self, small_run_config):
        with pytest.raises(ValueError, match=r"objective must map .* got \(16, 1\)"):
            pc.run(self.column_bowl(), small_run_config)

    def test_wrong_shape_objective_raises_in_success_rate(self, small_run_config):
        with pytest.raises(ValueError, match="quadratic-bowl-3d"):
            pc.success_rate(self.column_bowl(), small_run_config, n_runs=2, tol_inf=0.5)

    def test_shape_turning_wrong_mid_run_raises(self, small_run_config):
        # the objective turns (n, 1) at its fifth call, iteration 3
        bowl = make_quadratic_bowl()
        calls = []

        def objective(x):
            calls.append(1)
            vals = bowl.objective(x)
            return vals[:, None] if len(calls) > 4 else vals

        with pytest.raises(ValueError, match=r"'quadratic-bowl-3d': objective .* got \(16, 1\)"):
            pc.run(replace(bowl, objective=objective), small_run_config)
        assert len(calls) == 5

    def test_wrong_shape_penalty_raises(self, quadratic_bowl, small_run_config):
        scalar = replace(quadratic_bowl, penalty=lambda x: 0.0)
        with pytest.raises(ValueError, match=r"penalty must map .* got \(\)"):
            pc.run(scalar, small_run_config)


class TestLongRuns:
    def test_theta_saturates_instead_of_aborting(self, quadratic_bowl):
        # r == 0 passes every check, so theta grows by 1.5 per iteration and
        # would pass the largest float near iteration 1750
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.05),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0, eta_theta=1.5),
            n_particles=16,
            n_iterations=2000,
            seed=7,
        )
        trace = pc.run(quadratic_bowl, config)
        assert not trace.aborted, trace.abort_reason
        assert trace.n_recorded == 2000
        assert np.all(np.isfinite(trace.theta))
        assert trace.theta[-1] == np.finfo(float).max

    def test_beta_saturates_instead_of_aborting(self, quadratic_bowl):
        # r == 1 fails every check, so beta grows by 1.5 per iteration and
        # would pass the largest float near iteration 1750
        ones = replace(quadratic_bowl, penalty=lambda x: np.ones(len(x)))
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.05),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0, eta_beta=1.5),
            n_particles=16,
            n_iterations=3000,
            seed=7,
        )
        trace = pc.run(ones, config)
        assert not trace.aborted, trace.abort_reason
        assert trace.n_recorded == 3000
        assert trace.final_beta == np.finfo(float).max

    def test_decreasing_beta_stays_positive(self, quadratic_bowl):
        # r == 0 passes every check, so the decreasing mode divides beta by
        # 2.5 per iteration, which would round to 0 near iteration 810
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.05),
            controller=pc.PenaltyController.fresh(
                beta0=1.0, theta0=4.0, eta_beta=2.5,
                mode=pc.ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION),
            n_particles=16,
            n_iterations=1000,
            seed=7,
        )
        trace = pc.run(quadratic_bowl, config)
        assert not trace.aborted, trace.abort_reason
        assert trace.final_beta == 1.0 / np.finfo(float).max


class TestSuccessScoring:
    def test_boundary_is_inclusive(self):
        assert pc.success_check(np.array([0.1, 0.1]), np.zeros(2), 0.1)
        assert not pc.success_check(np.array([0.11, 0.0]), np.zeros(2), 0.1)

    def test_exact_match(self):
        x = np.array([1.0, -2.0])
        assert pc.success_check(x, x, 1e-12)

    def test_nonfinite_consensus_fails(self):
        assert not pc.success_check(np.array([np.nan]), np.zeros(1), 0.1)
        assert not pc.success_check(np.array([np.inf]), np.zeros(1), 0.1)

    def test_seeds_advance_from_config(self, quadratic_bowl):
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.3, dt=0.05),
            controller=pc.PenaltyController.fresh(beta0=1.0, theta0=4.0),
            n_particles=20,
            n_iterations=30,
            seed=500,
        )
        stats = pc.success_rate(quadratic_bowl, config, n_runs=4, tol_inf=1.0)
        assert [o.seed for o in stats.outcomes] == [500, 501, 502, 503]

    def test_requires_known_solution(self, small_run_config):
        nameless = pc.Problem(
            name="no-solution",
            dim=1,
            objective=lambda x: np.atleast_2d(x)[:, 0] ** 2,
            penalty=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
            init=pc.InitSpec.gaussian(0.0, 1.0),
        )
        with pytest.raises(ValueError, match="known solution"):
            pc.success_rate(nameless, small_run_config, n_runs=1, tol_inf=0.1)

    def test_rejects_more_than_one_thread(self, quadratic_bowl, small_run_config):
        with pytest.raises(ValueError, match="threads must be 1, got 2"):
            pc.success_rate(quadratic_bowl, small_run_config, n_runs=2, tol_inf=0.5,
                            threads=2)

    @pytest.mark.parametrize("tol_inf", [0.0, -1.0])
    def test_rejects_nonpositive_tolerance(self, quadratic_bowl, small_run_config, tol_inf):
        with pytest.raises(ValueError, match="tol_inf must be > 0"):
            pc.success_rate(quadratic_bowl, small_run_config, n_runs=2, tol_inf=tol_inf)


class TestCsv:
    def test_header_and_shape(self, small_run_config):
        problem = pc.make_test1()
        trace = pc.run(problem, small_run_config)
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "k,t,beta,theta,violation,tolerance,passed,consensus_0,V"
        assert len(lines) == 1 + trace.n_recorded

    def test_values_round_trip(self, small_run_config):
        problem = pc.make_test1()
        trace = pc.run(problem, small_run_config)
        buf = io.StringIO()
        trace.to_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            assert float(row[2]) == trace.beta[i]
            assert float(row[4]) == trace.violation[i]
            assert float(row[7]) == trace.consensus[i, 0]
            assert float(row[8]) == trace.v[i]  # test1 has a known solution

    def test_v_column_empty_without_reference(self, quadratic_bowl, small_run_config):
        unknown = pc.Problem(
            name="anon",
            dim=quadratic_bowl.dim,
            objective=quadratic_bowl.objective,
            penalty=quadratic_bowl.penalty,
            init=quadratic_bowl.init,
        )
        trace = pc.run(unknown, small_run_config)
        buf = io.StringIO()
        trace.to_csv(buf)
        first = buf.getvalue().strip().split("\n")[1]
        assert first.endswith(",")


class TestConfigValidation:
    def test_rejects_bad_counts(self, small_run_config):
        with pytest.raises(ValueError):
            replace(small_run_config, n_particles=0)
        with pytest.raises(ValueError):
            replace(small_run_config, n_iterations=0)

    def test_accepts_string_check(self, small_run_config):
        config = replace(small_run_config, check="plain_mean")
        assert config.check is pc.FeasibilityCheck.PLAIN_MEAN
