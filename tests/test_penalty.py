import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pencbo as pc
from pencbo.penalty import controller_step, violation_gibbs, violation_plain_mean


def fresh(beta0=1.0, theta0=4.0, eta_beta=1.1, eta_theta=1.1,
          mode=pc.ControllerMode.INCREASE_ONLY):
    return pc.PenaltyController.fresh(
        beta0=beta0, theta0=theta0, eta_beta=eta_beta, eta_theta=eta_theta, mode=mode
    )


class TestControllerBranches:
    def test_pass_tightens_tolerance_and_holds_beta(self):
        c = fresh(beta0=2.0, theta0=1.0)
        nxt, passed = controller_step(c, 0.5)  # 0.5 <= 1/sqrt(1)
        assert passed
        assert nxt.beta == 2.0
        assert nxt.theta == pytest.approx(1.1)

    def test_boundary_violation_counts_as_pass(self):
        c = fresh(theta0=4.0)  # tolerance exactly 0.5
        nxt, passed = controller_step(c, 0.5)
        assert passed and nxt.beta == c.beta

    def test_fail_raises_beta_and_relaxes_one_notch(self):
        c = pc.PenaltyController(beta=1.0, theta=4.0 * 1.1**3, theta0=4.0)
        nxt, passed = controller_step(c, 10.0)
        assert not passed
        assert nxt.beta == pytest.approx(1.1)
        assert nxt.theta == pytest.approx(4.0 * 1.1**2)
        assert nxt.has_violated

    def test_fail_at_initial_theta_stays_at_floor(self):
        c = fresh(beta0=1.0, theta0=4.0)
        nxt, _ = controller_step(c, 10.0)
        assert nxt.theta == 4.0  # max(4/1.1, 4)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_tolerance_never_relaxes_above_initial(self, outcomes):
        c = fresh(theta0=2.0)
        tol0 = c.tolerance
        for ok in outcomes:
            violation = c.tolerance * (0.5 if ok else 2.0)
            c, passed = controller_step(c, violation)
            assert passed == ok
            assert c.tolerance <= tol0 + 1e-12
            assert c.theta >= c.theta0 - 1e-12

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=100))
    def test_beta_nondecreasing_in_increase_only(self, violations):
        c = fresh(beta0=0.3)
        prev = c.beta
        for v in violations:
            c, _ = controller_step(c, v)
            assert c.beta >= prev
            prev = c.beta

    def test_replay_matches_closed_form_counts(self):
        # beta depends only on the number of failures; theta walks a capped ladder.
        c = fresh(beta0=0.1, theta0=1.0)
        violations = [2.0, 0.1, 0.1, 5.0, 5.0, 0.0]
        fails = 0
        for v in violations:
            c, passed = controller_step(c, v)
            fails += not passed
        assert c.beta == pytest.approx(0.1 * 1.1**fails)


class TestDecreasingMode:
    def test_beta_shrinks_until_first_violation_then_latches(self):
        c = fresh(beta0=8.0, theta0=1.0, eta_beta=2.0,
                  mode=pc.ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION)
        c, passed = controller_step(c, 0.1)
        assert passed and c.beta == 4.0 and not c.has_violated
        c, passed = controller_step(c, 0.2)
        assert passed and c.beta == 2.0
        c, passed = controller_step(c, 50.0)
        assert not passed and c.beta == 4.0 and c.has_violated
        c, passed = controller_step(c, 0.0)
        assert passed and c.beta == 4.0  # no further decrease after the latch

    @given(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=60))
    def test_monotone_down_then_up(self, violations):
        c = fresh(beta0=100.0, theta0=1.0,
                  mode=pc.ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION)
        prev, latched = c.beta, False
        for v in violations:
            c, passed = controller_step(c, v)
            latched = latched or not passed
            if latched:
                assert c.beta >= prev - 1e-15 * prev
            else:
                assert c.beta <= prev
            prev = c.beta


class TestControllerValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            pc.PenaltyController(beta=0.0, theta=1.0, theta0=1.0)
        with pytest.raises(ValueError):
            pc.PenaltyController(beta=1.0, theta=-1.0, theta0=1.0)
        with pytest.raises(ValueError):
            pc.PenaltyController(beta=1.0, theta=1.0, theta0=1.0, eta_beta=1.0)

    def test_rejects_bad_violation(self):
        c = fresh()
        with pytest.raises(ValueError):
            controller_step(c, -0.5)
        with pytest.raises(FloatingPointError):
            controller_step(c, float("nan"))

    def test_tolerance_property(self):
        assert fresh(theta0=16.0).tolerance == pytest.approx(0.25)
        assert fresh(theta0=0.25).tolerance == pytest.approx(2.0)


nonneg = st.floats(0.0, 100.0, allow_nan=False)


class TestViolationEstimators:
    def test_hand_weighted_mean(self):
        # weights exp(-ln 2 * P) with P = (0, 1) give (1, 1/2); mean of r = (0, 1) is 1/3.
        v = violation_gibbs(np.array([0.0, 1.0]), np.array([0.0, 1.0]), math.log(2.0))
        assert v == pytest.approx(1.0 / 3.0)

    def test_single_particle_is_its_penalty(self):
        assert violation_gibbs(np.array([0.7]), np.array([3.0]), 5.0) == pytest.approx(0.7)
        assert violation_plain_mean(np.array([0.7])) == pytest.approx(0.7)

    def test_all_feasible_gives_zero(self):
        r = np.zeros(6)
        assert violation_plain_mean(r) == 0.0
        assert violation_gibbs(r, np.arange(6.0), 1e6) == 0.0

    @given(arrays(np.float64, st.integers(1, 30), elements=nonneg),
           arrays(np.float64, st.integers(1, 30), elements=st.floats(-50, 50)))
    def test_alpha_zero_equals_plain_mean(self, r, merit):
        n = min(len(r), len(merit))
        r, merit = r[:n], merit[:n]
        assert violation_gibbs(r, merit, 0.0) == pytest.approx(
            violation_plain_mean(r), rel=1e-12, abs=1e-12
        )

    @given(arrays(np.float64, st.integers(1, 30), elements=nonneg),
           arrays(np.float64, st.integers(1, 30), elements=st.floats(-50, 50)),
           st.floats(0.0, 1e7))
    def test_weighted_mean_bounded_by_extremes(self, r, merit, alpha):
        n = min(len(r), len(merit))
        r, merit = r[:n], merit[:n]
        v = violation_gibbs(r, merit, alpha)
        assert r.min() - 1e-9 <= v <= r.max() + 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            violation_gibbs(np.zeros(3), np.zeros(4), 1.0)


class TestPenaltyValue:
    def test_affine_in_beta(self):
        problem = pc.make_test1()
        x = np.array([[-2.0], [0.3], [-1.5]])
        p1 = pc.penalty_value(problem, x, 1.0)
        p2 = pc.penalty_value(problem, x, 3.5)
        r = problem.penalty(x)
        np.testing.assert_allclose(p2 - p1, 2.5 * r, rtol=1e-12)

    def test_feasible_value_independent_of_beta(self):
        problem = pc.make_test1()
        x = np.array([[0.0]])
        assert pc.penalty_value(problem, x, 0.1)[0] == pc.penalty_value(problem, x, 100.0)[0]

    def test_known_values(self):
        problem = pc.make_test1()
        assert pc.penalty_value(problem, np.array([[-1.5]]), 7.0)[0] == pytest.approx(5.0125)
        assert problem.objective(np.array([[-2.5]]))[0] == pytest.approx(2.8125)


class TestEnsembleViolationWiring:
    def test_precomputed_values_match_fresh_evaluation(self):
        problem = pc.make_test1()
        rng = np.random.default_rng(0)
        ens = pc.ParticleEnsemble(rng.normal(size=(20, 1)))
        r = problem.penalty(ens.positions)
        j = problem.objective(ens.positions)
        fresh_evaluation = {
            pc.FeasibilityCheck.PLAIN_MEAN: violation_plain_mean(problem.penalty(ens.positions)),
            pc.FeasibilityCheck.GIBBS: violation_gibbs(
                problem.penalty(ens.positions),
                pc.penalty_value(problem, ens.positions, 2.0), 1e6),
        }
        for check in pc.FeasibilityCheck:
            direct = fresh_evaluation[check]
            cached = pc.ensemble_violation(r, j, 2.0, 1e6, check)
            assert direct == cached
