import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencbo as pc
from pencbo.problems import (
    ACKLEY_SHIFT,
    PROBLEMS,
    RASTRIGIN2D_SOLUTION,
    rastrigin2d_constraint,
)


class TestTest1:
    def setup_method(self):
        self.problem = pc.make_test1()

    def test_objective_values(self):
        x = np.array([[-1.5], [-2.5], [0.0]])
        np.testing.assert_allclose(
            self.problem.objective(x), [5.0125, 2.8125, 10.0], rtol=1e-12
        )

    def test_penalty_is_lower_bound_distance(self):
        x = np.array([[-2.0], [-1.5], [0.0], [-10.0]])
        np.testing.assert_allclose(self.problem.penalty(x), [0.5, 0.0, 0.0, 8.5])

    def test_solution_and_threshold(self):
        np.testing.assert_allclose(self.problem.known_solution, [-1.5])
        assert self.problem.known_beta_bar == pytest.approx(4.3)
        assert self.problem.penalty(np.array([-1.5])) <= 1e-9
        assert not self.problem.penalty(np.array([-1.6])) <= 1e-9

    def test_threshold_is_exact_merit_transition(self):
        # For beta >= 4.3 the constrained solution minimizes j + beta r globally;
        # just below, the unconstrained basin wins.
        xs = np.linspace(-4.0, 3.0, 10_001)[:, None]
        for beta, at_solution in ((4.3, True), (4.25, False)):
            merit = self.problem.objective(xs) + beta * self.problem.penalty(xs)
            best = xs[np.argmin(merit), 0]
            assert (abs(best - (-1.5)) < 2e-3) == at_solution

    def test_gaussian_default_init(self):
        assert self.problem.init.kind == "gaussian"
        x = pc.initial_positions(0, 4000, 1, self.problem.init)
        assert abs(x.mean()) < 0.1 and abs(x.std() - 1.0) < 0.1


class TestRastrigin2d:
    def setup_method(self):
        self.problem = pc.make_rastrigin2d()

    def test_constraint_is_negative_at_frame_center(self):
        assert rastrigin2d_constraint(np.array([[1.0, 1.0]]))[0] == pytest.approx(-5.0)

    def test_stored_solution_feasible_with_zero_penalty(self):
        x = RASTRIGIN2D_SOLUTION
        assert rastrigin2d_constraint(x[None])[0] <= 0
        assert self.problem.penalty(x[None])[0] == 0.0

    def test_penalty_zero_iff_feasible_on_sample(self):
        # r underestimates the distance to the feasible set, so points
        # within the safety margin of the boundary may read zero; clearly
        # infeasible points must not.
        rng = np.random.default_rng(11)
        x = rng.uniform(-3.0, 3.0, size=(4000, 2))
        g = rastrigin2d_constraint(x)
        r = self.problem.penalty(x)
        np.testing.assert_array_equal(r[g <= 0], 0.0)
        assert np.all(r[g > 1.0] > 0)

    def test_distance_field_zero_exactly_on_feasible_nodes(self):
        # grid node (i, j) is the z-frame point (LO + i h, LO + j h); map it
        # back to x through the inverse rotation and compare with g there
        from pencbo.problems import _GRID_H, _GRID_LO, _GRID_N, _ROT, _SHIFT2D, _distance_field
        rng = np.random.default_rng(13)
        disc = np.arange(_GRID_N // 2 - 80, _GRID_N // 2 + 81)  # around z = (0, 0)
        idx = np.concatenate([
            rng.integers(0, _GRID_N, size=(20000, 2)),
            np.stack(np.meshgrid(disc, disc, indexing="ij"), axis=-1).reshape(-1, 2),
        ])
        x = (_GRID_LO + idx * _GRID_H) @ _ROT + _SHIFT2D
        zero = _distance_field()[idx[:, 0], idx[:, 1]] == 0.0
        feasible = rastrigin2d_constraint(x) <= 0.0
        assert 0 < zero.sum() < len(zero)
        np.testing.assert_array_equal(zero, feasible)

    def test_penalty_underestimates_distance_to_any_feasible_point(self):
        # r approximates dist(x, feasible set) from below, so it can never
        # exceed the distance to one particular feasible point.
        rng = np.random.default_rng(12)
        x = rng.uniform(-6.0, 6.0, size=(2000, 2))
        r = self.problem.penalty(x)
        assert np.all(r <= np.linalg.norm(x - RASTRIGIN2D_SOLUTION, axis=1) + 1e-9)

    def test_penalty_far_outside_grid_grows_with_distance(self):
        far = np.array([[60.0, 60.0]])
        r = self.problem.penalty(far)[0]
        assert r > 50.0

    def test_objective_prefers_unconstrained_minimum(self):
        x_hat = np.array([[-2.3519, -2.3519]])
        assert self.problem.objective(x_hat)[0] < self.problem.objective(
            RASTRIGIN2D_SOLUTION[None]
        )[0]


class TestSurfaceProblems:
    @pytest.mark.parametrize("factory", [
        pc.make_j1_sphere, pc.make_j2_sphere, pc.make_j1_torus, pc.make_j2_torus,
    ])
    def test_stored_solution_is_on_surface(self, factory):
        problem = factory()
        x = problem.known_solution
        assert problem.penalty(x[None])[0] <= 1e-9

    @pytest.mark.parametrize("factory", [
        pc.make_j1_sphere, pc.make_j2_sphere, pc.make_j1_torus, pc.make_j2_torus,
    ])
    def test_stored_solution_is_surface_minimizer_nearby(self, factory):
        # Random on-surface perturbations never beat the stored point.
        problem = factory()
        x = problem.known_solution
        rng = np.random.default_rng(5)
        base = problem.objective(x[None])[0]
        for _ in range(200):
            y = x + 0.15 * rng.normal(size=5)
            if "sphere" in problem.name:
                y = y / np.linalg.norm(y)
            else:
                ring = y[:4] / max(np.linalg.norm(y[:4]), 1e-12)
                center = ring  # nearest point on the unit circle in the first block
                radial = y[:4] - center
                scale = 0.5 / max(np.hypot(np.linalg.norm(radial), y[4]), 1e-12)
                y = np.concatenate([center + radial * scale, [y[4] * scale]])
            assert problem.penalty(y[None])[0] <= 1e-6
            assert problem.objective(y[None])[0] >= base - 1e-9

    def test_sphere_penalty_values(self):
        problem = pc.make_j1_sphere()
        x = np.zeros((2, 5))
        x[1, 0] = 2.0
        np.testing.assert_allclose(problem.penalty(x), [1.0, 1.0])

    def test_torus_penalty_on_ring(self):
        problem = pc.make_j1_torus()
        on_torus = np.array([[1.5, 0.0, 0.0, 0.0, 0.0]])
        assert problem.penalty(on_torus)[0] == pytest.approx(0.0, abs=1e-12)
        center_ring = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        assert problem.penalty(center_ring)[0] == pytest.approx(0.5)

    def test_ackley_zero_at_shift(self):
        problem = pc.make_j2_sphere()
        shift = np.array(ACKLEY_SHIFT)
        assert problem.objective(shift[None])[0] == pytest.approx(0.0, abs=1e-12)

    def test_ackley_dimension_restriction(self):
        with pytest.raises(ValueError):
            pc.make_j2()(np.zeros((2, 4)))


class TestRegistryAndInit:
    def test_registry_contents(self):
        assert set(PROBLEMS) == {
            "test1", "rastrigin2d", "j1-sphere", "j2-sphere", "j1-torus", "j2-torus",
        }
        for name, factory in PROBLEMS.items():
            problem = factory()
            assert problem.name == name
            assert problem.dim in (1, 2, 5)

    def test_problem_rowwise_and_single_point_agree(self):
        for factory in PROBLEMS.values():
            problem = factory()
            rng = np.random.default_rng(1)
            xs = rng.uniform(-2, 2, size=(7, problem.dim))
            batch_j = problem.objective(xs)
            batch_r = problem.penalty(xs)
            for i, x in enumerate(xs):
                assert problem.objective(x[None])[0] == batch_j[i]
                assert problem.penalty(x[None])[0] == batch_r[i]

    @given(st.floats(-5, 5), st.floats(0.1, 3))
    @settings(max_examples=20)
    def test_gaussian_init_spec(self, mean, std):
        spec = pc.InitSpec.gaussian(mean, std)
        x = pc.initial_positions(3, 2000, 2, spec)
        assert abs(x.mean() - mean) < 0.2 * std + 0.05

    def test_uniform_init_spec_bounds(self):
        spec = pc.InitSpec.uniform(-2.0, 3.0)
        x = pc.initial_positions(4, 1000, 3, spec)
        assert x.min() >= -2.0 and x.max() <= 3.0

    def test_penalties_are_nonnegative_everywhere(self):
        rng = np.random.default_rng(9)
        for factory in PROBLEMS.values():
            problem = factory()
            x = rng.uniform(-8, 8, size=(500, problem.dim))
            assert np.all(problem.penalty(x) >= 0)
