import itertools
import json

import numpy as np
import pytest

import pencbo as pc
from pencbo.qp import QpInstance, make_random_qp


def solve_by_active_set_enumeration(inst: QpInstance) -> np.ndarray:
    """Independent reference solver for small instances.

    Minimize 0.5 x'Ax - b'x subject to H'x + h0 = 0 and x >= 0 by trying
    every subset of active bounds: fix x_S = 0, solve the equality-
    constrained KKT system for the rest, and keep the best candidate that
    is primal feasible with nonnegative bound multipliers.
    """
    d, p = inst.d, inst.p
    best, best_val = None, np.inf
    for active in itertools.chain.from_iterable(
        itertools.combinations(range(d), k) for k in range(d + 1)
    ):
        active = list(active)
        free = [i for i in range(d) if i not in active]
        # unknowns: x_free, equality multipliers nu, bound multipliers mu_active
        n_unk = len(free) + p + len(active)
        m = np.zeros((n_unk, n_unk))
        rhs = np.zeros(n_unk)
        nf = len(free)
        # stationarity A x + H nu - mu = b with x_active = 0, mu_free = 0
        a_ff = inst.A[np.ix_(free, free)]
        a_af = inst.A[np.ix_(active, free)]
        m[:nf, :nf] = a_ff
        m[:nf, nf:nf + p] = inst.H[free, :]
        rhs[:nf] = inst.b[free]
        # stationarity rows for active coordinates determine mu_active
        m[nf + p:, :nf] = a_af
        m[nf + p:, nf:nf + p] = inst.H[active, :]
        m[nf + p:, nf + p:] = -np.eye(len(active))
        rhs[nf + p:] = inst.b[active]
        # equality constraints H'x + h0 = 0 on the free block
        m[nf:nf + p, :nf] = inst.H[free, :].T
        rhs[nf:nf + p] = -inst.h0
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            continue
        x = np.zeros(d)
        x[free] = sol[:nf]
        mu_active = sol[nf + p:]
        if np.any(x[free] < -1e-10) or np.any(mu_active < -1e-10):
            continue
        if np.max(np.abs(inst.H.T @ x + inst.h0)) > 1e-8:
            continue
        val = 0.5 * x @ inst.A @ x - inst.b @ x
        if val < best_val - 1e-12:
            best_val, best = val, x
    assert best is not None, "enumeration found no feasible stationary point"
    return best


class TestOracleEquivalence:
    def test_enumeration_recovers_stored_solution_d2(self):
        for seed in range(50):
            _, inst = make_random_qp(2, seed)
            x = solve_by_active_set_enumeration(inst)
            np.testing.assert_allclose(x, inst.x_star, atol=1e-6)

    def test_enumeration_recovers_stored_solution_d4(self):
        for seed in range(10):
            _, inst = make_random_qp(4, seed)
            x = solve_by_active_set_enumeration(inst)
            np.testing.assert_allclose(x, inst.x_star, atol=1e-6)


class TestInstanceConstruction:
    def test_validate_accepts_generated_instances(self):
        for d in (2, 5, 10, 15):
            _, inst = make_random_qp(d, 3)
            inst.validate()

    def test_dimensions(self):
        _, inst = make_random_qp(10, 0)
        assert inst.d == 10 and inst.p == 5
        assert inst.A.shape == (10, 10)
        assert inst.H.shape == (10, 5)
        assert inst.h0.shape == (5,)

    def test_matrix_is_spd(self):
        _, inst = make_random_qp(8, 1)
        np.testing.assert_allclose(inst.A, inst.A.T)
        assert np.all(np.linalg.eigvalsh(inst.A) >= 1.0 - 1e-9)

    def test_solution_satisfies_kkt(self):
        _, inst = make_random_qp(7, 2)
        mu = inst.bound_multipliers()
        np.testing.assert_allclose(
            inst.A @ inst.x_star - inst.b + inst.H @ inst.multipliers, mu, atol=1e-12
        )
        assert np.all(mu >= -1e-12)
        assert np.all(inst.x_star >= 0)
        np.testing.assert_allclose(inst.H.T @ inst.x_star + inst.h0, 0, atol=1e-12)
        # complementarity: every coordinate has either x = 0 or mu = 0
        assert np.all(np.minimum(inst.x_star, mu) <= 1e-12)

    def test_some_bounds_are_active(self):
        _, inst = make_random_qp(12, 4)
        assert np.sum(inst.x_star == 0.0) == 3  # ceil(12 / 4)

    def test_same_seed_reproduces_instance(self):
        _, a = make_random_qp(6, 9)
        _, b = make_random_qp(6, 9)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.x_star, b.x_star)

    def test_different_seeds_differ(self):
        _, a = make_random_qp(6, 0)
        _, b = make_random_qp(6, 1)
        assert not np.array_equal(a.x_star, b.x_star)


class TestProblemWrapper:
    def test_penalty_zero_exactly_at_solution(self):
        problem, inst = make_random_qp(9, 5)
        assert problem.penalty(inst.x_star[None])[0] <= 1e-12
        assert problem.penalty(inst.x_star) <= 1e-9

    def test_penalty_positive_off_constraints(self):
        problem, inst = make_random_qp(5, 6)
        x = inst.x_star + 0.3
        assert problem.penalty(x[None])[0] > 0  # equality rows now violated

    def test_penalty_includes_bound_violation(self):
        problem, inst = make_random_qp(5, 7)
        x = np.zeros((1, 5))
        x[0] = inst.x_star
        x[0, 0] -= 1.0
        r_shifted = problem.penalty(x)[0]
        base = problem.penalty(inst.x_star[None])[0]
        assert r_shifted >= base + 1.0 - 1e-9  # the negative part alone adds 1

    def test_batch_objective_matches_loop(self):
        problem, inst = make_random_qp(6, 8)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(11, 6))
        batch = problem.objective(xs)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(0.5 * x @ inst.A @ x - inst.b @ x, rel=1e-12)

    def test_beta_bar_is_largest_multiplier(self):
        problem, inst = make_random_qp(10, 0)
        expected = max(np.max(np.abs(inst.multipliers)), np.max(inst.bound_multipliers()))
        assert problem.known_beta_bar == pytest.approx(expected)

    def test_merit_prefers_solution_above_threshold(self):
        problem, inst = make_random_qp(6, 11)
        rng = np.random.default_rng(2)
        beta = 4.0 * problem.known_beta_bar + 1.0
        xs = np.vstack([inst.x_star[None], inst.x_star + 0.5 * rng.normal(size=(500, 6))])
        merit = problem.objective(xs) + beta * problem.penalty(xs)
        assert np.argmin(merit) == 0


class TestSerialization:
    def test_json_round_trip_is_exact(self, tmp_path):
        _, inst = make_random_qp(7, 13)
        path = tmp_path / "instance.json"
        path.write_text(inst.to_json())
        back = QpInstance.from_json(path.read_text())
        np.testing.assert_array_equal(inst.A, back.A)
        np.testing.assert_array_equal(inst.b, back.b)
        np.testing.assert_array_equal(inst.H, back.H)
        np.testing.assert_array_equal(inst.h0, back.h0)
        np.testing.assert_array_equal(inst.x_star, back.x_star)
        np.testing.assert_array_equal(inst.multipliers, back.multipliers)

    def test_json_payload_is_plain_data(self):
        _, inst = make_random_qp(3, 0)
        payload = json.loads(inst.to_json())
        assert set(payload) >= {"A", "b", "H", "h0", "x_star", "multipliers"}
