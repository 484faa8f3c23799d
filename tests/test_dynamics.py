import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pencbo as pc
from pencbo.dynamics import _hull, _row_sum, consensus_raw

finite_floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def positions_and_values(max_n=12, max_d=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: st.tuples(
                arrays(np.float64, (n, d), elements=finite_floats),
                arrays(np.float64, (n,), elements=finite_floats),
            )
        )
    )


class TestConsensus:
    @given(positions_and_values(), st.floats(0.0, 1e8))
    def test_consensus_inside_coordinate_hull(self, pv, alpha):
        positions, values = pv
        point = consensus_raw(positions, values, alpha)
        lo, hi = positions.min(axis=0), positions.max(axis=0)
        assert np.all(point >= lo - 1e-9 * (1 + np.abs(lo)))
        assert np.all(point <= hi + 1e-9 * (1 + np.abs(hi)))

    @given(positions_and_values(), st.floats(0.0, 100.0),
           arrays(np.float64, (4,), elements=finite_floats))
    def test_translation_equivariance(self, pv, alpha, shift):
        positions, values = pv
        shift = shift[: positions.shape[1]]
        base = consensus_raw(positions, values, alpha)
        moved = consensus_raw(positions + shift, values, alpha)
        np.testing.assert_allclose(moved, base + shift, rtol=1e-9, atol=1e-9)

    def test_alpha_zero_is_plain_mean(self):
        rng = np.random.default_rng(3)
        positions = rng.normal(size=(40, 3))
        values = rng.normal(size=40)
        point = consensus_raw(positions, values, 0.0)
        np.testing.assert_allclose(point, positions.mean(axis=0), rtol=1e-12)

    def test_large_alpha_selects_argmin(self):
        rng = np.random.default_rng(4)
        positions = rng.normal(size=(30, 2))
        values = rng.normal(size=30)
        point = consensus_raw(positions, values, 1e8)
        np.testing.assert_allclose(point, positions[np.argmin(values)], atol=1e-6)

    def test_extreme_values_do_not_overflow(self):
        positions = np.array([[0.0], [1.0]])
        values = np.array([1e6, -1e6])
        point = consensus_raw(positions, values, 1e6)
        assert np.isfinite(point).all()
        np.testing.assert_allclose(point, [1.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spread_weighs_zero_without_warning(self):
        values = np.array([0.0, 1e303])
        point = consensus_raw(np.array([[2.0], [5.0]]), values, 1e6)
        np.testing.assert_array_equal(point, [2.0])
        violation = pc.ensemble_violation(np.array([3.0, 7.0]), values, 0.0, 1e6,
                                          pc.FeasibilityCheck.GIBBS)
        assert violation == 3.0

    @pytest.mark.filterwarnings("error")
    def test_alpha_zero_is_the_mean_whatever_the_spread(self):
        point = consensus_raw(np.array([[0.0], [1.0]]), np.array([1e308, -1e308]), 0.0)
        np.testing.assert_array_equal(point, [0.5])

    def test_consensus_point_wraps_ensemble(self):
        ens = pc.ParticleEnsemble(np.array([[0.0, 0.0], [2.0, 2.0]]))
        point = pc.consensus_raw(ens.positions, np.array([0.0, 0.0]), 0.0)
        np.testing.assert_allclose(point, [1.0, 1.0])


def mixed_rows(n, d, seed):
    """(n, d) rows of mixed sign and magnitudes 1e-8..1e8, with +-0.0 entries
    scattered in and a few rows of -0.0 only."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, d))
    zero = rng.random((n, d)) < 0.2
    a[zero] = rng.choice([-0.0, 0.0], size=zero.sum())
    a[:3] = -0.0
    return a


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestColumnForms:
    """The by-column reductions give numpy's axis forms bit for bit."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_row_sum_is_sum_over_axis_1(self, d):
        a = mixed_rows(5000, d, seed=d)
        assert same_bits(_row_sum(a), np.sum(a, axis=1))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_root_of_row_sum_of_squares_is_norm(self, d):
        x = mixed_rows(5000, d, seed=10 + d)
        assert same_bits(np.sqrt(_row_sum(x * x)), np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("n", [1, 7, 5000])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_hull_is_min_and_max_over_axis_0(self, n, d):
        positions = mixed_rows(n, d, seed=100 * n + d)
        lo, hi = _hull(positions)
        assert same_bits(lo, positions.min(axis=0))
        assert same_bits(hi, positions.max(axis=0))


class TestEnsemble:
    def test_positions_copied_and_readonly(self):
        raw = np.zeros((3, 2))
        ens = pc.ParticleEnsemble(raw)
        raw[0, 0] = 5.0
        assert ens.positions[0, 0] == 0.0
        with pytest.raises(ValueError):
            ens.positions[0, 0] = 1.0

    def test_nonfinite_position_names_the_particle(self):
        bad = np.zeros((4, 3))
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="particle 2"):
            pc.ParticleEnsemble(bad)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pc.ParticleEnsemble(np.zeros(5))
        with pytest.raises(ValueError):
            pc.ParticleEnsemble(np.zeros((0, 2)))


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pc.CboParams(lam=-1.0, sigma=1.0, dt=0.1)
        with pytest.raises(ValueError):
            pc.CboParams(lam=1.0, sigma=1.0, dt=0.0)

    def test_decay_condition(self):
        p = pc.CboParams(lam=1.0, sigma=0.5, dt=0.01)
        assert p.decay_condition_holds(3)          # 2 > 3 * 0.25
        assert not p.decay_condition_holds(9)      # 2 < 9 * 0.25
        aniso = pc.CboParams(lam=1.0, sigma=0.5, dt=0.01,
                             diffusion=pc.DiffusionKind.ANISOTROPIC)
        assert aniso.decay_condition_holds(9)      # dimension-free: 2 > 0.25


class TestStep:
    def test_zero_noise_full_drift_lands_on_consensus(self):
        ens = pc.ParticleEnsemble(np.array([[1.0, 2.0], [-3.0, 0.5]]))
        params = pc.CboParams(lam=1.0, sigma=1.0, dt=1.0)
        point = np.array([0.25, -0.75])
        out = pc.euler_maruyama_step(ens, point, params, np.zeros((2, 2)))
        np.testing.assert_allclose(out.positions, np.broadcast_to(point, (2, 2)))

    def test_sigma_zero_contracts_geometrically(self):
        ens = pc.ParticleEnsemble(np.array([[4.0], [-2.0]]))
        params = pc.CboParams(lam=1.0, sigma=0.0, dt=0.25)
        point = np.array([1.0])
        out = pc.euler_maruyama_step(ens, point, params, np.zeros((2, 1)))
        np.testing.assert_allclose(
            out.positions, 0.75 * (ens.positions - point) + point, rtol=1e-12
        )

    @staticmethod
    def noise_scales(particle, kind):
        # with no drift, unit noise and unit step the move is the noise scale
        params = pc.CboParams(lam=0.0, sigma=1.0, dt=1.0, diffusion=kind)
        ens = pc.ParticleEnsemble(np.array([particle]))
        out = pc.euler_maruyama_step(ens, np.zeros(len(particle)), params,
                                     np.ones((1, len(particle))))
        return (out.positions - ens.positions)[0]

    def test_isotropic_noise_scale_is_distance(self):
        scales = self.noise_scales([3.0, 4.0], pc.DiffusionKind.ISOTROPIC)
        np.testing.assert_allclose(scales, [5.0, 5.0])

    def test_anisotropic_noise_scale_is_componentwise(self):
        scales = self.noise_scales([3.0, -4.0], pc.DiffusionKind.ANISOTROPIC)
        np.testing.assert_allclose(scales, [3.0, 4.0])

    @pytest.mark.parametrize("kind", list(pc.DiffusionKind))
    def test_per_row_targets_match_separate_steps(self, kind):
        rng = np.random.default_rng(6)
        positions = rng.normal(size=(6, 3))
        noise = rng.normal(size=(6, 3))
        params = pc.CboParams(lam=0.8, sigma=0.9, dt=0.1, diffusion=kind)
        points = rng.normal(size=(2, 3))
        targets = np.repeat(points, 3, axis=0)
        targets[5] = positions[5]  # a row aimed at itself
        out = pc.euler_maruyama_step(pc.ParticleEnsemble(positions), targets, params, noise)
        for rows, point in ((slice(0, 3), points[0]), (slice(3, 5), points[1])):
            alone = pc.euler_maruyama_step(
                pc.ParticleEnsemble(positions[rows]), point, params, noise[rows])
            np.testing.assert_array_equal(out.positions[rows], alone.positions)
        np.testing.assert_array_equal(out.positions[5], positions[5])

    def test_target_shape_is_checked(self):
        ens = pc.ParticleEnsemble(np.zeros((4, 2)))
        params = pc.CboParams()
        with pytest.raises(ValueError, match="consensus must have shape"):
            pc.euler_maruyama_step(ens, np.zeros((2, 2)), params, np.zeros((4, 2)))

    def test_step_isotropic_vs_anisotropic_scaling(self):
        positions = np.array([[3.0, 4.0]])
        noise = np.array([[1.0, 1.0]])
        point = np.zeros(2)
        iso = pc.CboParams(lam=0.0, sigma=1.0, dt=1.0)
        aniso = pc.CboParams(lam=0.0, sigma=1.0, dt=1.0,
                             diffusion=pc.DiffusionKind.ANISOTROPIC)
        out_iso = pc.euler_maruyama_step(pc.ParticleEnsemble(positions), point, iso, noise)
        out_aniso = pc.euler_maruyama_step(pc.ParticleEnsemble(positions), point, aniso, noise)
        np.testing.assert_allclose(out_iso.positions, [[8.0, 9.0]])    # + 5 * 1
        np.testing.assert_allclose(out_aniso.positions, [[6.0, 8.0]])  # + |x - c| * 1

    def test_consensus_particle_never_moves_without_noise(self):
        positions = np.array([[1.0, 1.0], [5.0, 5.0]])
        ens = pc.ParticleEnsemble(positions)
        params = pc.CboParams(lam=1.0, sigma=3.0, dt=0.1)
        noise = np.ones((2, 2))
        out = pc.euler_maruyama_step(ens, positions[0], params, noise)
        np.testing.assert_allclose(out.positions[0], positions[0])

    def test_blowup_raises_floating_point_error(self):
        ens = pc.ParticleEnsemble(np.array([[1e308], [0.0]]))
        params = pc.CboParams(lam=1.0, sigma=1e10, dt=0.1)
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="particle"):
                pc.euler_maruyama_step(ens, np.array([0.0]), params, np.full((2, 1), 1e10))

    @given(st.integers(0, 2**31 - 1))
    def test_step_is_deterministic_in_inputs(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(6, 2))
        noise = rng.normal(size=(6, 2))
        ens = pc.ParticleEnsemble(positions)
        params = pc.CboParams(lam=0.7, sigma=0.9, dt=0.05)
        point = positions.mean(axis=0)
        a = pc.euler_maruyama_step(ens, point, params, noise)
        b = pc.euler_maruyama_step(ens, point, params, noise)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestVariance:
    def test_hand_value(self):
        v = pc.variance_functional(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        assert v == pytest.approx(0.5)  # (1 + 1) / (2 * 2)

    def test_zero_at_reference(self):
        assert pc.variance_functional(np.full((5, 3), 2.0), np.full(3, 2.0)) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_rows_give_inf_without_warning(self):
        # 1e200 squared overflows; V records inf instead of warning
        assert pc.variance_functional(np.full((4, 2), 1e200), np.zeros(2)) == np.inf
