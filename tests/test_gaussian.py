import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.comparison import DIAG, aic_param_count
from groupsim.gaussian import (
    DIAGONAL,
    SPHERICAL,
    VAR_FLOOR,
    GaussianFit,
    fit_gaussian,
    gaussian_tic_penalty,
)
from groupsim.special import LOG_2PI

from helpers import gaussian_dense_tic, gaussian_loglik, spherical_dense_tic


class TestFit:
    def test_hand_example(self):
        fit = fit_gaussian(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(fit.mu_hat, [1.0, 1.0])
        np.testing.assert_allclose(fit.var_hat, [1.0, 1.0])
        np.testing.assert_allclose(fit.kurt_hat, [1.0, 1.0])
        assert fit.max_loglik == pytest.approx(-2.0 * (LOG_2PI + 1.0), rel=1e-12)

    def test_identical_points_floor(self):
        fit = fit_gaussian(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert fit.floored_dims == 2
        np.testing.assert_allclose(fit.var_hat, [VAR_FLOOR, VAR_FLOOR])
        assert math.isfinite(fit.max_loglik)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10_000, 10))
        fit = fit_gaussian(x)
        assert np.all(fit.var_hat > 0.9) and np.all(fit.var_hat < 1.1)
        assert np.all(fit.kurt_hat > 2.7) and np.all(fit.kurt_hat < 3.3)

    def test_max_loglik_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((13, 4)) * rng.uniform(0.5, 2.0, size=4)
        for kind in (DIAGONAL, SPHERICAL):
            fit = fit_gaussian(x, kind=kind)
            expected = -0.5 * fit.n * float(np.log(fit.var_hat).sum()) - 0.5 * fit.n * 4 * (
                LOG_2PI + 1.0
            )
            assert fit.max_loglik == pytest.approx(expected, abs=1e-9)

    def test_spherical_pools(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 3))
        fit = fit_gaussian(x, kind=SPHERICAL)
        assert np.unique(fit.var_hat).size == 1
        dev = x - x.mean(axis=0)
        assert fit.var_hat[0] == pytest.approx(float((dev**2).mean()), rel=1e-12)

    def test_kurtosis_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 30)), 3))
            fit = fit_gaussian(x)
            assert np.all(fit.kurt_hat >= 1.0 - 1e-9)

    def test_param_counts(self):
        assert aic_param_count(DIAG, 5) == 10
        assert aic_param_count(SPHERICAL, 5) == 6

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.zeros((3, 2)), kind="full")


class TestLoglik:
    def test_self_evaluation_matches_max(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((11, 6))
        for kind in (DIAGONAL, SPHERICAL):
            fit = fit_gaussian(x, kind=kind)
            assert gaussian_loglik(fit, x) == pytest.approx(fit.max_loglik, abs=1e-9)

    def test_single_point_at_mean_unit_variance(self):
        fit = GaussianFit(
            kind=DIAGONAL,
            mu_hat=np.array([0.7]),
            var_hat=np.array([1.0]),
            kurt_hat=np.array([3.0]),
            n=1,
            max_loglik=0.0,
        )
        x = np.array([[0.7], [0.7]])
        assert gaussian_loglik(fit, x[:1].repeat(2, axis=0)) == pytest.approx(
            2 * (-0.5 * LOG_2PI), rel=1e-12
        )

    def test_against_naive_per_point(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3)) + 2.0
        fit = fit_gaussian(x)
        naive = 0.0
        for row in x:
            for k in range(3):
                naive += -0.5 * (
                    math.log(2 * math.pi * fit.var_hat[k])
                    + (row[k] - fit.mu_hat[k]) ** 2 / fit.var_hat[k]
                )
        assert gaussian_loglik(fit, x) == pytest.approx(naive, abs=1e-10)

    def test_dimension_mismatch(self):
        fit = fit_gaussian(np.zeros((2, 3)) + [[0.0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError, match="dimension"):
            gaussian_loglik(fit, np.zeros((2, 4)))


class TestTicPenalty:
    def test_hand_example(self):
        fit = fit_gaussian(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert gaussian_tic_penalty(fit) == pytest.approx(2.0, rel=1e-12)

    def test_large_sample_approaches_param_count(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10_000, 10))
        penalty = gaussian_tic_penalty(fit_gaussian(x))
        assert abs(penalty - 20.0) / 20.0 < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 3)) * rng.uniform(0.5, 3.0, size=3) + rng.uniform(
            -2, 2, size=3
        )
        fit = fit_gaussian(x)
        assert gaussian_tic_penalty(fit) == pytest.approx(gaussian_dense_tic(x), rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_spherical_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((25, 4)) * 1.7
        fit = fit_gaussian(x, kind=SPHERICAL)
        assert gaussian_tic_penalty(fit) == pytest.approx(spherical_dense_tic(x), rel=1e-6)

    def test_spherical_large_sample_approaches_param_count(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20_000, 6))
        penalty = gaussian_tic_penalty(fit_gaussian(x, kind=SPHERICAL))
        assert abs(penalty - 7.0) / 7.0 < 0.05


class TestInvarianceProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10, 4))
        shift = rng.uniform(-5, 5, size=4)
        fit = fit_gaussian(x)
        fit_shifted = fit_gaussian(x + shift)
        np.testing.assert_allclose(fit_shifted.var_hat, fit.var_hat, atol=1e-9)
        np.testing.assert_allclose(fit_shifted.kurt_hat, fit.kurt_hat, atol=1e-9)
        assert fit_shifted.max_loglik == pytest.approx(fit.max_loglik, abs=1e-9)
        assert gaussian_tic_penalty(fit_shifted) == pytest.approx(
            gaussian_tic_penalty(fit), abs=1e-9
        )

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_dimension_scale(self, seed, c):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 3))
        scaled = x.copy()
        scaled[:, 1] *= c
        fit = fit_gaussian(x)
        fit_scaled = fit_gaussian(scaled)
        assert fit_scaled.kurt_hat[1] == pytest.approx(fit.kurt_hat[1], rel=1e-9)
        assert fit_scaled.max_loglik - fit.max_loglik == pytest.approx(
            -12 * math.log(c), abs=1e-7
        )
