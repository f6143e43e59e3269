import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.comparison import DIAG, aic_param_count, bag_criteria
from groupsim.gaussian import DIAGONAL, SPHERICAL, VAR_FLOOR, moment_fit, moments
from groupsim.special import LOG_2PI

from helpers import gaussian_dense_tic, gaussian_loglik, spherical_dense_tic


def fit_one(x, kind=DIAGONAL):
    """(max loglik, variances, kurtoses, floored dims) of one bag: a batch of
    one of :func:`moment_fit`; a spherical fit's variance and kurtosis have
    shape (1,)."""
    loglik, var, kurt, floored = moment_fit(moments(x), kind)
    return float(loglik[0]), var[0], kurt[0], int(floored[0])


def tic(x, kind=DIAGONAL) -> float:
    """One bag's "tic" penalty, as the scoring path takes it."""
    return float(bag_criteria(DIAG if kind == DIAGONAL else SPHERICAL, "tic", [(x,)])[1][0])


class TestFit:
    def test_hand_example(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]])
        loglik, var, kurt, _ = fit_one(x)
        np.testing.assert_allclose(moments(x).mean[0], [1.0, 1.0])
        np.testing.assert_allclose(var, [1.0, 1.0])
        np.testing.assert_allclose(kurt, [1.0, 1.0])
        assert loglik == pytest.approx(-2.0 * (LOG_2PI + 1.0), rel=1e-12)

    def test_identical_points_floor(self):
        loglik, var, _, floored = fit_one(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert floored == 2
        np.testing.assert_allclose(var, [VAR_FLOOR, VAR_FLOOR])
        assert math.isfinite(loglik)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10_000, 10))
        _, var, kurt, _ = fit_one(x)
        assert np.all(var > 0.9) and np.all(var < 1.1)
        assert np.all(kurt > 2.7) and np.all(kurt < 3.3)

    def test_max_loglik_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((13, 4)) * rng.uniform(0.5, 2.0, size=4)
        n = x.shape[0]
        for kind in (DIAGONAL, SPHERICAL):
            loglik, var, _, _ = fit_one(x, kind)
            log_det = float(np.log(np.broadcast_to(var, (4,))).sum())
            expected = -0.5 * n * log_det - 0.5 * n * 4 * (LOG_2PI + 1.0)
            assert loglik == pytest.approx(expected, abs=1e-9)

    def test_spherical_pools(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 3))
        _, var, kurt, _ = fit_one(x, SPHERICAL)
        assert var.shape == kurt.shape == (1,)
        dev = x - x.mean(axis=0)
        assert var[0] == pytest.approx(float((dev**2).mean()), rel=1e-12)

    def test_kurtosis_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 30)), 3))
            _, _, kurt, _ = fit_one(x)
            assert np.all(kurt >= 1.0 - 1e-9)

    def test_param_counts(self):
        assert aic_param_count(DIAG, 5) == 10
        assert aic_param_count(SPHERICAL, 5) == 6

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            fit_one(np.zeros((3, 2)), kind="full")


class TestLoglik:
    def test_self_evaluation_matches_max(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((11, 6))
        mu = moments(x).mean[0]
        for kind in (DIAGONAL, SPHERICAL):
            loglik, var, _, _ = fit_one(x, kind)
            assert gaussian_loglik(mu, var, x) == pytest.approx(loglik, abs=1e-9)

    def test_single_point_at_mean_unit_variance(self):
        x = np.array([[0.7], [0.7]])
        got = gaussian_loglik(np.array([0.7]), np.array([1.0]), x)
        assert got == pytest.approx(2 * (-0.5 * LOG_2PI), rel=1e-12)

    def test_against_naive_per_point(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3)) + 2.0
        mu = moments(x).mean[0]
        _, var, _, _ = fit_one(x)
        naive = 0.0
        for row in x:
            for k in range(3):
                naive += -0.5 * (math.log(2 * math.pi * var[k]) + (row[k] - mu[k]) ** 2 / var[k])
        assert gaussian_loglik(mu, var, x) == pytest.approx(naive, abs=1e-10)

    def test_dimension_mismatch(self):
        x = np.zeros((2, 3)) + [[0.0, 0, 0], [1, 1, 1]]
        _, var, _, _ = fit_one(x)
        with pytest.raises(ValueError, match="dimension"):
            gaussian_loglik(moments(x).mean[0], var, np.zeros((2, 4)))


class TestTicPenalty:
    def test_hand_example(self):
        assert tic(np.array([[0.0, 0.0], [2.0, 2.0]])) == pytest.approx(2.0, rel=1e-12)

    def test_large_sample_approaches_param_count(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10_000, 10))
        penalty = tic(x)
        assert abs(penalty - 20.0) / 20.0 < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((20, 3)) * rng.uniform(0.5, 3.0, size=3) + rng.uniform(
            -2, 2, size=3
        )
        assert tic(x) == pytest.approx(gaussian_dense_tic(x), rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_spherical_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((25, 4)) * 1.7
        assert tic(x, SPHERICAL) == pytest.approx(spherical_dense_tic(x), rel=1e-6)

    def test_spherical_large_sample_approaches_param_count(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20_000, 6))
        penalty = tic(x, SPHERICAL)
        assert abs(penalty - 7.0) / 7.0 < 0.05


class TestInvarianceProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10, 4))
        shift = rng.uniform(-5, 5, size=4)
        loglik, var, kurt, _ = fit_one(x)
        loglik_shifted, var_shifted, kurt_shifted, _ = fit_one(x + shift)
        np.testing.assert_allclose(var_shifted, var, atol=1e-9)
        np.testing.assert_allclose(kurt_shifted, kurt, atol=1e-9)
        assert loglik_shifted == pytest.approx(loglik, abs=1e-9)
        assert tic(x + shift) == pytest.approx(tic(x), abs=1e-9)

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
        loglik, _, kurt, _ = fit_one(x)
        loglik_scaled, _, kurt_scaled, _ = fit_one(scaled)
        assert kurt_scaled[1] == pytest.approx(kurt[1], rel=1e-9)
        assert loglik_scaled - loglik == pytest.approx(-12 * math.log(c), abs=1e-7)
