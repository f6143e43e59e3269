import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupsim.errors import DegenerateCurvatureError
from groupsim.special import log_vmf_normalizer
from groupsim.vmf import fit_vmf, vmf_loglik, vmf_tic_penalty

from helpers import (
    inv_bessel_ratio_newton,
    random_rotation,
    sample_vmf,
    uniform_sphere,
    vmf_dense_tic_fd,
    vmf_tic_penalty_polar,
)


class TestFit:
    def test_hand_example_two_dim(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        fit = fit_vmf(x)
        root_half = math.sqrt(0.5)
        np.testing.assert_allclose(fit.mu_hat, [root_half, root_half], atol=1e-12)
        assert fit.r_bar == pytest.approx(root_half, rel=1e-12)
        assert fit.kappa_hat == pytest.approx(root_half * (2 - 0.5) / 0.5, rel=1e-12)
        assert not fit.degenerate

    def test_mu_is_normalised_resultant(self):
        rng = np.random.default_rng(0)
        x = uniform_sphere(rng, 20, 6)
        fit = fit_vmf(x)
        resultant = x.sum(axis=0)
        np.testing.assert_allclose(
            fit.mu_hat, resultant / np.linalg.norm(resultant), atol=1e-9
        )
        assert fit.max_loglik == pytest.approx(
            fit.n * (fit.kappa_hat * fit.r_bar - log_vmf_normalizer(6, fit.kappa_hat)),
            rel=1e-12,
        )

    def test_identical_vectors_clamp(self):
        v = np.array([0.6, 0.8])
        x = np.tile(v, (5, 1))
        fit = fit_vmf(x)
        assert fit.degenerate
        assert fit.r_bar == 1.0 - 1e-7
        assert math.isfinite(fit.kappa_hat)
        assert math.isfinite(fit.max_loglik)

    def test_cancelling_vectors_clamp(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        fit = fit_vmf(x)
        assert fit.degenerate
        assert fit.r_bar == 1e-7
        assert math.isfinite(fit.kappa_hat)

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(42)
        mu = np.zeros(10)
        mu[0] = 1.0
        x = sample_vmf(rng, mu, kappa=10.0, n=50)
        fit = fit_vmf(x)
        assert abs(fit.kappa_hat - 10.0) / 10.0 < 0.25
        assert float(fit.mu_hat @ mu) > 0.95

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            fit_vmf(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_row(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_vmf(np.array([[1.0, 0.0, 0.0], [bad, 0.0, 0.0], [0.0, 1.0, 0.0]]))


class TestLoglik:
    def test_self_evaluation_matches_max(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 8):
            x = uniform_sphere(rng, 12, d)
            fit = fit_vmf(x)
            assert vmf_loglik(fit, x) == pytest.approx(fit.max_loglik, abs=1e-10)

    def test_orthogonal_vector_adds_normalizer_only(self):
        rng = np.random.default_rng(2)
        x = uniform_sphere(rng, 10, 5)
        fit = fit_vmf(x)
        v = rng.standard_normal(5)
        v -= v.dot(fit.mu_hat) * fit.mu_hat
        v /= np.linalg.norm(v)
        extended = np.vstack([x, v])
        delta = vmf_loglik(fit, extended) - vmf_loglik(fit, x)
        assert delta == pytest.approx(-log_vmf_normalizer(5, fit.kappa_hat), abs=1e-10)

    def test_against_naive_summation(self):
        rng = np.random.default_rng(3)
        x = uniform_sphere(rng, 15, 4)
        fit = fit_vmf(x)
        log_z = log_vmf_normalizer(4, fit.kappa_hat)
        naive = sum(fit.kappa_hat * float(w @ fit.mu_hat) - log_z for w in x)
        assert vmf_loglik(fit, x) == pytest.approx(naive, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        fit = fit_vmf(uniform_sphere(rng, 5, 3))
        with pytest.raises(ValueError, match="dimension"):
            vmf_loglik(fit, uniform_sphere(rng, 5, 4))


class TestTicPenalty:
    @pytest.mark.parametrize("d,n,seed", [(3, 5, 0), (3, 20, 1), (5, 12, 2), (4, 8, 3)])
    def test_matches_dense_finite_difference(self, d, n, seed):
        rng = np.random.default_rng(seed)
        x = uniform_sphere(rng, n, d)
        fit = fit_vmf(x)
        closed = vmf_tic_penalty(fit, x)
        dense = vmf_dense_tic_fd(x, fit.mu_hat, fit.kappa_hat)
        assert closed == pytest.approx(dense, rel=1e-3)

    @given(
        d=st.sampled_from([3, 5, 50, 300]),
        n=st.sampled_from([5, 13, 40]),
        concentrated=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # a mean direction with a polar angle within 1e-6 of pi/2, where the chart has a pole
    @example(d=300, n=5, concentrated=True, seed=327618)
    def test_chart_free_equals_polar(self, d, n, concentrated, seed):
        rng = np.random.default_rng(seed)
        if concentrated:
            x = sample_vmf(rng, rng.standard_normal(d), kappa=20.0 * d, n=n)
        else:
            x = uniform_sphere(rng, n, d)
        fit = fit_vmf(x)
        polar = vmf_tic_penalty_polar(x, fit.mu_hat, fit.kappa_hat)
        assert vmf_tic_penalty(fit, x) == pytest.approx(polar, rel=1e-9)

    def test_axis_aligned_mean_needs_no_clamp(self):
        # the polar chart has a pole at this mean direction, the tangent form
        # does not: the penalty equals that of a rotated copy of the bag
        x = np.array([[0.8, 0.6, 0.0], [0.8, -0.6, 0.0], [0.8, 0.0, 0.6], [0.8, 0.0, -0.6]])
        fit = fit_vmf(x)
        np.testing.assert_allclose(fit.mu_hat, [1.0, 0.0, 0.0], atol=1e-15)
        xr = x @ random_rotation(np.random.default_rng(11), 3).T
        fr = fit_vmf(xr)
        assert vmf_tic_penalty(fit, x) == pytest.approx(vmf_tic_penalty(fr, xr), rel=1e-12)
        dense = vmf_dense_tic_fd(xr, fr.mu_hat, fr.kappa_hat)
        assert vmf_tic_penalty(fit, x) == pytest.approx(dense, rel=1e-3)

    def test_degenerate_raises_never_nan(self):
        x = np.tile(np.array([1.0, 0.0, 0.0]), (6, 1))
        fit = fit_vmf(x)
        with pytest.raises(DegenerateCurvatureError):
            vmf_tic_penalty(fit, x)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        x = uniform_sphere(rng, 15, 6)
        fit = fit_vmf(x)
        base = vmf_tic_penalty(fit, x)
        for seed in range(3):
            rot = random_rotation(np.random.default_rng(seed), 6)
            xr = x @ rot.T
            fr = fit_vmf(xr)
            assert vmf_tic_penalty(fr, xr) == pytest.approx(base, abs=1e-6, rel=1e-6)

    def test_nonnegative_on_random_bags(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(3, 25))
            x = uniform_sphere(rng, n, d)
            fit = fit_vmf(x)
            assert vmf_tic_penalty(fit, x) >= 0.0

    def test_mixed_derivatives_vanish_at_fit(self):
        # full-bag mixed second derivatives are multiples of the zero gradient
        rng = np.random.default_rng(9)
        x = uniform_sphere(rng, 10, 4)
        fit = fit_vmf(x)
        kappa_mle = inv_bessel_ratio_newton(4, fit.r_bar)  # the mixed terms vanish at the MLE
        from helpers import sph_to_vec, vec_to_sph

        theta = vec_to_sph(fit.mu_hat)
        h = 1e-5

        def total(theta_vec, kappa):
            return float(
                kappa * (x @ sph_to_vec(theta_vec)).sum()
            ) - x.shape[0] * log_vmf_normalizer(4, kappa)

        for a in range(3):
            for b in range(a + 1, 3):
                pp = theta.copy(); pp[[a, b]] += h
                pm = theta.copy(); pm[a] += h; pm[b] -= h
                mp_ = theta.copy(); mp_[a] -= h; mp_[b] += h
                mm = theta.copy(); mm[[a, b]] -= h
                mixed = (
                    total(pp, kappa_mle)
                    - total(pm, kappa_mle)
                    - total(mp_, kappa_mle)
                    + total(mm, kappa_mle)
                ) / (4 * h * h)
                assert abs(mixed) < 1e-4
        for a in range(3):
            tp = theta.copy(); tp[a] += h
            tm = theta.copy(); tm[a] -= h
            mixed_k = (
                total(tp, kappa_mle + h)
                - total(tm, kappa_mle + h)
                - total(tp, kappa_mle - h)
                + total(tm, kappa_mle - h)
            ) / (4 * h * h)
            assert abs(mixed_k) < 1e-4

    def test_linear_time_scaling(self):
        # doubling n should at most ~2.5x the penalty runtime (coarse)
        rng = np.random.default_rng(10)
        d = 300
        x1 = uniform_sphere(rng, 2000, d)
        x2 = uniform_sphere(rng, 4000, d)
        fit1, fit2 = fit_vmf(x1), fit_vmf(x2)

        def clock(fit, data):
            start = time.perf_counter()
            vmf_tic_penalty(fit, data)
            return time.perf_counter() - start

        clock(fit1, x1)  # warm caches
        t1 = t2 = float("inf")
        for _ in range(7):  # back to back, so a drift in host speed hits both sizes alike
            t1 = min(t1, clock(fit1, x1))
            t2 = min(t2, clock(fit2, x2))
        assert t2 / t1 < 2.5
