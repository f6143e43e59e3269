import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.special import (
    LOG_2PI,
    bessel_ratio,
    inv_bessel_ratio,
    log_multivariate_gamma,
    log_vmf_normalizer,
    vmf_kernels,
)

from helpers import bessel_ratio_mp, bessel_ratio_slope_mp, log_vmf_normalizer_mp

# (d, kappa) spanning both branches: short and long recurrences, Hankel sums
REGIMES = [(2, 1e-6), (2, 3e4), (5, 12.0), (17, 9000.0), (300, 1.0), (300, 2.5e6),
           (2048, 1e6), (4, 1e9)]


class TestBesselRatio:
    def test_half_order_closed_form(self):
        # A_3(kappa) = coth(kappa) - 1/kappa
        for kappa in (0.25, 1.0, 5.0, 50.0):
            expected = 1.0 / math.tanh(kappa) - 1.0 / kappa
            assert bessel_ratio(3, kappa) == pytest.approx(expected, rel=1e-12)

    def test_zero_argument(self):
        for d in (2, 3, 10, 300):
            assert bessel_ratio(d, 0.0) == 0.0

    def test_high_dimension_against_mp(self):
        val = bessel_ratio(300, 200.0)
        ref = bessel_ratio_mp(300, 200.0)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("d,kappa", REGIMES)
    def test_matches_mp_across_regimes(self, d, kappa):
        assert bessel_ratio(d, kappa) == pytest.approx(bessel_ratio_mp(d, kappa), rel=1e-11)

    @given(
        d=st.integers(min_value=2, max_value=400),
        kappa=st.floats(min_value=1e-3, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_monotonicity(self, d, kappa):
        a = bessel_ratio(d, kappa)
        assert 0.0 < a < 1.0
        assert bessel_ratio(d, kappa * 1.5) > a

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bessel_ratio(1, 1.0)
        with pytest.raises(ValueError):
            bessel_ratio(3, -1.0)
        with pytest.raises(ValueError):
            bessel_ratio(3, float("nan"))
        with pytest.raises(ValueError):
            bessel_ratio(3, 1e17)


class TestVmfKernels:
    @pytest.mark.parametrize("d,kappa", REGIMES)
    def test_matches_mp_across_regimes(self, d, kappa):
        a, slope, log_c = vmf_kernels(d, kappa)
        assert a == pytest.approx(bessel_ratio_mp(d, kappa), rel=1e-11)
        assert slope == pytest.approx(bessel_ratio_slope_mp(d, kappa), rel=1e-10, abs=1e-12)
        assert log_c == pytest.approx(log_vmf_normalizer_mp(d, kappa), rel=1e-8)

    @given(
        d=st.integers(min_value=2, max_value=300),
        kappa=st.floats(min_value=1e-2, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, d, kappa):
        # 1 / r_nu = r_{nu+1} + 2 nu / kappa with r_nu = A_{2 nu}, checked at
        # nu = d/2 + 1 and nu = d/2; each A comes from its own kernel call
        a0, a1, a2 = (vmf_kernels(d + 2 * j, kappa)[0] for j in range(3))
        assert 1.0 / a1 == pytest.approx(a2 + (d + 2.0) / kappa, rel=1e-10)
        assert 1.0 / a0 == pytest.approx(a1 + d / kappa, rel=1e-10)

    def test_entries_finite_and_in_range(self):
        for d in (2, 3, 64, 2048):
            for kappa in (1e-5, 1.0, 1e3, 1e6):
                a, slope, log_c = vmf_kernels(d, kappa)
                assert 0.0 <= a < 1.0
                assert 0.0 < slope < 1.0
                assert math.isfinite(log_c)

    def test_log_i_against_mp(self):
        import mpmath as mp

        # log I_{d/2}(kappa) is the Bessel part of log C_{d+2}(kappa)
        for d, kappa in [(4, 2.0), (31, 77.0), (300, 150.0)]:
            log_c = vmf_kernels(d + 2, kappa)[2]
            log_i = log_c - 0.5 * (d + 2) * LOG_2PI + 0.5 * d * math.log(kappa)
            ref = float(mp.log(mp.besseli(d / 2.0, kappa)))
            assert log_i == pytest.approx(ref, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("d", [3, 4, 5, 300, 301])
    @pytest.mark.parametrize("kappa", [1e-300, 1e-17, 1e-12, 1e-10, 3e-7])
    def test_log_c_tiny_kappa_against_mp(self, d, kappa):
        # odd d telescopes onto log I_{1/2}, whose log sinh must keep 1 - e^{-2 kappa}
        log_c = vmf_kernels(d, kappa)[2]
        assert log_c == pytest.approx(log_vmf_normalizer_mp(d, kappa), rel=1e-12)

    def test_views_agree_with_kernel(self):
        for d, kappa in REGIMES:
            a, slope, log_c = vmf_kernels(d, kappa)
            assert bessel_ratio(d, kappa) == a
            assert log_vmf_normalizer(d, kappa) == log_c

    def test_rejects_bad_inputs(self):
        for d, kappa in [(1, 1.0), (3, 0.0), (3, -1.0), (3, float("nan")), (3, 1e17)]:
            with pytest.raises(ValueError):
                vmf_kernels(d, kappa)


class TestInverseRatio:
    def test_closed_form_value(self):
        assert inv_bessel_ratio(3, 0.5) == pytest.approx(0.5 * (3 - 0.25) / 0.75, rel=1e-15)

    def test_refined_meets_tolerance(self):
        for d, r in [(2, 0.1), (3, 0.5), (10, 0.9), (300, 0.37), (300, 0.9)]:
            kappa = inv_bessel_ratio(d, r, refine=True)
            assert abs(bessel_ratio(d, kappa) - r) < 1e-8

    def test_approximation_close_to_refined_high_dim(self):
        approx = inv_bessel_ratio(300, 0.9, refine=False)
        refined = inv_bessel_ratio(300, 0.9, refine=True)
        assert approx == pytest.approx(refined, rel=0.02)

    @given(
        d=st.integers(min_value=2, max_value=200),
        r=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, d, r):
        kappa = inv_bessel_ratio(d, r, refine=True)
        assert abs(bessel_ratio(d, kappa) - r) < 1e-8

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inv_bessel_ratio(3, bad)


class TestLogNormalizer:
    def test_dimension_three_closed_form(self):
        # Z(kappa) = 4 pi sinh(kappa) / kappa when d = 3
        for kappa in (0.5, 1.0, 10.0):
            expected = math.log(4.0 * math.pi * math.sinh(kappa) / kappa)
            assert log_vmf_normalizer(3, kappa) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_kappa(self):
        for d in (2, 10, 300):
            values = [log_vmf_normalizer(d, k) for k in (0.1, 1.0, 10.0, 100.0)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_high_dim_against_mp(self):
        assert log_vmf_normalizer(300, 150.0) == pytest.approx(
            log_vmf_normalizer_mp(300, 150.0), rel=1e-8
        )

    @pytest.mark.parametrize("d,kappa", [(2, 0.01), (7, 35.0), (300, 1e5), (2048, 1e6)])
    def test_finite_extremes(self, d, kappa):
        assert math.isfinite(log_vmf_normalizer(d, kappa))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_vmf_normalizer(3, 0.0)


class TestLogMultivariateGamma:
    def test_reduces_to_ordinary_gamma(self):
        for a in (0.7, 1.0, 2.0, 9.5):
            assert log_multivariate_gamma(1, a) == pytest.approx(math.lgamma(a), abs=1e-13)

    def test_two_dimensional_value(self):
        assert log_multivariate_gamma(2, 1.5) == pytest.approx(math.log(math.pi / 2), rel=1e-12)

    def test_matches_scipy(self):
        from scipy.special import multigammaln

        for d, a in [(3, 5.0), (10, 8.0), (50, 30.0), (300, 151.0), (2048, 1030.0)]:
            assert log_multivariate_gamma(d, a) == pytest.approx(
                float(multigammaln(a, d)), rel=1e-12
            )

    def test_pole_boundary(self):
        with pytest.raises(ValueError):
            log_multivariate_gamma(3, 1.0)


class TestSecondDerivativeTerm:
    # the second derivative of the concentration log-likelihood per
    # observation is -A_d', the kernel's middle output
    def test_dimension_three_closed_form(self):
        # -d/dkappa [coth k - 1/k] = -(1/k^2 - 1/sinh^2 k)
        for kappa in (0.5, 1.0, 4.0):
            expected = -(1.0 / kappa**2 - 1.0 / math.sinh(kappa) ** 2)
            assert -vmf_kernels(3, kappa)[1] == pytest.approx(expected, rel=1e-10)

    @given(
        d=st.integers(min_value=2, max_value=300),
        kappa=st.floats(min_value=0.05, max_value=2e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_slope_identity(self, d, kappa):
        # equals -(1 - A^2 - (d-1) A / kappa)
        a = bessel_ratio(d, kappa)
        expected = -(1.0 - a * a - (d - 1.0) * a / kappa)
        assert -vmf_kernels(d, kappa)[1] == pytest.approx(
            expected, rel=1e-10, abs=1e-12
        )

    def test_negative_and_finite_high_dim(self):
        value = -vmf_kernels(300, 500.0)[1]
        assert math.isfinite(value)
        assert value < 0.0
