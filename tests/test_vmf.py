import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupsim.comparison import VMF, bag_criteria
from groupsim.errors import DegenerateCurvatureError
from groupsim.hypersphere import to_spherical
from groupsim.vmf import _fit_resultants, _tic_penalty, fit_vmf

from helpers import (
    as_unit_matrix,
    block_of,
    fit_resultant_per_bag,
    fit_vmf_per_bag,
    inv_bessel_ratio_newton,
    random_rotation,
    sample_vmf,
    uniform_sphere,
    vmf_dense_tic_fd,
    vmf_kernels_at,
    tic_penalty_per_bag,
    vmf_loglik,
    vmf_tic_penalty_polar,
)

FIELDS = ("mu_hat", "theta_hat", "kappa_hat", "r_bar", "n", "max_loglik", "a_hat", "a_prime",
          "resultant", "square_norm", "clamped")


class TestFit:
    def test_hand_example_two_dim(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        fit = fit_vmf(x)
        root_half = math.sqrt(0.5)
        np.testing.assert_allclose(fit.mu_hat[0], [root_half, root_half], atol=1e-12)
        assert fit.r_bar[0] == pytest.approx(root_half, rel=1e-12)
        assert fit.kappa_hat[0] == pytest.approx(root_half * (2 - 0.5) / 0.5, rel=1e-12)
        assert not fit.clamped[0]

    def test_mu_is_normalised_resultant(self):
        rng = np.random.default_rng(0)
        x = uniform_sphere(rng, 20, 6)
        fit = fit_vmf(x)
        resultant = x.sum(axis=0)
        np.testing.assert_allclose(
            fit.mu_hat[0], resultant / np.linalg.norm(resultant), atol=1e-9
        )
        assert fit.max_loglik[0] == pytest.approx(
            fit.n[0] * (fit.kappa_hat[0] * fit.r_bar[0] - vmf_kernels_at(6, fit.kappa_hat[0])[2]),
            rel=1e-12,
        )

    def test_identical_vectors_clamp(self):
        v = np.array([0.6, 0.8])
        x = np.tile(v, (5, 1))
        fit = fit_vmf(x)
        assert fit.clamped[0]
        assert fit.r_bar[0] == 1.0 - 1e-7
        assert math.isfinite(fit.kappa_hat[0])
        assert math.isfinite(fit.max_loglik[0])

    def test_cancelling_vectors_clamp(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        fit = fit_vmf(x)
        assert fit.clamped[0]
        assert fit.r_bar[0] == 1e-7
        assert math.isfinite(fit.kappa_hat[0])

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(42)
        mu = np.zeros(10)
        mu[0] = 1.0
        x = sample_vmf(rng, mu, kappa=10.0, n=50)
        fit = fit_vmf(x)
        assert abs(fit.kappa_hat[0] - 10.0) / 10.0 < 0.25
        assert float(fit.mu_hat[0] @ mu) > 0.95

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            fit_vmf(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_row(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_vmf(np.array([[1.0, 0.0, 0.0], [bad, 0.0, 0.0], [0.0, 1.0, 0.0]]))


class TestBatchFit:
    """``fit_vmf(*bags)`` against the per-bag oracle ``fit_vmf_per_bag``, field by field."""

    @staticmethod
    def bags(d):
        rng = np.random.default_rng(d)
        bags = [uniform_sphere(rng, int(n), d) for n in rng.integers(2, 12, size=9)]
        bags[2] = np.tile(bags[2][0], (5, 1))  # identical rows: clamped at the ceiling
        bags[4] = np.vstack([bags[4][0], -bags[4][0]])  # cancelling exactly: at the floor
        bags[6] = bags[6].astype(np.float32)
        return bags

    @staticmethod
    def assert_row_matches(batch, b, want, d):
        for name in FIELDS:
            got = getattr(batch, name)[b]
            if name == "max_loglik" and d >= 98:
                # log C_d from the array Debye sum, within 2e-15 max(1, |log C_d|)
                # of the scalar one, and times n
                log_c = want.kappa_hat * want.r_bar - want.max_loglik / want.n
                bound = 2e-15 * want.n * max(1.0, abs(log_c)) + 4e-16 * abs(want.max_loglik)
                assert abs(got - want.max_loglik) <= bound
            else:
                np.testing.assert_array_equal(got, getattr(want, name), err_msg=name)

    @pytest.mark.parametrize("d", [2, 5, 8, 300, 301])
    def test_fields_match_the_per_bag_oracle(self, d):
        bags = self.bags(d)
        batch = fit_vmf(*bags)
        assert batch.mu_hat.shape == batch.resultant.shape == (9, d)
        assert batch.theta_hat.shape == (9, d - 1)
        assert batch.clamped.tolist() == [b in (2, 4) for b in range(9)]
        assert batch.r_bar[2] == 1.0 - 1e-7 and batch.r_bar[4] == 1e-7
        assert batch.mu_hat[4].tolist() == [1.0] + [0.0] * (d - 1)  # S = 0: the first axis
        for b, bag in enumerate(bags):
            self.assert_row_matches(batch, b, fit_vmf_per_bag(bag), d)

    @pytest.mark.parametrize("d", [2, 5, 300])
    def test_theta_hat_is_to_spherical_of_mu_hat(self, d):
        """``fit_vmf`` fills the angles from one ``to_spherical`` call on its
        directions; fits made from resultants alone, as joint fits are, leave them None."""
        batch = fit_vmf(*self.bags(d))
        assert batch.theta_hat.tobytes() == to_spherical(batch.mu_hat).tobytes()
        assert _fit_resultants(batch.resultant, batch.n, batch.square_norm).theta_hat is None

    @pytest.mark.parametrize("d", [5, 300])
    def test_a_batch_of_one(self, d):
        for bag in self.bags(d):
            self.assert_row_matches(fit_vmf(bag), 0, fit_vmf_per_bag(bag), d)

    def test_joint_fits_from_summed_resultants(self):
        # the scoring path's joint fits: one array core call on S_1 + S_2, n_1 + n_2
        bags = self.bags(6)
        first, second = bags[:4], bags[4:8]
        singles = fit_vmf(*first, *second)
        joint = _fit_resultants(singles.resultant[:4] + singles.resultant[4:],
                                singles.n[:4] + singles.n[4:],
                                singles.square_norm[:4] + singles.square_norm[4:])
        assert joint.theta_hat is None
        for p, (x1, x2) in enumerate(zip(first, second)):
            a, b = fit_vmf_per_bag(x1), fit_vmf_per_bag(x2)
            want = fit_resultant_per_bag(a.resultant + b.resultant, a.n + b.n,
                                         a.square_norm + b.square_norm)
            for name in FIELDS[2:]:
                np.testing.assert_array_equal(getattr(joint, name)[p], getattr(want, name),
                                              err_msg=name)
            np.testing.assert_array_equal(joint.mu_hat[p], want.mu_hat)

    def test_penalties_match_the_per_bag_oracle(self):
        bags = self.bags(7)
        fit = fit_vmf(*bags)
        penalty, defined = _tic_penalty(fit, [(x,) for x in bags])
        for b, bag in enumerate(bags):
            want = fit_vmf_per_bag(bag)
            if b in (2, 4):
                assert not defined[b] and math.isnan(penalty[b])
                with pytest.raises(DegenerateCurvatureError):
                    tic_penalty_per_bag(want, (np.asarray(bag, dtype=np.float64),))
            else:
                assert defined[b]
                assert penalty[b] == tic_penalty_per_bag(want, (np.asarray(bag, dtype=np.float64),))

    def test_width_mismatch_names_both_widths(self):
        # checked where the bags enter, before the batch fit, which checks no width
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 5$"):
            bag_criteria(VMF, "aic", [(uniform_sphere(rng, 3, 4),), (uniform_sphere(rng, 3, 5),)])

    def test_needs_a_bag_of_two_rows(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="two vectors"):
            fit_vmf(uniform_sphere(rng, 3, 4), uniform_sphere(rng, 1, 4))


def outcome(call):
    """None when ``call()`` returns, its ``ValueError`` message when it raises one."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def with_row(row, n=4, dtype=np.float64):
    """A bag of n unit rows at d = 3 whose second row is ``row``."""
    x = uniform_sphere(np.random.default_rng(0), n, 3)
    x[1] = row
    return x.astype(dtype)


def oracle_outcome(bags):
    """The per-bag check before blocks: ``as_unit_matrix`` on each bag in turn."""
    for bag in bags:
        if (message := outcome(lambda: as_unit_matrix(bag))) is not None:
            return message
    return None


# rows whose norms lie within 4 ulps of 1 - 1e-6 and of 1 + 1e-6
EDGE_ROWS = [[float(value), 0.0, 0.0] for edge in (1.0 - 1e-6, 1.0 + 1e-6)
             for value in edge + np.spacing(edge) * np.arange(-4, 5)]


class TestBlockCheck:
    """``fit_vmf`` checks each block's rows in one pass of row norms; it must
    accept and reject exactly the rows the per-bag check ``as_unit_matrix``
    does, with the same message."""

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_deviations_within_ulps_of_the_tolerance(self, row):
        bag = with_row(row)
        assert outcome(lambda: fit_vmf(bag)) == oracle_outcome([bag])

    def test_edge_rows_fall_on_both_sides(self):
        verdicts = {oracle_outcome([with_row(row)]) is None for row in EDGE_ROWS}
        assert verdicts == {True, False}

    @pytest.mark.parametrize(("row", "dtype"), [
        (row, dtype) for dtype in (np.float64, np.float32)
        for row in ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1.0 + 2e-6, 0.0, 0.0],
                    [0.6, 0.8, 0.0])] + [([1e200, 1e200, 0.0], np.float64)])  # |w|^2 overflows
    def test_bad_and_good_rows_in_one_bag(self, row, dtype):
        bag = with_row(row, dtype=dtype)
        want = oracle_outcome([bag])
        assert outcome(lambda: fit_vmf(bag)) == want
        assert outcome(lambda: fit_vmf(block_of(bag))) == want
        if row[0] == 0.6:
            assert want is None
        else:
            assert want.startswith("vectors must be finite" if not np.isfinite(row).all()
                                   else "vectors must be unit-norm within 1e-6 (worst deviation")

    @pytest.mark.parametrize("row", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0],
                                     [1.0 - 3e-6, 0.0, 0.0]] + EDGE_ROWS[::3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bad_row_in_a_middle_bag_of_a_block(self, row, dtype):
        rng = np.random.default_rng(5)
        bags = [uniform_sphere(rng, 3, 3).astype(dtype), with_row(row, n=5, dtype=dtype),
                uniform_sphere(rng, 4, 3).astype(dtype)]
        want = oracle_outcome(bags)
        assert outcome(lambda: fit_vmf(block_of(*bags))) == want
        assert outcome(lambda: fit_vmf(*bags)) == want
        assert outcome(lambda: fit_vmf(bags[0], block_of(*bags[1:]))) == want

    def test_block_fits_equal_the_fits_of_its_bags(self):
        bags = TestBatchFit.bags(300)  # the block of bags 1-6 casts bag 6's float32 rows
        got, want = fit_vmf(bags[0], block_of(*bags[1:7]), *bags[7:]), fit_vmf(*bags)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_a_block_bag_of_one_row_is_named(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="two vectors"):
            fit_vmf(block_of(uniform_sphere(rng, 3, 4), uniform_sphere(rng, 1, 4)))


class TestSquareNorm:
    @pytest.mark.parametrize("d", [2, 5, 8, 300, 301])
    def test_single_bag_is_its_vdot(self, d):
        bags = TestBatchFit.bags(d)
        fit = fit_vmf(*bags)
        for b, bag in enumerate(bags):
            x = np.asarray(bag, dtype=np.float64)
            assert fit.square_norm[b] == pytest.approx(np.vdot(x, x), rel=1e-15, abs=0.0)

    def test_penalty_reads_the_square_norm_of_the_fit(self):
        x = uniform_sphere(np.random.default_rng(7), 9, 5)
        fit = fit_vmf(x)
        shifted = dataclasses.replace(fit, square_norm=fit.square_norm + 0.5)
        change = _tic_penalty(shifted, [(x,)])[0][0] - _tic_penalty(fit, [(x,)])[0][0]
        assert change == pytest.approx(fit.kappa_hat[0] * 0.5 / fit.r_bar[0] / fit.n[0], rel=1e-9)


class TestLoglik:
    def test_self_evaluation_matches_max(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 8):
            x = uniform_sphere(rng, 12, d)
            fit = fit_vmf(x)
            assert vmf_loglik(fit, x) == pytest.approx(fit.max_loglik[0], abs=1e-10)

    def test_orthogonal_vector_adds_normalizer_only(self):
        rng = np.random.default_rng(2)
        x = uniform_sphere(rng, 10, 5)
        fit = fit_vmf(x)
        v = rng.standard_normal(5)
        v -= v.dot(fit.mu_hat[0]) * fit.mu_hat[0]
        v /= np.linalg.norm(v)
        extended = np.vstack([x, v])
        delta = vmf_loglik(fit, extended) - vmf_loglik(fit, x)
        assert delta == pytest.approx(-vmf_kernels_at(5, fit.kappa_hat[0])[2], abs=1e-10)

    def test_against_naive_summation(self):
        rng = np.random.default_rng(3)
        x = uniform_sphere(rng, 15, 4)
        fit = fit_vmf(x)
        log_z = vmf_kernels_at(4, fit.kappa_hat[0])[2]
        naive = sum(fit.kappa_hat[0] * float(w @ fit.mu_hat[0]) - log_z for w in x)
        assert vmf_loglik(fit, x) == pytest.approx(naive, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        fit = fit_vmf(uniform_sphere(rng, 5, 3))
        with pytest.raises(ValueError, match="dimension"):
            vmf_loglik(fit, uniform_sphere(rng, 5, 4))


def tic_penalty(x):
    """The vMF "tic" penalty of one bag, read through the scoring path."""
    return bag_criteria(VMF, "tic", [(x,)])[1][0]


class TestTicPenalty:
    def test_scoring_path_reads_the_fit_of_fit_vmf(self):
        x = uniform_sphere(np.random.default_rng(12), 9, 4)
        fit = fit_vmf(x)
        loglik, penalty, fallback, _, degenerate = bag_criteria(VMF, "tic", [(x,)])
        assert loglik[0] == fit.max_loglik[0]
        assert penalty[0] == _tic_penalty(fit, [(x,)])[0][0]
        assert not fallback[0] and not degenerate[0]

    @pytest.mark.parametrize("d,n,seed", [(3, 5, 0), (3, 20, 1), (5, 12, 2), (4, 8, 3)])
    def test_matches_dense_finite_difference(self, d, n, seed):
        rng = np.random.default_rng(seed)
        x = uniform_sphere(rng, n, d)
        fit = fit_vmf(x)
        closed = tic_penalty(x)
        dense = vmf_dense_tic_fd(x, fit.mu_hat[0], fit.kappa_hat[0])
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
        polar = vmf_tic_penalty_polar(x, fit.mu_hat[0], fit.kappa_hat[0])
        assert tic_penalty(x) == pytest.approx(polar, rel=1e-9)

    def test_axis_aligned_mean_needs_no_clamp(self):
        # the polar chart has a pole at this mean direction, the tangent form
        # does not: the penalty equals that of a rotated copy of the bag
        x = np.array([[0.8, 0.6, 0.0], [0.8, -0.6, 0.0], [0.8, 0.0, 0.6], [0.8, 0.0, -0.6]])
        fit = fit_vmf(x)
        np.testing.assert_allclose(fit.mu_hat[0], [1.0, 0.0, 0.0], atol=1e-15)
        xr = x @ random_rotation(np.random.default_rng(11), 3).T
        fr = fit_vmf(xr)
        assert tic_penalty(x) == pytest.approx(tic_penalty(xr), rel=1e-12)
        dense = vmf_dense_tic_fd(xr, fr.mu_hat[0], fr.kappa_hat[0])
        assert tic_penalty(x) == pytest.approx(dense, rel=1e-3)

    def test_degenerate_raises_never_nan(self):
        x = np.tile(np.array([1.0, 0.0, 0.0]), (6, 1))
        with pytest.raises(DegenerateCurvatureError):
            tic_penalty(x)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        x = uniform_sphere(rng, 15, 6)
        base = tic_penalty(x)
        for seed in range(3):
            rot = random_rotation(np.random.default_rng(seed), 6)
            xr = x @ rot.T
            assert tic_penalty(xr) == pytest.approx(base, abs=1e-6, rel=1e-6)

    def test_nonnegative_on_random_bags(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(3, 25))
            x = uniform_sphere(rng, n, d)
            assert tic_penalty(x) >= 0.0

    def test_mixed_derivatives_vanish_at_fit(self):
        # full-bag mixed second derivatives are multiples of the zero gradient
        rng = np.random.default_rng(9)
        x = uniform_sphere(rng, 10, 4)
        fit = fit_vmf(x)
        kappa_mle = inv_bessel_ratio_newton(4, fit.r_bar[0])  # the mixed terms vanish at the MLE
        from helpers import sph_to_vec, vec_to_sph

        theta = vec_to_sph(fit.mu_hat[0])
        h = 1e-5

        def total(theta_vec, kappa):
            return float(
                kappa * (x @ sph_to_vec(theta_vec)).sum()
            ) - x.shape[0] * vmf_kernels_at(4, kappa)[2]

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

        def clock(fit, data, calls=5):
            # one call takes about a millisecond: time several, so one
            # scheduler hiccup on a shared host is a fraction of the reading.
            # CPU time, so time the host gives to other guests is not counted;
            # of this thread only, since a threaded BLAS's helpers spin-wait
            start = time.thread_time()
            for _ in range(calls):
                _tic_penalty(fit, [(data,)])
            return time.thread_time() - start

        # warm both sizes, so every reading follows a call on the other size: a
        # reading taken right after a call on its own rows finds them in cache
        # and runs ~20% fast, and the minimum would pick it for the smaller size
        clock(fit1, x1)
        clock(fit2, x2)
        t1 = t2 = float("inf")
        for _ in range(15):  # back to back, so a drift in host speed hits both sizes alike
            t1 = min(t1, clock(fit1, x1))
            t2 = min(t2, clock(fit2, x2))
        assert t2 / t1 < 2.5
