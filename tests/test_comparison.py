import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim import comparison, vmf
from groupsim.comparison import (
    DIAG,
    IC_KINDS,
    MODELS,
    SPHERICAL,
    VMF,
    NormalWishartPrior,
    aic_param_count,
    corpus_model_selection,
    default_prior,
    nw_log_evidence,
    pair_scores,
    penalty_curve,
    penalty_curve_csv,
)
from groupsim.embeddings import lookup_sentence
from groupsim.errors import DegenerateCurvatureError
from groupsim.evaluation import spearman
from groupsim.vmf import R_BAR_CEIL, R_BAR_FLOOR, fit_vmf

from helpers import (
    corpus_model_selection_per_candidate,
    criterion_rows,
    diag_closed_tic,
    fit_gaussian_rows,
    log_gamma_ratio_mp,
    log_multivariate_gamma,
    nw_log_evidence_columns,
    nw_log_evidence_dense,
    nw_log_evidence_mp,
    nw_log_evidence_quadrature,
    pair_score_rows,
    pair_terms_three_calls,
    random_rotation,
    term_scales,
    uniform_sphere,
    vmf_closed_tic,
)


def random_pair(rng, d, lo=3, hi=10, unit=False):
    n, m = int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))
    if unit:
        return uniform_sphere(rng, n, d), uniform_sphere(rng, m, d)
    scale = rng.uniform(0.5, 2.0, size=d)
    return rng.standard_normal((n, d)) * scale, rng.standard_normal((m, d)) * scale


class TestGenericComposition:
    def test_identical_bags_diag_tic(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        _, penalty, _, _ = criterion_rows(x, DIAG, "tic", "error", None)
        score = pair_scores(DIAG, "tic", [x], [x])[0]
        assert score.value == pytest.approx(2.0 * penalty, abs=1e-9)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(1)
        x1, x2 = random_pair(rng, 3)
        for model, ic, unit in ((DIAG, "tic", False), (DIAG, "aic", False),
                                (SPHERICAL, "aic", False), (VMF, "tic", True),
                                (VMF, "aic", True)):
            a, b = random_pair(rng, 3, unit=unit) if unit else (x1, x2)
            score = pair_scores(model, ic, [a], [b])[0]
            br = score.breakdown
            recomposed = (
                2.0 * (br.loglik_joint - br.loglik_1 - br.loglik_2)
                - 2.0 * br.penalty_joint + 2.0 * br.penalty_1 + 2.0 * br.penalty_2
            )
            assert score.value == pytest.approx(recomposed, abs=1e-9)

    def test_direct_composition_oracle(self):
        # assemble IC(D, M) = -2 (L - P) per bag and subtract
        rng = np.random.default_rng(2)
        for _ in range(30):
            x1, x2 = random_pair(rng, 3)
            joint = np.vstack([x1, x2])

            def ic_of(x):
                loglik, penalty, _, _ = criterion_rows(x, DIAG, "tic", "error", None)
                return -2.0 * (loglik - penalty)

            expected = -ic_of(joint) + ic_of(x1) + ic_of(x2)
            got = pair_scores(DIAG, "tic", [x1], [x2])[0].value
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_pair(rng, 3)
        a = pair_scores(DIAG, "tic", [x1], [x2])[0].value
        b = pair_scores(DIAG, "tic", [x2], [x1])[0].value
        assert a == pytest.approx(b, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_within_bag_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_pair(rng, 3)
        perm1 = rng.permutation(x1.shape[0])
        perm2 = rng.permutation(x2.shape[0])
        a = pair_scores(DIAG, "tic", [x1], [x2])[0].value
        b = pair_scores(DIAG, "tic", [x1[perm1]], [x2[perm2]])[0].value
        assert a == pytest.approx(b, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            pair_scores(DIAG, "aic", [np.zeros((3, 2))], [np.zeros((3, 3))])

    @pytest.mark.parametrize(("ic", "scale"), [("tic", 1e150), ("aic", 1e155)])
    def test_overflowing_fit_raises_instead_of_nan(self, ic, scale):
        x = np.random.default_rng(17).standard_normal((6, 3)) * scale
        with pytest.raises(ValueError, match="non-finite L or P term in pair 1"):
            pair_scores(DIAG, ic, [x[:3] / scale, x], [x[3:] / scale, 0.5 * x])
        with pytest.raises(ValueError, match="non-finite"):
            pair_scores(DIAG, ic, [x], [0.5 * x])

    @pytest.mark.parametrize("model", [DIAG, SPHERICAL])
    def test_aic_reads_no_fourth_moment(self, model, monkeypatch):
        """Entries near 1e78 overflow M4 but not M2, and "aic" fits from
        moments taken to order 2: the score is finite."""
        import groupsim.comparison as comparison

        orders = []
        fit = comparison.moment_fit
        monkeypatch.setattr(comparison, "moment_fit",
                            lambda mom, kind: orders.append(mom.m4 is None) or fit(mom, kind))
        x = np.random.default_rng(21).standard_normal((6, 3)) * 1e78
        assert math.isfinite(pair_scores(model, "aic", [x], [0.5 * x + 1e77])[0].value)
        assert orders == [True, True]  # the joint bags, then the single bags

    @pytest.mark.parametrize("model,ic", [(model, ic) for model in MODELS for ic in IC_KINDS]
                             + [("bayes", None)])
    def test_sentence_samples_score_as_their_rows(self, model, ic, store, unit_store):
        """A bag may be a looked-up one-bag ``SentenceBlock``: the batch is bit
        for bit the batch of its rows."""
        lexicon = unit_store if model == VMF else store
        a, b = (lookup_sentence(lexicon, text, ".") for text in ("the cat sat on the mat", "dog"))
        got = pair_scores(model, ic, [a, b], [b, a], on_degenerate="aic")
        want = pair_scores(model, ic, [a.vectors, b.vectors], [b.vectors, a.vectors],
                           on_degenerate="aic")
        for field in dataclasses.fields(want):
            assert (np.asarray(getattr(got, field.name)).tobytes()
                    == np.asarray(getattr(want, field.name)).tobytes()), field.name

    def test_rejects_unknown_model_or_ic(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            pair_scores("full", "tic", [x], [x])
        with pytest.raises(ValueError):
            pair_scores(DIAG, "bogus", [x], [x])
        with pytest.raises(ValueError, match="unknown model and criterion"):
            pair_scores("bayes", "tic", [x], [x])
        # named before any fit: these rows are not unit vectors
        with pytest.raises(ValueError, match="unknown model and criterion"):
            pair_scores(VMF, "bogus", [x], [x])


class TestClosedForms:
    """The "tic" score against its closed forms (helpers), and the closed
    forms' special cases on the score itself."""

    @pytest.mark.parametrize("seed", range(8))
    def test_vmf_closed_equals_half_generic(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_pair(rng, 4, unit=True)
        closed = vmf_closed_tic(x1, x2)
        generic = pair_scores(VMF, "tic", [x1], [x2])[0].value
        assert closed == pytest.approx(generic / 2.0, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_closed_equals_half_generic(self, seed):
        rng = np.random.default_rng(100 + seed)
        x1, x2 = random_pair(rng, 4)
        closed = diag_closed_tic(x1, x2)
        generic = pair_scores(DIAG, "tic", [x1], [x2])[0].value
        assert closed == pytest.approx(generic / 2.0, rel=1e-9, abs=1e-9)

    def test_identical_bags_reduce_to_penalty(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 5))
        _, penalty, _, _ = criterion_rows(x, DIAG, "tic", "error", None)
        assert pair_scores(DIAG, "tic", [x], [x])[0].value / 2.0 == pytest.approx(penalty, abs=1e-9)

    def test_identical_single_direction_no_nan(self):
        v = np.array([0.0, 1.0, 0.0])
        x = np.tile(v, (3, 1))
        score = pair_scores(VMF, "tic", [x], [x], on_degenerate="aic")[0]
        assert math.isfinite(score.value)
        assert score.fallback

    def test_vmf_rejects_non_finite_row(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bad = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            pair_scores(VMF, "tic", [x], [bad])

    def test_vmf_rotation_invariance(self):
        rng = np.random.default_rng(4)
        x1, x2 = random_pair(rng, 5, unit=True)
        base = pair_scores(VMF, "tic", [x1], [x2])[0].value
        rot = random_rotation(np.random.default_rng(9), 5)
        rotated = pair_scores(VMF, "tic", [x1 @ rot.T], [x2 @ rot.T])[0].value
        assert rotated == pytest.approx(base, abs=1e-6)

    def test_gaussian_translation_invariance(self):
        rng = np.random.default_rng(5)
        x1, x2 = random_pair(rng, 4)
        shift = rng.uniform(-3, 3, size=4)
        base = pair_scores(DIAG, "tic", [x1], [x2])[0].value
        shifted = pair_scores(DIAG, "tic", [x1 + shift], [x2 + shift])[0].value
        assert shifted == pytest.approx(base, abs=1e-9)


class TestMergedVmfJointFit:
    """A vMF joint bag is fitted from its two bags' summed resultants; the
    oracle fits the stacked rows (``tests/helpers.pair_score_rows``)."""

    @staticmethod
    def assert_matches_stacked_oracle(x1, x2, ic):
        got = pair_scores(VMF, ic, [x1], [x2], on_degenerate="aic")
        want, _ = pair_score_rows(x1, x2, VMF, ic)
        names = ("loglik_joint", "loglik_1", "loglik_2", "penalty_joint", "penalty_1", "penalty_2")
        for name, term, scale in zip(names, got.terms[0], term_scales(x1, x2, VMF, ic)):
            assert term == pytest.approx(getattr(want.breakdown, name), rel=0.0,
                                         abs=1e-12 * scale), name
        assert got[0].fallback == want.fallback
        stacked = np.vstack([x1, x2])
        assert got.degenerate_fits == fit_vmf(stacked, x1, x2).clamped.sum()
        return got

    @staticmethod
    def joint_fits(monkeypatch):
        """The batches of joint fits ``pair_scores`` builds, recorded as they are made."""
        made = []

        def record(*args, **kwargs):
            made.append(merged(*args, **kwargs))
            return made[-1]

        merged = comparison._fit_resultants
        monkeypatch.setattr(comparison, "_fit_resultants", record)
        return made

    @pytest.mark.parametrize("ic", IC_KINDS)
    def test_cancelling_pair_falls_back_to_the_first_row(self, ic, monkeypatch):
        x1 = uniform_sphere(np.random.default_rng(61), 4, 5)
        joint = self.joint_fits(monkeypatch)
        got = self.assert_matches_stacked_oracle(x1, -x1, ic)
        assert not joint[0].resultant[0].any()
        assert joint[0].mu_hat[0].tobytes() == x1[0].tobytes()
        assert joint[0].clamped[0] and joint[0].r_bar[0] == R_BAR_FLOOR
        assert got.degenerate_fits == 1
        assert got[0].fallback == (ic == "tic")
        if ic == "tic":
            assert got.terms[0][3] == aic_param_count(VMF, 5)

    @pytest.mark.parametrize("ic", IC_KINDS)
    def test_identical_rows_clamp_at_the_ceiling(self, ic, monkeypatch):
        v = np.array([0.48, 0.6, 0.64])
        joint = self.joint_fits(monkeypatch)
        got = self.assert_matches_stacked_oracle(np.tile(v, (3, 1)), np.tile(v, (4, 1)), ic)
        assert joint[0].r_bar[0] == R_BAR_CEIL and joint[0].n[0] == 7
        assert got.degenerate_fits == 3
        assert got[0].fallback == (ic == "tic")

    @pytest.mark.parametrize("ic", IC_KINDS)
    def test_degenerate_bag_in_a_joint_bag_that_is_not(self, ic, monkeypatch):
        x1 = np.tile(np.array([0.0, 0.6, 0.8, 0.0]), (2, 1))
        x2 = uniform_sphere(np.random.default_rng(62), 5, 4)
        joint = self.joint_fits(monkeypatch)
        got = self.assert_matches_stacked_oracle(x1, x2, ic)
        assert not joint[0].clamped[0] and joint[0].theta_hat is None
        assert got.degenerate_fits == 1
        assert got[0].fallback == (ic == "tic")
        assert np.isfinite(got.terms).all()

    @pytest.mark.parametrize("ic", IC_KINDS)
    def test_two_fits_per_pair_and_no_stacking(self, ic, monkeypatch):
        rng = np.random.default_rng(63)
        pairs = [random_pair(rng, 6, unit=True) for _ in range(5)]
        calls = []

        def counted(*bags):
            calls.append([len(x) for x in bags])
            return fit(*bags)

        def no_stack(*args, **kwargs):
            raise AssertionError("a vMF pair was stacked")

        fit = vmf.fit_vmf
        monkeypatch.setattr(vmf, "fit_vmf", counted)
        monkeypatch.setattr(comparison, "fit_vmf", counted)
        monkeypatch.setattr(np, "vstack", no_stack)
        scores = pair_scores(VMF, ic, [a for a, _ in pairs], [b for _, b in pairs],
                             on_degenerate="aic")
        assert len(scores) == 5
        # one batch holds every single bag, first bags then second bags
        assert calls == [[len(a) for a, _ in pairs] + [len(b) for _, b in pairs]]


class TestBic:
    def test_equal_sizes_penalty(self):
        rng = np.random.default_rng(6)
        n, d = 5, 3
        x1 = rng.standard_normal((n, d))
        x2 = rng.standard_normal((n, d))
        score = pair_scores(DIAG, "bic", [x1], [x2])[0]
        br = score.breakdown
        loglik_part = 2.0 * (br.loglik_joint - br.loglik_1 - br.loglik_2)
        assert score.value - loglik_part == pytest.approx(
            -2 * d * math.log(2.0 / n), rel=1e-12
        )

    @pytest.mark.parametrize("model,k_of_d", [(DIAG, lambda d: 2 * d),
                                              (SPHERICAL, lambda d: d + 1)])
    def test_direct_bic_oracle(self, model, k_of_d):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            x1, x2 = random_pair(rng, d)
            k = k_of_d(d)

            def bic_of(x):
                fit = fit_gaussian_rows(x, model)
                return -2.0 * fit.max_loglik + k * math.log(x.shape[0])

            expected = -bic_of(np.vstack([x1, x2])) + bic_of(x1) + bic_of(x2)
            assert pair_scores(model, "bic", [x1], [x2])[0].value == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )

    def test_separated_groups_score_lower(self):
        d1 = np.array([[0.0], [0.1]])
        far = np.array([[5.0], [5.1]])
        near = np.array([[0.05], [0.15]])
        assert (pair_scores(DIAG, "bic", [d1], [far])[0].value
                < pair_scores(DIAG, "bic", [d1], [near])[0].value)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(8)
        x1, x2 = random_pair(rng, 3)
        score = pair_scores(DIAG, "bic", [x1], [x2])[0]
        br = score.breakdown
        recomposed = (
            2.0 * (br.loglik_joint - br.loglik_1 - br.loglik_2)
            - 2.0 * br.penalty_joint + 2.0 * br.penalty_1 + 2.0 * br.penalty_2
        )
        assert score.value == pytest.approx(recomposed, abs=1e-9)

    def test_sphere_model_variant(self):
        # experimental: parameter count d for the sphere likelihood
        rng = np.random.default_rng(9)
        x1, x2 = random_pair(rng, 4, unit=True)
        n, m = x1.shape[0], x2.shape[0]

        def bic_of(x):
            fit = fit_vmf(x)
            return -2.0 * fit.max_loglik[0] + 4 * math.log(x.shape[0])

        expected = -bic_of(np.vstack([x1, x2])) + bic_of(x1) + bic_of(x2)
        assert pair_scores(VMF, "bic", [x1], [x2])[0].value == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )


class TestBayesFactor:
    def test_log_evidence_matches_quadrature(self):
        rng = np.random.default_rng(9)
        prior = NormalWishartPrior(1, kappa0=1.0, nu0=3.0)
        for _ in range(4):
            n = int(rng.integers(2, 6))
            x = rng.standard_normal((n, 1)) * rng.uniform(0.5, 2.0) + rng.uniform(-2, 2)
            closed = nw_log_evidence(x, prior)
            quad = nw_log_evidence_quadrature(x.ravel(), 0.0, 1.0, 3.0, 1.0)
            assert closed == pytest.approx(quad, abs=1e-4)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 50, 300])
    @pytest.mark.parametrize("prior_kind", ["default", "random"])
    def test_log_evidence_matches_dense_oracle(self, d, prior_kind):
        rng = np.random.default_rng(1000 + d)
        if prior_kind == "default":
            prior = default_prior(d)
        else:
            kappa0 = float(rng.uniform(0.05, 5.0))
            prior = NormalWishartPrior(d, kappa0, nu0=d - 1 + float(rng.uniform(0.5, 20.0)))
        # n + 1 < d takes the (n + 1) x (n + 1) Gram, n + 1 >= d the d x d one
        sizes = sorted({n for n in (1, 2, d - 2, d - 1, d, d + 7) if n >= 1})
        for n in sizes:
            x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d) + rng.uniform(-2, 2)
            assert nw_log_evidence(x, prior) == pytest.approx(
                nw_log_evidence_dense(x, prior), rel=1e-10
            )

    @staticmethod
    def _priors(d):
        rng = np.random.default_rng(2000 + d)
        return [default_prior(d),
                NormalWishartPrior(d, float(rng.uniform(0.05, 5.0)),
                                   nu0=d - 1 + float(rng.uniform(0.5, 20.0)))]

    @pytest.mark.parametrize("d", [1, 2, 3, 50, 300])
    def test_log_gamma_ratio_telescopes(self, d):
        """An all-zero bag has T_n = I, so its evidence is the log Gamma_d ratio
        plus -(n d / 2) log pi + (d / 2) log(kappa0 / kappa_n).  Both references
        take the full d-term sums; the tolerance is a few ulps of the summands."""
        eps = np.finfo(float).eps
        for prior in self._priors(d):
            a0 = prior.nu0 / 2.0
            for n in sorted({n for n in (1, 2, d - 1, d, d + 1, 3 * d) if n >= 1}):
                constant = (-0.5 * n * d * math.log(math.pi)
                            + 0.5 * d * (math.log(prior.kappa0) - math.log(prior.kappa0 + n)))
                ratio = nw_log_evidence(np.zeros((n, d)), prior) - constant
                full = log_multivariate_gamma(d, a0 + n / 2.0), log_multivariate_gamma(d, a0)
                scale = abs(constant) + abs(full[0]) + abs(full[1])
                assert ratio == pytest.approx(full[0] - full[1], rel=0, abs=16 * eps * scale)
                assert ratio == pytest.approx(log_gamma_ratio_mp(d, a0, n),
                                              rel=0, abs=16 * eps * scale)

    @pytest.mark.parametrize("d", [1, 2, 3, 50, 300])
    @pytest.mark.parametrize("bag", ["offset_1e3", "offset_1e6", "one_row", "identical_rows"])
    def test_log_evidence_matches_column_oracle(self, d, bag):
        """Against the column-major evidence at 1e-13 of the summands' scale (the
        evidence can sum to near 0 from terms of order n d), and against the
        dense oracle within the rounding of its d x d factorisation: each of its
        d pivots carries an error of eps |T_n|, and a far mean makes |T_n| large.
        When n + 1 >= d the column-major evidence factors the same d x d T_n as
        the dense oracle, so it is held to the dense oracle's bound there; the
        mpmath test below pins that side."""
        rng = np.random.default_rng(3000 + d)
        for prior in self._priors(d):
            sizes = [1] if bag == "one_row" else sorted(
                {n for n in (2, d - 1, d, d + 1) if n >= 2})
            for n in sizes:
                if bag == "identical_rows":
                    x = np.tile(rng.standard_normal(d), (n, 1))
                else:
                    offset = 1e6 if bag == "offset_1e6" else 1e3
                    x = rng.standard_normal((n, d)) + offset * rng.standard_normal(d)
                self.assert_matches_oracles(nw_log_evidence(x, prior), x, prior)

    @staticmethod
    def assert_matches_oracles(value, x, prior):
        """``value``, the evidence of the bag ``x``, against the column-major
        and the dense evidence at the bounds of the test above."""
        n, d = x.shape
        eps = np.finfo(float).eps
        scale = (abs(value) + 0.5 * n * d * math.log(math.pi)
                 + abs(log_multivariate_gamma(d, (prior.nu0 + n) / 2.0))
                 + abs(log_multivariate_gamma(d, prior.nu0 / 2.0)))
        xbar = x.mean(axis=0)
        size_tn = (1.0 + float(np.sum((x - xbar) ** 2))
                   + n * prior.kappa0 / (prior.kappa0 + n) * float(xbar @ xbar))
        dense_tol = 0.5 * (prior.nu0 + n) * d * eps * size_tn
        if n + 1 < d:
            assert value == pytest.approx(nw_log_evidence_columns(x, prior),
                                          rel=0, abs=1e-13 * scale)
        else:
            assert value == pytest.approx(nw_log_evidence_columns(x, prior),
                                          rel=1e-10, abs=max(1e-13 * scale, dense_tol))
        assert value == pytest.approx(nw_log_evidence_dense(x, prior), rel=1e-10, abs=dense_tol)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_log_evidence_matches_mpmath_on_the_d_by_d_side(self, d):
        """n + 1 >= d, with means up to 1e6 from 0: the mean row enters through
        the determinant lemma, not the Cholesky pivots, so the evidence stays
        within 1e-13 relative of a 60-digit one."""
        rng = np.random.default_rng(4000 + d)
        for prior in self._priors(d):
            for n in sorted({n for n in (d - 1, d, d + 3) if n >= 1}):
                for offset in (0.0, 1e3, 1e6):
                    x = rng.standard_normal((n, d)) + offset * rng.standard_normal(d)
                    assert nw_log_evidence(x, prior) == pytest.approx(
                        nw_log_evidence_mp(x, prior), rel=1e-13)

    @pytest.mark.parametrize("n, d", [(5, 3), (12, 8)])
    def test_log_evidence_of_a_mean_whose_square_overflows(self, n, d):
        """Means around 1e160 and spread 1e150, n + 1 >= d: |xbar|^2 and s^2
        overflow, but the mean row enters the factor as xbar / s and the
        lemma's term as c (s |L^-1 xbar / s|)^2, so the evidence is finite and
        within 1e-13 of a 60-digit one.  A spread of 1e155 overflows S."""
        rng = np.random.default_rng(4200 + d)
        centre = 1e160 * (1.0 + 0.1 * rng.standard_normal(d))
        x = centre + 1e150 * rng.standard_normal((n, d))
        value = nw_log_evidence(x, default_prior(d))
        assert math.isfinite(value)
        assert value == pytest.approx(nw_log_evidence_mp(x, default_prior(d)), rel=1e-13)
        wide = centre + 1e155 * rng.standard_normal((n, d))
        with pytest.raises(ValueError, match="overflows"):
            nw_log_evidence(wide, default_prior(d))

    def test_gram_that_overflows_when_n_plus_1_is_below_d(self):
        """(n, d) = (5, 8): the (n + 1) x (n + 1) Gram holds |xbar|^2 near
        1e321, so it overflows; that raises one ValueError, with no
        RuntimeWarning first (the suite turns every RuntimeWarning into an
        error)."""
        rng = np.random.default_rng(4208)
        centre = 1e160 * (1.0 + 0.1 * rng.standard_normal(8))
        x = centre + 1e150 * rng.standard_normal((5, 8))
        with pytest.raises(ValueError, match="overflows"):
            nw_log_evidence(x, default_prior(8))
        with pytest.raises(ValueError, match="overflows"):
            pair_scores("bayes", None, [x[:3]], [x[3:]])  # the joint bag is x again

    def test_spread_below_the_rounding_of_the_mean_names_the_cause(self):
        """Rows at 1e160 with unit noise: the centred rows are quantised at
        ulp(1e160), so I + S, positive definite in exact arithmetic, is not
        in float; the error says why."""
        rng = np.random.default_rng(4208)
        x = 1e160 * (1.0 + 0.1 * rng.standard_normal(8)) + rng.standard_normal((12, 8))
        with pytest.raises(ValueError, match="rounding: the rows are too far from 0"):
            nw_log_evidence(x, default_prior(8))

    def test_overflowing_gram_raises(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((5, 3)) * 1e155
        with pytest.raises(ValueError, match="overflows"):
            nw_log_evidence(x, default_prior(3))
        with pytest.raises(ValueError, match="overflows"):
            pair_scores("bayes", None, [x], [0.5 * x[::-1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bag_raises(self, bad):
        rng = np.random.default_rng(14)
        x1, x2 = random_pair(rng, 3)
        x1[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            nw_log_evidence(x1, default_prior(3))
        with pytest.raises(ValueError, match="non-finite"):
            pair_scores("bayes", None, [x1], [x2])

    def test_default_prior_cached_and_read_only(self):
        prior = default_prior(5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prior.kappa0 = 5.0

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        x1, x2 = random_pair(rng, 3)
        prior = default_prior(3)
        a = pair_scores("bayes", None, [x1], [x2], prior=prior)[0].value
        b = pair_scores("bayes", None, [x2], [x1], prior=prior)[0].value
        assert a == pytest.approx(b, abs=1e-10)

    def test_distant_copy_scores_lower(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 2))
        prior = default_prior(2)
        same = pair_scores("bayes", None, [x], [x.copy()], prior=prior)[0].value
        far = pair_scores("bayes", None, [x], [x + 50.0], prior=prior)[0].value
        assert far < same

    def test_default_prior_used_when_omitted(self):
        rng = np.random.default_rng(12)
        x1, x2 = random_pair(rng, 3)
        a = pair_scores("bayes", None, [x1], [x2])[0].value
        b = pair_scores("bayes", None, [x1], [x2], prior=default_prior(3))[0].value
        assert a == b

    def test_handles_fewer_points_than_dimensions(self):
        rng = np.random.default_rng(13)
        x1 = rng.standard_normal((3, 8))
        x2 = rng.standard_normal((2, 8))
        value = pair_scores("bayes", None, [x1], [x2])[0].value
        assert math.isfinite(value)

    def test_prior_validation(self):
        for dim, kappa0, nu0 in [(3, 1.0, 2.0), (3, 0.0, 5.0), (3, math.nan, 5.0),
                                 (3, 1.0, math.inf), (0, 1.0, 5.0), (3.0, 1.0, 5.0),
                                 (True, 1.0, 5.0), (np.float64(3), 1.0, 5.0)]:
            with pytest.raises(ValueError):
                NormalWishartPrior(dim, kappa0=kappa0, nu0=nu0)

    @pytest.mark.parametrize("dim", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_prior_accepts_numpy_integer_dim(self, dim):
        prior = NormalWishartPrior(dim, 1.0, 5.0)
        assert prior == NormalWishartPrior(3, 1.0, 5.0) and type(prior.dim) is int
        x = np.random.default_rng(16).standard_normal((4, 3))
        assert nw_log_evidence(x, prior) == nw_log_evidence(x, NormalWishartPrior(3, 1.0, 5.0))


class TestStackedEvidence:
    """``nw_log_evidence`` over a (k, n, d) stack of equal-size bags, and the
    Normal-Wishart pair scores that group their bags into such stacks."""

    @pytest.mark.parametrize("d", [8, 50])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_stack_equals_per_bag_calls(self, d, k, dtype, offset):
        """Bit for bit on both sides of n + 1 = d, and each bag within the
        bounds of the column-major and the dense oracles."""
        rng = np.random.default_rng(5000 + d + k)
        for prior in TestBayesFactor._priors(d):
            for n in sorted({1, 2, d - 2, d - 1, d, d + 5}):
                means = offset * rng.standard_normal((k, 1, d))
                x = (rng.standard_normal((k, n, d)) + means).astype(dtype)
                got = nw_log_evidence(x, prior)
                assert isinstance(got, np.ndarray) and got.shape == (k,)
                assert got.tolist() == [nw_log_evidence(bag, prior) for bag in x]
                for value, bag in zip(got, x):
                    TestBayesFactor.assert_matches_oracles(value, bag.astype(np.float64), prior)

    @pytest.mark.parametrize("n", [2, 9])  # n + 1 < d and n + 1 >= d at d = 8
    def test_bad_stacks_raise(self, n):
        prior = default_prior(8)
        x = np.random.default_rng(72).standard_normal((4, n, 8))
        x[2, 1, 5] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            nw_log_evidence(x, prior)
        for bad in (np.zeros((4, n, 7)), np.zeros((4, 0, 8)), np.zeros(8),
                    np.zeros((2, 4, n, 8))):
            with pytest.raises(ValueError):
                nw_log_evidence(bad, prior)

    def test_pair_scores_one_call_per_row_count(self, monkeypatch):
        """Mixed sizes, some repeated: one stack per distinct row count in
        each of the joint and the single sweeps, no ``np.vstack``, and the
        terms of the per-pair oracle on the stacked pair."""
        rng = np.random.default_rng(73)
        d = 8
        sizes = [(2, 3), (3, 2), (2, 2), (5, 9), (9, 5), (3, 3), (2, 3), (1, 4)]
        first = [rng.standard_normal((n, d)) + 40.0 for n, _ in sizes]
        second = [rng.standard_normal((m, d)) - 3.0 for _, m in sizes]
        want = [pair_score_rows(a, b, "bayes")[0].breakdown for a, b in zip(first, second)]
        shapes = []

        def counted(data, prior):
            shapes.append(np.shape(data))
            return evidence(data, prior)

        def no_stack(*args, **kwargs):
            raise AssertionError("a Normal-Wishart pair was stacked with np.vstack")

        evidence = comparison.nw_log_evidence
        monkeypatch.setattr(comparison, "nw_log_evidence", counted)
        monkeypatch.setattr(np, "vstack", no_stack)
        got = pair_scores("bayes", None, first, second)
        monkeypatch.undo()
        joint = [n + m for n, m in sizes]
        single = [n for n, _ in sizes] + [m for _, m in sizes]
        assert sorted(shapes) == sorted(
            [(joint.count(n), n, d) for n in set(joint)]
            + [(single.count(n), n, d) for n in set(single)])
        names = ("loglik_joint", "loglik_1", "loglik_2", "penalty_joint", "penalty_1", "penalty_2")
        for row, breakdown, a, b in zip(got.terms, want, first, second):
            for name, term, scale in zip(names, row, term_scales(a, b, "bayes")):
                assert term == pytest.approx(getattr(breakdown, name), rel=0.0,
                                             abs=1e-12 * scale), name


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(("model", "ic"),
                         [(model, ic) for model in MODELS for ic in IC_KINDS] + [("bayes", None)])
def test_single_bags_in_one_sweep_match_three_calls(seed, model, ic):
    """Sweeping the first and second bags in one per-bag criterion call gives
    every term, flag and count bit for bit as one call each, and so the same
    Spearman rho; the batch mixes repeated sizes, float32 rows (unit float64
    rows for vMF) and a degenerate vMF pair."""
    rng = np.random.default_rng(seed)
    d, count = 8, 24
    sizes = rng.integers(2, 13, size=(count, 2))
    if model == VMF:
        bags = [uniform_sphere(rng, n, d) for n in sizes.ravel()]
        bags[0] = np.tile(bags[0][0], (len(bags[0]), 1))
    else:
        bags = [(rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d)).astype(np.float32)
                for n in sizes.ravel()]
    first, second = bags[0::2], bags[1::2]
    got = pair_scores(model, ic, first, second, on_degenerate="aic")
    terms, fallback, floored, degenerate = pair_terms_three_calls(model, ic, first, second)
    assert got.terms.tobytes() == terms.tobytes()
    assert got.fallback.tolist() == fallback.tolist()
    assert (got.floored_dims, got.degenerate_fits) == (floored, degenerate)
    ll_j, ll_1, ll_2, p_j, p_1, p_2 = terms.T
    values = got.alpha * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2)
    gold = rng.uniform(0.0, 5.0, count)
    assert spearman(got.values, gold) == spearman(values, gold)


class TestModelSelection:
    def _corpus(self, rng, heteroscedastic, sentences=60, n=12, d=6):
        out = []
        for _ in range(sentences):
            scale = rng.uniform(0.1, 10.0, size=d) ** 0.5 if heteroscedastic else 1.0
            out.append(rng.standard_normal((n, d)) * scale)
        return out

    def test_heteroscedastic_prefers_diagonal(self):
        rng = np.random.default_rng(14)
        rows = corpus_model_selection(self._corpus(rng, True))
        assert rows[0].model == DIAG
        assert rows[0].mean_ic < rows[1].mean_ic

    def test_isotropic_prefers_spherical(self):
        rng = np.random.default_rng(15)
        rows = corpus_model_selection(self._corpus(rng, False, n=40))
        assert rows[0].model == SPHERICAL

    def test_single_bag_mean_equals_its_ic(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((9, 3))
        rows = corpus_model_selection([x], candidates=[(DIAG, "aic")])
        fit = fit_gaussian_rows(x)
        assert rows[0].mean_ic == pytest.approx(
            -2.0 * (fit.max_loglik - 2 * x.shape[1]), rel=1e-12
        )

    @pytest.mark.parametrize("model,k_of_d", [(DIAG, lambda d: 2 * d),
                                              (SPHERICAL, lambda d: d + 1)])
    def test_bic_candidate_is_mean_bic(self, model, k_of_d):
        rng = np.random.default_rng(18)
        corpus = [rng.standard_normal((int(rng.integers(3, 15)), 4)) for _ in range(7)]
        rows = corpus_model_selection(corpus, candidates=[(model, "bic")])
        expected = np.mean([
            -2.0 * fit_gaussian_rows(x, model).max_loglik + k_of_d(4) * math.log(x.shape[0])
            for x in corpus
        ])
        assert rows[0].ic == "bic"
        assert rows[0].mean_ic == pytest.approx(expected, rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_model_selection([])

    def test_empty_candidate_list_rejected_before_the_first_fit(self, monkeypatch):
        import groupsim.comparison as comparison

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the candidates were checked")

        monkeypatch.setattr(comparison, "moments", no_fit)
        monkeypatch.setattr(comparison, "bag_criteria", no_fit)
        corpus = self._unit_corpus(np.random.default_rng(27))
        with pytest.raises(ValueError, match=r"^candidates must name at least one .* got \[\]$"):
            corpus_model_selection(corpus, candidates=[])

    def test_float32_corpus_is_read_one_bag_at_a_time(self):
        """No float64 copy of the whole corpus: numpy reports its buffers to
        tracemalloc, and the traced peak stays under a quarter of that copy."""
        rng = np.random.default_rng(26)
        corpus = [uniform_sphere(rng, 100, 50).astype(np.float32) for _ in range(100)]
        float64_bytes = 8 * sum(x.size for x in corpus)
        tracemalloc.start()
        try:
            rows = corpus_model_selection(corpus, [(DIAG, "aic"), (VMF, "tic")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 2
        assert peak <= 0.25 * float64_bytes, f"traced peak {peak} bytes"

    def test_vmf_candidate_supported(self):
        rng = np.random.default_rng(17)
        corpus = [uniform_sphere(rng, 10, 4) for _ in range(5)]
        rows = corpus_model_selection(corpus, candidates=[(VMF, "tic"), (VMF, "aic")])
        assert {r.model for r in rows} == {VMF}
        assert all(math.isfinite(r.mean_ic) for r in rows)


    @pytest.mark.parametrize("candidate", [(VMF, "aic"), (VMF, "tic"), (DIAG, "aic"),
                                           (SPHERICAL, "bic")])
    def test_mixed_widths_rejected_for_every_candidate(self, candidate):
        rng = np.random.default_rng(19)
        corpus = [uniform_sphere(rng, 6, 3), uniform_sphere(rng, 6, 4)]
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            corpus_model_selection(corpus, candidates=[candidate])

    ALL_CANDIDATES = [(model, ic) for model in (DIAG, SPHERICAL, VMF)
                      for ic in ("tic", "aic", "bic")]

    @staticmethod
    def _unit_corpus(rng, d=5):
        """Unit-row bags of 3 to 30 rows, one of them a repeated row (a
        degenerate vMF fit and a floored Gaussian one)."""
        corpus = [uniform_sphere(rng, int(rng.integers(3, 31)), d) for _ in range(12)]
        corpus[4] = np.tile(corpus[4][0], (4, 1))
        return corpus

    @pytest.mark.parametrize("candidates", [
        ALL_CANDIDATES,
        ALL_CANDIDATES[::-1],
        [(VMF, "aic"), (VMF, "tic")],
        [(VMF, "bic"), (DIAG, "aic"), (VMF, "aic"), (DIAG, "bic"), (SPHERICAL, "tic")],
        [(DIAG, "aic"), (SPHERICAL, "aic"), (VMF, "tic"), (VMF, "aic")],
        [(DIAG, "tic"), (DIAG, "tic")],
    ])
    def test_one_fit_per_model_equals_one_fit_per_candidate(self, candidates):
        corpus = self._unit_corpus(np.random.default_rng(22))
        rows = corpus_model_selection(corpus, candidates, on_degenerate="aic")
        assert rows == corpus_model_selection_per_candidate(corpus, candidates, "aic")

    @pytest.mark.parametrize("candidates", [[(VMF, "aic"), (VMF, "tic")],
                                            [(VMF, "tic"), (VMF, "aic")]])
    def test_degenerate_vmf_bag_raises_whichever_candidate_comes_first(self, candidates):
        corpus = self._unit_corpus(np.random.default_rng(23))
        with pytest.raises(DegenerateCurvatureError):
            corpus_model_selection(corpus, candidates, on_degenerate="error")

    def test_every_candidate_checked_before_the_first_fit(self):
        corpus = self._unit_corpus(np.random.default_rng(24))
        with pytest.raises(ValueError, match="unsupported candidate"):
            corpus_model_selection(corpus, [(VMF, "tic"), ("full", "aic")])

    @pytest.mark.parametrize("candidate", [(DIAG, "aic"), (SPHERICAL, "aic"), (DIAG, "tic")])
    def test_non_finite_criterion_raises(self, candidate):
        rng = np.random.default_rng(25)
        corpus = [rng.standard_normal((6, 3)) for _ in range(3)]
        corpus[1] *= 1e155  # bags 1 and 2 overflow their second moments
        corpus[2] *= 1e155
        message = rf"non-finite L or P for candidate \('{candidate[0]}', '{candidate[1]}'\) in bag 1"
        with pytest.raises(ValueError, match=message):
            corpus_model_selection(corpus, [candidate])


class TestPenaltyCurve:
    def test_seeded_determinism_byte_for_byte(self):
        a = penalty_curve_csv(penalty_curve(DIAG, 5, [5, 20], trials=4, seed=123))
        b = penalty_curve_csv(penalty_curve(DIAG, 5, [5, 20], trials=4, seed=123))
        assert a == b
        assert a.startswith("n,mean_penalty,std_penalty\n")

    def test_gaussian_mean_approaches_param_count(self):
        rows = penalty_curve(DIAG, 10, [10_000], trials=20, seed=7)
        assert abs(rows[0].mean_penalty - 20.0) / 20.0 < 0.05

    def test_vmf_low_variance(self):
        rows = penalty_curve(VMF, 10, [1000], trials=20, seed=8)
        assert rows[0].std_penalty < 0.1 * rows[0].mean_penalty

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            penalty_curve(SPHERICAL, 5, [10], trials=2, seed=0)

    @pytest.mark.parametrize("model,d,sizes,trials", [
        (DIAG, 5, [10], 0),
        (VMF, 5, [10], -1),
        (VMF, 1, [10], 2),
        (DIAG, 5, [10, 1], 2),
        (DIAG, 5, [], 2),
        (DIAG, 5, [2.9, 5], 2),
        (DIAG, 5, [5.0], 2),
        (DIAG, 5, [True, 5], 2),
        (DIAG, 5, [10], 2.5),
        (DIAG, 5, [10], True),
        (DIAG, 3.5, [10], 2),
        (VMF, 3.5, [10], 2),
        (DIAG, True, [10], 2),
    ])
    def test_rejects_bad_arguments(self, model, d, sizes, trials, monkeypatch):
        # every argument is checked, and named, before the first draw
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="dimension|trials|sizes"):
            penalty_curve(model, d, sizes, trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [2.5, "3", None, True, -1])
    def test_rejects_bad_seed(self, seed, monkeypatch):
        # the cases of test_rejects_bad_arguments, for the seed: checked before any draw
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            penalty_curve(DIAG, 5, [10], trials=2, seed=seed)

    def test_numpy_integers_accepted(self):
        rows = penalty_curve(DIAG, np.int64(3), np.array([5, 10]), trials=np.int32(2), seed=0)
        assert rows == penalty_curve(DIAG, 3, [5, 10], trials=2, seed=0)
        assert penalty_curve(DIAG, 3, [5], trials=2, seed=np.int64(4)) == penalty_curve(
            DIAG, 3, [5], trials=2, seed=4)
        assert [type(row.n) for row in rows] == [int, int]


class TestOnDegenerate:
    """``on_degenerate`` takes "error" or "aic" only, checked on every entry
    point whether or not a bag is degenerate."""

    BAD = ["AIC", "warn", "skip", None]

    @staticmethod
    def _bags(degenerate):
        x = np.tile(np.array([0.0, 1.0, 0.0]), (3, 1))  # one repeated direction
        if not degenerate:
            x = uniform_sphere(np.random.default_rng(31), 6, 3)
        return x, x.copy()

    @pytest.mark.parametrize("degenerate", [True, False])
    @pytest.mark.parametrize("value", BAD)
    def test_similarity_ic(self, degenerate, value):
        """One vMF/TIC pair, degenerate or not, scored by ``pair_scores``
        (the single-pair ``similarity_ic`` it once went through is gone)."""
        x1, x2 = self._bags(degenerate)
        with pytest.raises(ValueError, match=r"on_degenerate must be one of \('error', 'aic'\)"):
            pair_scores(VMF, "tic", [x1], [x2], on_degenerate=value)

    @pytest.mark.parametrize("model,ic", [(VMF, "tic"), (VMF, "aic"), (DIAG, "aic")])
    @pytest.mark.parametrize("value", BAD)
    def test_pair_scores(self, model, ic, value):
        x1, x2 = self._bags(degenerate=True)
        with pytest.raises(ValueError, match=r"on_degenerate must be one of \('error', 'aic'\)"):
            pair_scores(model, ic, [x1], [x2], on_degenerate=value)

    @pytest.mark.parametrize("value", BAD)
    def test_corpus_model_selection_checks_before_the_first_fit(self, value, monkeypatch):
        import groupsim.comparison as comparison

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before on_degenerate was checked")

        monkeypatch.setattr(comparison, "moments", no_fit)
        monkeypatch.setattr(comparison, "fit_vmf", no_fit)
        corpus = list(self._bags(degenerate=True))
        for candidates in ([(DIAG, "aic")], [(VMF, "tic")]):
            with pytest.raises(ValueError, match="on_degenerate"):
                corpus_model_selection(corpus, candidates, on_degenerate=value)


class TestSharedPadRow:
    """Every looked-up bag ends in the pad row, so both bags of a pair share
    it.  Under the null (all rows from one law) a shared row raises the
    score: 3 rows plus a shared pad row per bag score higher on average than
    4 independent rows per bag, by more than 3 standard errors of the
    difference of the two means (200 pairs each, d = 16, seed 5)."""

    D, PAIRS = 16, 200

    @pytest.mark.parametrize("model,ic", [(DIAG, "aic"), (VMF, "tic")])
    def test_shared_pad_row_raises_the_null_score(self, model, ic):
        rng = np.random.default_rng(5)

        def draw(n):
            x = rng.standard_normal((n, self.D))
            return x / np.linalg.norm(x, axis=1, keepdims=True) if model == VMF else x

        shared_first, shared_second, first, second = [], [], [], []
        for _ in range(self.PAIRS):
            pad = draw(1)
            shared_first.append(np.vstack([draw(3), pad]))
            shared_second.append(np.vstack([draw(3), pad]))
            first.append(draw(4))
            second.append(draw(4))
        shared = pair_scores(model, ic, shared_first, shared_second)
        independent = pair_scores(model, ic, first, second)
        assert shared.fallback_pairs == independent.fallback_pairs == 0
        excess = shared.values.mean() - independent.values.mean()
        se = math.sqrt((shared.values.var(ddof=1) + independent.values.var(ddof=1)) / self.PAIRS)
        assert excess > 3 * se, (shared.values.mean(), independent.values.mean(), se)
