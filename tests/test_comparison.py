import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.comparison import (
    DIAG,
    SPHERICAL,
    VMF,
    NormalWishartPrior,
    bayes_factor_similarity,
    corpus_model_selection,
    default_prior,
    nw_log_evidence,
    pair_scores,
    penalty_curve,
    penalty_curve_csv,
    similarity_closed_gaussian,
    similarity_closed_vmf,
    similarity_ic,
)
from groupsim.errors import DegenerateCurvatureError
from groupsim.gaussian import fit_gaussian, gaussian_tic_penalty
from groupsim.special import log_multivariate_gamma
from groupsim.vmf import fit_vmf

from helpers import (
    corpus_model_selection_per_candidate,
    log_gamma_ratio_mp,
    nw_log_evidence_columns,
    nw_log_evidence_dense,
    nw_log_evidence_mp,
    nw_log_evidence_quadrature,
    random_rotation,
    uniform_sphere,
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
        fit = fit_gaussian(x)
        score = similarity_ic(x, x, DIAG, "tic")
        assert score.value == pytest.approx(2.0 * gaussian_tic_penalty(fit), abs=1e-9)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(1)
        x1, x2 = random_pair(rng, 3)
        for model, ic, unit in ((DIAG, "tic", False), (DIAG, "aic", False),
                                (SPHERICAL, "aic", False), (VMF, "tic", True),
                                (VMF, "aic", True)):
            a, b = random_pair(rng, 3, unit=unit) if unit else (x1, x2)
            score = similarity_ic(a, b, model, ic)
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
                fit = fit_gaussian(x)
                return -2.0 * (fit.max_loglik - gaussian_tic_penalty(fit))

            expected = -ic_of(joint) + ic_of(x1) + ic_of(x2)
            got = similarity_ic(x1, x2, DIAG, "tic").value
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_pair(rng, 3)
        a = similarity_ic(x1, x2, DIAG, "tic").value
        b = similarity_ic(x2, x1, DIAG, "tic").value
        assert a == pytest.approx(b, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_within_bag_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_pair(rng, 3)
        perm1 = rng.permutation(x1.shape[0])
        perm2 = rng.permutation(x2.shape[0])
        a = similarity_ic(x1, x2, DIAG, "tic").value
        b = similarity_ic(x1[perm1], x2[perm2], DIAG, "tic").value
        assert a == pytest.approx(b, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            similarity_ic(np.zeros((3, 2)), np.zeros((3, 3)), DIAG, "aic")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(("ic", "scale"), [("tic", 1e150), ("aic", 1e155)])
    def test_overflowing_fit_raises_instead_of_nan(self, ic, scale):
        x = np.random.default_rng(17).standard_normal((6, 3)) * scale
        with pytest.raises(ValueError, match="non-finite L or P term in pair 1"):
            pair_scores(DIAG, ic, [x[:3] / scale, x], [x[3:] / scale, 0.5 * x])
        with pytest.raises(ValueError, match="non-finite"):
            similarity_ic(x, 0.5 * x, DIAG, ic)

    @pytest.mark.parametrize("model", [DIAG, SPHERICAL])
    def test_aic_reads_no_fourth_moment(self, model):
        """Entries near 1e78 overflow M4 but not M2, and "aic" reads only M2:
        the score is finite and no overflow warning is raised (the suite turns
        every RuntimeWarning into an error)."""
        x = np.random.default_rng(21).standard_normal((6, 3)) * 1e78
        assert math.isfinite(similarity_ic(x, 0.5 * x + 1e77, model, "aic").value)

    def test_rejects_unknown_model_or_ic(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            similarity_ic(x, x, "full", "tic")
        with pytest.raises(ValueError):
            similarity_ic(x, x, DIAG, "bogus")


class TestClosedForms:
    @pytest.mark.parametrize("seed", range(8))
    def test_vmf_closed_equals_half_generic(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_pair(rng, 4, unit=True)
        closed = similarity_closed_vmf(x1, x2).value
        generic = similarity_ic(x1, x2, VMF, "tic").value
        assert closed == pytest.approx(generic / 2.0, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_closed_equals_half_generic(self, seed):
        rng = np.random.default_rng(100 + seed)
        x1, x2 = random_pair(rng, 4)
        closed = similarity_closed_gaussian(x1, x2).value
        generic = similarity_ic(x1, x2, DIAG, "tic").value
        assert closed == pytest.approx(generic / 2.0, rel=1e-9, abs=1e-9)

    def test_identical_bags_reduce_to_penalty(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 5))
        fit = fit_gaussian(x)
        assert similarity_closed_gaussian(x, x).value == pytest.approx(
            gaussian_tic_penalty(fit), abs=1e-9
        )

    def test_identical_single_direction_no_nan(self):
        v = np.array([0.0, 1.0, 0.0])
        x = np.tile(v, (3, 1))
        score = similarity_closed_vmf(x, x, on_degenerate="aic")
        assert math.isfinite(score.value)
        assert score.fallback

    def test_vmf_rejects_non_finite_row(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bad = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            similarity_closed_vmf(x, bad)

    def test_vmf_rotation_invariance(self):
        rng = np.random.default_rng(4)
        x1, x2 = random_pair(rng, 5, unit=True)
        base = similarity_closed_vmf(x1, x2).value
        rot = random_rotation(np.random.default_rng(9), 5)
        rotated = similarity_closed_vmf(x1 @ rot.T, x2 @ rot.T).value
        assert rotated == pytest.approx(base, abs=1e-6)

    def test_gaussian_translation_invariance(self):
        rng = np.random.default_rng(5)
        x1, x2 = random_pair(rng, 4)
        shift = rng.uniform(-3, 3, size=4)
        base = similarity_closed_gaussian(x1, x2).value
        shifted = similarity_closed_gaussian(x1 + shift, x2 + shift).value
        assert shifted == pytest.approx(base, abs=1e-9)


class TestBic:
    def test_equal_sizes_penalty(self):
        rng = np.random.default_rng(6)
        n, d = 5, 3
        x1 = rng.standard_normal((n, d))
        x2 = rng.standard_normal((n, d))
        score = similarity_ic(x1, x2, DIAG, ic="bic")
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
            kind = "diagonal" if model == DIAG else "spherical"

            def bic_of(x):
                fit = fit_gaussian(x, kind=kind)
                return -2.0 * fit.max_loglik + k * math.log(x.shape[0])

            expected = -bic_of(np.vstack([x1, x2])) + bic_of(x1) + bic_of(x2)
            assert similarity_ic(x1, x2, model, ic="bic").value == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )

    def test_separated_groups_score_lower(self):
        d1 = np.array([[0.0], [0.1]])
        far = np.array([[5.0], [5.1]])
        near = np.array([[0.05], [0.15]])
        assert (similarity_ic(d1, far, DIAG, ic="bic").value
                < similarity_ic(d1, near, DIAG, ic="bic").value)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(8)
        x1, x2 = random_pair(rng, 3)
        score = similarity_ic(x1, x2, DIAG, ic="bic")
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
            return -2.0 * fit.max_loglik + 4 * math.log(x.shape[0])

        expected = -bic_of(np.vstack([x1, x2])) + bic_of(x1) + bic_of(x2)
        assert similarity_ic(x1, x2, VMF, ic="bic").value == pytest.approx(
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
        eps = np.finfo(float).eps
        for prior in self._priors(d):
            sizes = [1] if bag == "one_row" else sorted(
                {n for n in (2, d - 1, d, d + 1) if n >= 2})
            for n in sizes:
                if bag == "identical_rows":
                    x = np.tile(rng.standard_normal(d), (n, 1))
                else:
                    offset = 1e6 if bag == "offset_1e6" else 1e3
                    x = rng.standard_normal((n, d)) + offset * rng.standard_normal(d)
                value = nw_log_evidence(x, prior)
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
                assert value == pytest.approx(nw_log_evidence_dense(x, prior),
                                              rel=1e-10, abs=dense_tol)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_raises(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((5, 3)) * 1e155
        with pytest.raises(ValueError, match="overflows"):
            nw_log_evidence(x, default_prior(3))
        with pytest.raises(ValueError, match="overflows"):
            bayes_factor_similarity(x, 0.5 * x[::-1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bag_raises(self, bad):
        rng = np.random.default_rng(14)
        x1, x2 = random_pair(rng, 3)
        x1[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            nw_log_evidence(x1, default_prior(3))
        with pytest.raises(ValueError, match="non-finite"):
            bayes_factor_similarity(x1, x2)

    def test_default_prior_cached_and_read_only(self):
        prior = default_prior(5)
        assert default_prior(5) is prior
        with pytest.raises(dataclasses.FrozenInstanceError):
            prior.kappa0 = 5.0

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        x1, x2 = random_pair(rng, 3)
        prior = default_prior(3)
        a = bayes_factor_similarity(x1, x2, prior).value
        b = bayes_factor_similarity(x2, x1, prior).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_distant_copy_scores_lower(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 2))
        prior = default_prior(2)
        same = bayes_factor_similarity(x, x.copy(), prior).value
        far = bayes_factor_similarity(x, x + 50.0, prior).value
        assert far < same

    def test_default_prior_used_when_omitted(self):
        rng = np.random.default_rng(12)
        x1, x2 = random_pair(rng, 3)
        a = bayes_factor_similarity(x1, x2).value
        b = bayes_factor_similarity(x1, x2, default_prior(3)).value
        assert a == b

    def test_handles_fewer_points_than_dimensions(self):
        rng = np.random.default_rng(13)
        x1 = rng.standard_normal((3, 8))
        x2 = rng.standard_normal((2, 8))
        value = bayes_factor_similarity(x1, x2).value
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
        fit = fit_gaussian(x)
        assert rows[0].mean_ic == pytest.approx(
            -2.0 * (fit.max_loglik - 2 * x.shape[1]), rel=1e-12
        )

    @pytest.mark.parametrize("model,kind,k_of_d", [(DIAG, "diagonal", lambda d: 2 * d),
                                                   (SPHERICAL, "spherical", lambda d: d + 1)])
    def test_bic_candidate_is_mean_bic(self, model, kind, k_of_d):
        rng = np.random.default_rng(18)
        corpus = [rng.standard_normal((int(rng.integers(3, 15)), 4)) for _ in range(7)]
        rows = corpus_model_selection(corpus, candidates=[(model, "bic")])
        expected = np.mean([
            -2.0 * fit_gaussian(x, kind=kind).max_loglik + k_of_d(4) * math.log(x.shape[0])
            for x in corpus
        ])
        assert rows[0].ic == "bic"
        assert rows[0].mean_ic == pytest.approx(expected, rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_model_selection([])

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    ])
    def test_rejects_bad_arguments(self, model, d, sizes, trials):
        with pytest.raises(ValueError):
            penalty_curve(model, d, sizes, trials=trials, seed=0)
