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
    penalty_curve,
    penalty_curve_csv,
    similarity_closed_gaussian,
    similarity_closed_vmf,
    similarity_ic,
)
from groupsim.gaussian import fit_gaussian, gaussian_tic_penalty
from groupsim.vmf import fit_vmf

from helpers import (
    nw_log_evidence_dense,
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
                                 (3, 1.0, math.inf), (0, 1.0, 5.0), (3.0, 1.0, 5.0)]:
            with pytest.raises(ValueError):
                NormalWishartPrior(dim, kappa0=kappa0, nu0=nu0)


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
