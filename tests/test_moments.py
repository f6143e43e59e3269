"""Per-bag Gaussian moments and their merge, against the row-based oracle.

Pooled moments from :func:`merge_moments` must equal the moments of the
stacked rows, and every fit, floored-dimension count and pair score read off
moments must equal the row-based fits of ``tests/helpers.py``, at 1e-12
relative.  The batch scorer is also checked, for every model, against the
per-pair composition of ``tests/helpers.py`` on a stacked joint bag.
Moments taken to order 2 must equal the n, mean and M2 of the full ones bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.comparison import DIAG, _criteria, pair_scores
from groupsim.gaussian import (
    SPHERICAL,
    merge_moments,
    moment_fit,
    moments,
    radial_sq_sum,
    tic_penalties,
)

from helpers import fit_gaussian_rows, pair_score_rows

RTOL = 1e-12


@st.composite
def bag_pairs(draw):
    """Two bags with means up to 1e3 spreads from 0, constant columns,
    identical bags and double-padded (two equal rows) bags."""
    d = draw(st.sampled_from([1, 3, 300]))
    n1, n2 = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-2, 1.0, 1e2]))
    offset = draw(st.sampled_from([0.0, 1.0, 30.0, 1e3]))  # |mean| in spreads, at most
    constant = rng.random(d) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    level = offset * spread * rng.uniform(-1.0, 1.0, d)  # of the columns constant in both bags

    def bag(n):
        x = offset * spread * rng.uniform(-1.0, 1.0, d) + spread * rng.standard_normal((n, d))
        x[:, constant] = level[constant]
        return x

    x1, x2 = bag(n1), bag(n2)
    shape = draw(st.sampled_from(["random", "identical", "one padded", "both padded"]))
    if shape == "identical":
        x2 = x1.copy()
    elif shape == "one padded":
        x2 = np.vstack([x1[0], x1[0]])
    elif shape == "both padded":
        x1 = x2 = np.vstack([x1[0], x1[0]])
    return x1, x2


def assert_moments_close(got, want):
    """rtol 1e-12 against the scale n s^k of M_k, where s is a column's spread
    or, where larger, 1e-3 of its mean.

    A value x is stored to about 1e-16 |x|, so no float64 computation, the
    two-pass oracle included, resolves a column's deviations better than
    1e-16 of its mean; the floor holds a column whose rows happen to nearly
    coincide (or are constant) to the 1e-3 mean-to-spread bound of the
    generated bags, as if its spread were at that bound.
    """
    np.testing.assert_array_equal(got.n, want.n)
    n = want.n[:, None]
    scale = np.maximum(np.sqrt(want.m2 / n), 1e-3 * np.abs(want.mean))
    for field, atol in [("mean", RTOL * scale)] + [(f"m{k}", RTOL * n * scale**k)
                                                   for k in (2, 3, 4)]:
        g, w = getattr(got, field), getattr(want, field)
        excess = np.abs(g - w) - (atol + RTOL * np.abs(w))
        assert np.all(excess <= 0.0), (field, float(excess.max()), g.ravel()[:4], w.ravel()[:4])


class TestMerge:
    @given(bag_pairs())
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_moments_of_stacked_rows(self, pair):
        x1, x2 = pair
        assert_moments_close(merge_moments(moments(x1), moments(x2)), moments(np.vstack(pair)))

    def test_merge_is_exact_on_small_integers(self):
        x1 = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        x2 = np.array([[8.0, -1.0], [6.0, 1.0]])
        merged = merge_moments(moments(x1), moments(x2))
        stacked = np.vstack([x1, x2])
        dev = stacked - stacked.mean(axis=0)
        np.testing.assert_array_equal(merged.n, [5.0])
        np.testing.assert_allclose(merged.mean[0], stacked.mean(axis=0), rtol=1e-15)
        for k in (2, 3, 4):
            np.testing.assert_allclose(getattr(merged, f"m{k}")[0], (dev**k).sum(axis=0),
                                       rtol=1e-14, atol=1e-12)


class TestMomentOrder:
    @staticmethod
    def assert_same_m2(got, want):
        assert got.m3 is None and got.m4 is None
        for field in ("n", "mean", "mean_err", "m2"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    @given(bag_pairs())
    @settings(max_examples=60, deadline=None)
    def test_order_2_equals_full_moments_bit_for_bit(self, pair):
        low, full = moments(*pair, order=2), moments(*pair)
        self.assert_same_m2(low, full)
        first, second = slice(0, 1), slice(1, 2)
        self.assert_same_m2(low.take(second), full.take(second))
        self.assert_same_m2(merge_moments(low.take(first), low.take(second)),
                            merge_moments(full.take(first), full.take(second)))
        self.assert_same_m2(merge_moments(full.take(first), low.take(second)),
                            merge_moments(full.take(first), full.take(second)))
        for kind in (DIAG, SPHERICAL):
            ll, var, kurt, floored = moment_fit(low, kind)
            want = moment_fit(full, kind)
            assert kurt is None
            for got, expected in zip((ll, var, floored), (want[0], want[1], want[3])):
                np.testing.assert_array_equal(got, expected)

    def test_only_orders_2_and_4(self):
        with pytest.raises(ValueError, match="order must be 2 or 4"):
            moments(np.zeros((3, 2)), order=3)

    def test_diagonal_tic_without_m4_raises(self):
        x = np.random.default_rng(10).standard_normal((5, 3))
        _, var, kurt, _ = moment_fit(moments(x, order=2), DIAG)
        with pytest.raises(ValueError, match="order 4"):
            tic_penalties(DIAG, 3, var, kurt)
        with pytest.raises(ValueError, match="order 4"):
            _criteria(DIAG, "tic", [(x,)], (moments(x, order=2), None), "error", None)


class TestFitsFromMoments:
    @given(bag_pairs())
    @settings(max_examples=100, deadline=None)
    def test_joint_fit_and_floored_dims_equal_stacked_oracle(self, pair):
        stacked = np.vstack(pair)
        merged = merge_moments(moments(pair[0]), moments(pair[1]))
        for kind in (DIAG, SPHERICAL):
            loglik, var, kurt, floored = moment_fit(merged, kind)
            oracle = fit_gaussian_rows(stacked, kind)
            assert floored[0] == oracle.floored_dims
            assert loglik[0] == pytest.approx(oracle.max_loglik, rel=RTOL)
            # as in assert_moments_close: spread floored at 1e-3 of the mean
            scale = np.maximum(oracle.var_hat, (1e-3 * oracle.mu_hat) ** 2)
            excess = np.abs(var[0] - oracle.var_hat) - RTOL * scale
            assert np.all(excess <= 0.0), float(excess.max())

    @given(bag_pairs())
    @settings(max_examples=50, deadline=None)
    def test_one_bag_fit_equals_row_fit(self, pair):
        for x in pair:
            mom = moments(x)
            for kind in (DIAG, SPHERICAL):
                loglik, var, _, floored = moment_fit(mom, kind)
                oracle = fit_gaussian_rows(x, kind)
                assert floored[0] == oracle.floored_dims
                assert loglik[0] == pytest.approx(oracle.max_loglik, rel=RTOL)
                np.testing.assert_allclose(np.broadcast_to(var[0], oracle.var_hat.shape),
                                           oracle.var_hat, rtol=RTOL)
                if kind == SPHERICAL:
                    radial_sq_mean = radial_sq_sum(x, mom.mean[0], mom.mean_err[0]) / len(x)
                    assert radial_sq_mean == pytest.approx(oracle.radial_sq_mean, rel=RTOL)


def assert_scores_close(got, want):
    """Each breakdown term at rel 1e-12, the value to 1e-12 of the terms' scale."""
    b, w = got.breakdown, want.breakdown
    terms = ("loglik_joint", "loglik_1", "loglik_2", "penalty_joint", "penalty_1", "penalty_2")
    for name in terms:
        assert getattr(b, name) == pytest.approx(getattr(w, name), rel=RTOL, abs=0.0), name
    assert b.alpha == w.alpha
    scale = w.alpha * sum(abs(getattr(w, name)) for name in terms)
    assert got.value == pytest.approx(want.value, rel=0.0, abs=RTOL * scale)
    assert got.fallback == want.fallback
    assert got.method == want.method


class TestPairScores:
    @pytest.mark.parametrize("model,ic", [
        ("diag", "tic"), ("diag", "aic"), ("diag", "bic"),
        ("spherical", "tic"), ("spherical", "aic"), ("spherical", "bic"),
    ])
    @given(pair=bag_pairs())
    @settings(max_examples=40, deadline=None)
    def test_similarity_ic_equals_stacked_oracle(self, model, ic, pair):
        """A batch of one (what the removed ``similarity_ic`` returned)."""
        want, floored = pair_score_rows(*pair, model, ic)
        scores = pair_scores(model, ic, [pair[0]], [pair[1]])
        assert_scores_close(scores[0], want)
        assert scores.floored_dims == floored

    @pytest.mark.parametrize("model", ["diag", "spherical"])
    def test_far_from_origin_sweep_equals_stacked_oracle(self, model):
        """Bags of 2-4 equal rows around a point up to 1e3 from 0, one row of
        one bag (of both on odd draws) moved by 5e-4 to 0.1 along one axis:
        spreads down to 1e-6 of |mean|.  A merge that takes delta from the
        rounded means alone loses |mean| / spread ulps in the pooled M2, and
        a radial term read about the rounded mean as many; every term must
        still match the stacked rows at RTOL."""
        rng = np.random.default_rng(1)
        for draw in range(200):
            base = rng.uniform(-1000.0, 1000.0, 3)
            bags = [np.tile(base, (int(rng.integers(2, 5)), 1)) for _ in range(2)]
            for x in bags[:1 + draw % 2]:
                x[-1, rng.integers(3)] += 10.0 ** rng.uniform(-3.3, -1.0)
            want, floored = pair_score_rows(*bags, model, "tic")
            got = pair_scores(model, "tic", [bags[0]], [bags[1]])
            assert_scores_close(got[0], want)
            assert got.floored_dims == floored

    def test_batch_rows_equal_pairs_scored_alone(self):
        rng = np.random.default_rng(9)
        pairs = [(rng.standard_normal((n, 5)), rng.standard_normal((m, 5)) + 1.0)
                 for n, m in ((2, 7), (4, 4), (11, 3))]
        # a bag of one repeated row: floored Gaussian variances, a degenerate vMF curvature
        pairs.append((np.tile(rng.standard_normal(5), (3, 1)), rng.standard_normal((4, 5))))
        unit = [tuple(x / np.linalg.norm(x, axis=1, keepdims=True) for x in pair)
                for pair in pairs]
        for model, ic in (("diag", "tic"), ("spherical", "tic"), ("spherical", "bic"),
                          ("vmf", "tic"), ("vmf", "aic"), ("bayes", None)):
            bags = unit if model == "vmf" else pairs
            batch = pair_scores(model, ic, [a for a, _ in bags], [b for _, b in bags],
                                on_degenerate="aic")
            floored = 0
            for p, pair in enumerate(bags):
                want, dims = pair_score_rows(*pair, model, ic)
                assert_scores_close(batch[p], want)
                floored += dims
            assert batch.floored_dims == floored
            assert batch.fallback_pairs == (1 if (model, ic) == ("vmf", "tic") else 0)

    def test_single_vector_bag_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            pair_scores("diag", "aic", [np.ones((1, 3))], [np.zeros((4, 3))])
