import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.baselines import (
    FrequencyTable,
    cosine,
    first_singular_direction,
    load_frequencies,
    mwv_similarity,
    remove_first_pc,
    sif_embed,
)
from groupsim.errors import EmbeddingFormatError


class TestMwv:
    def test_identical_bags(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        assert mwv_similarity(x, x.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_means(self):
        x1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        x2 = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert mwv_similarity(x1, x2) == pytest.approx(0.0, abs=1e-15)

    def test_against_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x1 = rng.standard_normal((5, 4))
            x2 = rng.standard_normal((7, 4))
            m1, m2 = x1.mean(0), x2.mean(0)
            naive = float(m1 @ m2 / (np.linalg.norm(m1) * np.linalg.norm(m2)))
            assert mwv_similarity(x1, x2) == pytest.approx(naive, abs=1e-12)

    def test_zero_mean_rejected(self):
        x1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        x2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero"):
            mwv_similarity(x1, x2)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((4, 3))
        x2 = rng.standard_normal((4, 3))
        assert mwv_similarity(c * x1, c * x2) == pytest.approx(
            mwv_similarity(x1, x2), abs=1e-9
        )


class TestSif:
    def test_weight_half_when_p_equals_a(self, store):
        freqs = FrequencyTable(counts={"cat": 1, "dog": 999}, total=1000)
        a = 1e-3  # p(cat) = 1e-3 = a, weight 1/2
        vec = sif_embed(["cat"], store, freqs, a=a)
        np.testing.assert_allclose(vec, 0.5 * store.vector("cat"), atol=1e-12)

    def test_absent_tokens_get_weight_one(self, store):
        freqs = FrequencyTable(counts={"unrelated": 10}, total=10)
        vec = sif_embed(["cat", "dog"], store, freqs, a=1e-3)
        mean = 0.5 * (store.vector("cat") + store.vector("dog"))
        np.testing.assert_allclose(vec, mean, atol=1e-12)

    def test_no_freqs_is_plain_mean(self, store):
        vec = sif_embed(["cat", "dog"], store, None)
        mean = 0.5 * (store.vector("cat") + store.vector("dog"))
        np.testing.assert_allclose(vec, mean, atol=1e-12)

    def test_hand_computed_weighted_mean(self, store):
        freqs = FrequencyTable(counts={"cat": 10, "dog": 90}, total=100)
        a = 0.05
        w_cat = a / (a + 0.1)
        w_dog = a / (a + 0.9)
        expected = (w_cat * store.vector("cat") + w_dog * store.vector("dog")) / 2.0
        np.testing.assert_allclose(sif_embed(["cat", "dog"], store, freqs, a=a), expected,
                                   atol=1e-12)

    def test_monotone_decreasing_weight(self):
        a = 1e-3
        weights = [a / (a + p) for p in (0.0, 1e-4, 1e-3, 1e-2, 0.5)]
        assert all(w1 > w2 for w1, w2 in zip(weights, weights[1:]))

    def test_no_retained_tokens(self, store):
        with pytest.raises(ValueError, match="no in-vocabulary"):
            sif_embed(["zzz"], store, None)

    def test_rejects_nonpositive_a(self, store):
        with pytest.raises(ValueError):
            sif_embed(["cat"], store, None, a=0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_non_finite_a(self, store, a):
        with pytest.raises(ValueError, match="finite"):
            sif_embed(["cat"], store, None, a=a)


class TestFrequencyTable:
    def test_loader(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the 100\ncat 10\n")
        table = load_frequencies(path)
        assert table.total == 110
        assert table.probability("cat") == pytest.approx(10 / 110)
        assert table.probability("unseen") == 0.0

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\n")
        with pytest.raises(EmbeddingFormatError):
            load_frequencies(path)

    def test_total_invariant(self):
        with pytest.raises(ValueError):
            FrequencyTable(counts={"a": 5}, total=6)


class TestRemoveFirstPc:
    def test_equal_rows_become_zero(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
        out = remove_first_pc(x)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_output_orthogonal_to_direction(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 6))
        u, converged = first_singular_direction(x)
        assert converged
        out = remove_first_pc(x)
        assert np.max(np.abs(out @ u)) < 1e-8

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        _, _, vt = np.linalg.svd(x, full_matrices=False)
        u = vt[0]
        expected = x - np.outer(x @ u, u)
        np.testing.assert_allclose(remove_first_pc(x), expected, atol=1e-6)

    def test_projection_idempotent(self):
        # deflating again along the same direction changes nothing; a fresh
        # run would find the next principal direction instead
        rng = np.random.default_rng(5)
        x = rng.standard_normal((15, 4))
        u, _ = first_singular_direction(x)
        once = remove_first_pc(x)
        again = once - np.outer(once @ u, u)
        np.testing.assert_allclose(again, once, atol=1e-8)

    def test_rank_one_fixed_point(self):
        # on an exactly deflated rank-structured input the full operation is
        # a fixed point up to removing a further component of zero size
        x = np.outer(np.arange(1.0, 6.0), np.array([0.0, 3.0, 4.0]))
        once = remove_first_pc(x)
        np.testing.assert_allclose(once, 0.0, atol=1e-9)
        np.testing.assert_allclose(remove_first_pc(once), once, atol=1e-9)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 5))
        np.testing.assert_array_equal(remove_first_pc(x, seed=1), remove_first_pc(x, seed=1))

    def test_nonconvergence_reported_but_returns(self, caplog):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 8))
        with caplog.at_level("WARNING"):
            out = remove_first_pc(x, max_iter=1)
        assert out.shape == x.shape
        assert any("converge" in rec.message for rec in caplog.records)


class TestCosine:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12
