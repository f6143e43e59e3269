import codecs
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim import baselines
from groupsim.baselines import (
    FrequencyTable,
    first_singular_direction,
    load_frequencies,
    remove_first_pc,
    row_cosines,
    sif_weights,
)
from groupsim.errors import EmbeddingFormatError
from groupsim.evaluation import EvalOptions, embedding_scores, pair_block, score_pair

from helpers import block_of

PAD = "."


def cos(u, v) -> float:
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def sif_score(store, a: str, b: str, freqs=None, sif_a: float = 1e-3) -> float:
    """The harness's "sif" score of one pair, from a block of two sentences."""
    block = pair_block(store, [(a, b, 0.0)], PAD)
    return float(embedding_scores("sif", block, EvalOptions(sif_a=sif_a, freqs=freqs))[0])


def mwv(x1, x2) -> float:
    """The harness's "mwv" score of two bags of rows, from a block of two."""
    return float(embedding_scores("mwv", block_of(x1, x2), EvalOptions())[0])


def vec(store, token: str) -> np.ndarray:
    return store.vector(token).astype(np.float64)


class TestMwv:
    def test_identical_bags(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        assert mwv(x, x.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_means(self):
        x1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        x2 = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert mwv(x1, x2) == pytest.approx(0.0, abs=1e-15)

    def test_against_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x1 = rng.standard_normal((5, 4))
            x2 = rng.standard_normal((7, 4))
            m1, m2 = x1.mean(0), x2.mean(0)
            naive = float(m1 @ m2 / (np.linalg.norm(m1) * np.linalg.norm(m2)))
            assert mwv(x1, x2) == pytest.approx(naive, abs=1e-12)

    def test_zero_mean_scores_zero(self, store):
        # the harness's policy: a zero mean vector gives the neutral score 0.0
        x1 = np.array([[1.0, 0.0, 2.0, 0.0], [-1.0, 0.0, -2.0, 0.0]])
        x2 = np.array([[1.0, 0.0, 0.0, 3.0], [1.0, 0.0, 1.0, 0.0]])
        assert mwv(x1, x2) == 0.0
        assert score_pair("mwv", block_of(x1), block_of(x2), store).value == 0.0

    def test_equals_harness(self, store):
        # a pair scored alone equals its row of a whole dataset's batch, bit for bit
        rng = np.random.default_rng(9)
        pairs = [(rng.standard_normal((5, 4)), rng.standard_normal((3, 4))) for _ in range(20)]
        block = block_of(*(x1 for x1, _ in pairs), *(x2 for _, x2 in pairs))
        batch = embedding_scores("mwv", block, EvalOptions())
        alone = [score_pair("mwv", block_of(x1), block_of(x2), store).value for x1, x2 in pairs]
        assert alone == batch.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mwv(np.ones((2, 3)), np.ones((2, 4)))

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((4, 3))
        x2 = rng.standard_normal((4, 3))
        assert mwv(c * x1, c * x2) == pytest.approx(mwv(x1, x2), abs=1e-9)


class TestSif:
    def test_weight_half_when_p_equals_a(self, store):
        freqs = FrequencyTable(counts={"cat": 1, "dog": 999})
        a = 1e-3  # p(cat) = 1e-3 = a, weight 1/2
        w_cat, w_dog = sif_weights(["cat", "dog"], freqs, a)
        assert w_cat == pytest.approx(0.5, abs=1e-12)
        expected = cos(0.5 * vec(store, "cat") + w_dog * vec(store, "dog"), vec(store, "sat"))
        assert sif_score(store, "cat dog", "sat", freqs, a) == pytest.approx(expected, abs=1e-12)

    def test_absent_tokens_get_weight_one(self, store):
        freqs = FrequencyTable(counts={"unrelated": 10})
        np.testing.assert_array_equal(sif_weights(["cat", "dog"], freqs, 1e-3), [1.0, 1.0])
        expected = cos(vec(store, "cat") + vec(store, "dog"), vec(store, "sat"))
        assert sif_score(store, "cat dog", "sat", freqs) == pytest.approx(expected, abs=1e-12)

    def test_no_freqs_is_plain_mean(self, store):
        # the mean of the token rows alone: the pad row is left out
        expected = cos(vec(store, "cat") + vec(store, "dog"), vec(store, "sat") + vec(store, "mat"))
        assert sif_score(store, "cat dog", "sat mat") == pytest.approx(expected, abs=1e-12)

    def test_hand_computed_weighted_mean(self, store):
        freqs = FrequencyTable(counts={"cat": 10, "dog": 90})
        a = 0.05
        w_cat = a / (a + 0.1)
        w_dog = a / (a + 0.9)
        np.testing.assert_allclose(sif_weights(["cat", "dog"], freqs, a), [w_cat, w_dog],
                                   rtol=1e-15)
        expected = cos(w_cat * vec(store, "cat") + w_dog * vec(store, "dog"), vec(store, "on"))
        assert sif_score(store, "cat dog", "on", freqs, a) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing_weight(self):
        a = 1e-3
        weights = [a / (a + p) for p in (0.0, 1e-4, 1e-3, 1e-2, 0.5)]
        assert all(w1 > w2 for w1, w2 in zip(weights, weights[1:]))

    def test_no_retained_tokens(self, store):
        # a fully out-of-vocabulary sentence falls back to its padded mean,
        # the pad row twice, so the pair stays scoreable
        expected = cos(vec(store, PAD), vec(store, "cat"))
        assert sif_score(store, "zzz", "cat") == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            sif_weights(["cat"], None, a=0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_non_finite_a(self, a):
        with pytest.raises(ValueError, match="finite"):
            sif_weights(["cat"], None, a=a)


class TestFrequencyTable:
    def test_loader(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the 100\ncat 10\n")
        table = load_frequencies(path)
        assert table.total == 110
        assert table.probability("cat") == pytest.approx(10 / 110)
        assert table.probability("unseen") == 0.0

    def test_loader_drops_byte_order_mark(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"the 100\ncat 10\n")
        table = load_frequencies(path)
        assert table.counts == {"the": 100, "cat": 10}
        assert table.probability("the") == pytest.approx(100 / 110)

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "freq.txt"
        path.write_text("the\n")
        with pytest.raises(EmbeddingFormatError):
            load_frequencies(path)

    def test_total_invariant(self):
        assert FrequencyTable(counts={"a": 5, "b": 3}).total == 8
        with pytest.raises(ValueError, match="non-empty"):
            FrequencyTable(counts={})


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

    def test_nonconvergence_reported_but_returns(self, caplog, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 8))
        monkeypatch.setattr(baselines, "POWER_MAX_ITER", 1)
        with caplog.at_level("WARNING"):
            out = remove_first_pc(x)
        assert out.shape == x.shape
        assert any("converge" in rec.message for rec in caplog.records)


class TestCosine:
    def test_zero_rows_score_zero(self):
        u = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        v = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(row_cosines(u, v), [0.0, 0.0, 0.0])

    def test_bounds(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((200, 4)) * rng.uniform(1e-3, 1e3, (200, 1))
        v = np.vstack([rng.standard_normal((100, 4)), -3.0 * u[100:]])
        out = row_cosines(u, v)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)
        np.testing.assert_allclose(out[100:], -1.0, rtol=1e-12)
        np.testing.assert_allclose(out[:100], [cos(a, b) for a, b in zip(u[:100], v)], rtol=1e-12)
