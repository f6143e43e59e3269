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
from groupsim import evaluation
from groupsim.embeddings import lookup_sentences, tokenize
from groupsim.errors import EmbeddingFormatError
from groupsim.evaluation import EvalOptions, embedding_scores, score_pair

from helpers import block_of, sif_embed_per_token, store_vector

PAD = "."


def cos(u, v) -> float:
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def sides(store, pairs):
    """The two sides of a batch of pairs: every sentence a, then every sentence b."""
    return (lookup_sentences(store, [a for a, _, _ in pairs], PAD),
            lookup_sentences(store, [b for _, b, _ in pairs], PAD))


def sif_score(store, a: str, b: str, freqs=None, sif_a: float = 1e-3) -> float:
    """The harness's "sif" score of one pair, from two one-sentence sides."""
    first, second = sides(store, [(a, b, 0.0)])
    return float(embedding_scores("sif", first, second,
                                  EvalOptions(sif_a=sif_a, freqs=freqs))[0])


def mwv(x1, x2) -> float:
    """The harness's "mwv" score of two bags of rows, as two one-bag sides."""
    return float(embedding_scores("mwv", block_of(x1), block_of(x2), EvalOptions())[0])


def vec(store, token: str) -> np.ndarray:
    return store_vector(store, token)


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
        batch = embedding_scores("mwv", block_of(*(x1 for x1, _ in pairs)),
                                 block_of(*(x2 for _, x2 in pairs)), EvalOptions())
        alone = [score_pair("mwv", block_of(x1), block_of(x2), store).value for x1, x2 in pairs]
        assert alone == batch.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mwv(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("method", ["mwv", "sif", "sif_pca"])
    def test_sides_of_other_lengths_raise(self, method):
        # row_cosines would broadcast one first-side vector against two
        x = np.random.default_rng(8).standard_normal((3, 4))
        with pytest.raises(ValueError, match="^sides of 1 and 2 bags: need as many of each$"):
            embedding_scores(method, block_of(x), block_of(x, 2.0 * x), EvalOptions())

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


# the third pair's first sentence and the fourth's second are fully out of vocabulary
SIF_PAIRS = [
    ("the cat sat on the mat", "dog on the mat", 3.0),
    ("cat zzz dog", "the the the", 1.0),
    ("zzz qqq", "Sat, on the mat!", 2.0),
    ("mat dog cat", "...", 4.0),
    ("on", "cat sat", 0.5),
]


class TestBlockSifWeights:
    """One ``sif_weights`` call over a block's tokens, sliced per bag, gives
    every sentence vector of the per-sentence oracle, bit for bit."""

    @staticmethod
    def oracle_scores(method, store, pairs, options):
        sentences = [a for a, _, _ in pairs] + [b for _, b, _ in pairs]
        vectors = []
        for text in sentences:
            if any(t in store for t in tokenize(text)):
                vectors.append(sif_embed_per_token(tokenize(text), store, options.freqs,
                                                   options.sif_a))
            else:  # the padded mean of two pad rows is the pad row
                vectors.append(store_vector(store, PAD))
        vectors = np.vstack(vectors)
        if method == "sif_pca":
            vectors = remove_first_pc(vectors, seed=options.seed)
        return row_cosines(vectors[:len(pairs)], vectors[len(pairs):])

    @pytest.mark.parametrize("method", ["sif", "sif_pca"])
    @pytest.mark.parametrize("freqs", [
        None,
        FrequencyTable({"the": 40, "cat": 3, "mat": 7}),  # dog, sat and on are absent
    ], ids=["no-table", "absent-tokens"])
    def test_scores_equal_the_per_sentence_oracle(self, store, method, freqs):
        options = EvalOptions(freqs=freqs, sif_a=0.02, seed=3)
        got = embedding_scores(method, *sides(store, SIF_PAIRS), options)
        want = self.oracle_scores(method, store, SIF_PAIRS, options)
        assert got.tolist() == want.tolist()
        methods = ["sif_pca", "mwv", "sif"]  # one call, each kind of vector built once
        every = embedding_scores(methods, *sides(store, SIF_PAIRS), options)
        assert every[methods.index(method)].tobytes() == got.tobytes()

    @pytest.mark.parametrize("method", ["sif", "sif_pca"])
    def test_one_weight_pass_per_block(self, store, method, monkeypatch):
        calls = []
        weigh = baselines.sif_weights

        def counted(tokens, freqs, a):
            calls.append(list(tokens))
            return weigh(tokens, freqs, a)

        monkeypatch.setattr(evaluation.baselines, "sif_weights", counted)
        first, second = sides(store, SIF_PAIRS)
        embedding_scores(method, first, second, EvalOptions())
        assert calls == [[t for tokens in first.tokens + second.tokens for t in tokens]]
        embedding_scores(["sif", "sif_pca"], first, second, EvalOptions())
        assert calls[1:] == calls[:1]


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

    @pytest.mark.parametrize("counts,token,count", [
        ({"a": -1, "b": 1001}, "a", -1),  # a + p(a) would be 0: a division by zero in sif
        ({"a": -1, "b": 2}, "a", -1),  # a negative weight
        ({"a": 3, "b": 0}, "b", 0),
        ({"a": True, "b": 2.5}, "a", True),
        ({"a": 2, "b": 2.5}, "b", 2.5),
        ({"a": 2, "b": "3"}, "b", "3"),
        ({"a": 2, "b": None}, "b", None),
    ])
    def test_counts_must_be_positive_integers(self, counts, token, count):
        with pytest.raises(ValueError, match=f"^count of {token!r} must be a positive integer, "
                                             f"got {count!r}$"):
            FrequencyTable(counts)

    def test_counts_take_any_integral(self):
        table = FrequencyTable({"a": np.int64(3), "b": 1})
        assert table.total == 4 and table.probability("a") == 0.75


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
