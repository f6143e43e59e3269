"""Dataset-batch scoring against the per-pair oracle of ``tests/helpers.py``.

``evaluate`` looks a dataset up into one block and scores it as a batch; the
oracle looks every sentence up alone and scores every pair alone, with
row-based fits and a stacked joint bag.  Every method must give the same
per-pair values (each breakdown term at 1e-12 relative), the same fallback
flags and the same floored-dimension count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.baselines import FrequencyTable
from groupsim.embeddings import (
    EmbeddingStore,
    SentenceSample,
    load_embeddings,
    lookup_sentence,
    lookup_sentences,
)
from groupsim.evaluation import (
    BASELINE_METHODS,
    MODEL_METHODS,
    EvalOptions,
    _score_block,
    evaluate,
    format_table,
    load_pairs,
    pair_block,
    report_lines,
    score_pair,
    unit_rows,
)

from conftest import EMBEDDING_FIXTURE
from helpers import (
    lookup_sentence_per_token,
    pair_scores_per_pair,
    unit_rows_per_bag,
)

RTOL = 1e-12
PAD = "."
# the last two are out of vocabulary; "." is the pad token itself
WORDS = ("the", "cat", ".", "dog", "sat", "mat", "on", "qqq", "zzz")
OPTIONS = EvalOptions(
    sif_a=0.05,
    freqs=FrequencyTable({"the": 50, ".": 40, "cat": 3, "dog": 2, "on": 5}, total=100),
)

sentences = st.lists(st.sampled_from(WORDS), max_size=7).map(" ".join)
pair_lists = st.lists(st.tuples(sentences, sentences, st.just(1.0)), min_size=1, max_size=8)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    path = tmp_path_factory.mktemp("lexicon") / "vectors.txt"
    path.write_text(EMBEDDING_FIXTURE)
    return {False: load_embeddings(path), True: load_embeddings(path, normalize=True)}


def store_for(stores, method):
    return stores[method.startswith("vmf")]


def assert_matches_oracle(got, want):
    assert got.method == want.method
    assert got.fallback == want.fallback
    if want.breakdown is None:
        assert got.breakdown is None
        # cosines are bounded by 1, so this is 1e-12 of their scale
        assert got.value == pytest.approx(want.value, rel=RTOL, abs=RTOL)
        return
    terms = ("loglik_joint", "loglik_1", "loglik_2", "penalty_joint", "penalty_1", "penalty_2")
    for name in terms:
        assert getattr(got.breakdown, name) == pytest.approx(
            getattr(want.breakdown, name), rel=RTOL, abs=0.0), name
    assert got.breakdown.alpha == want.breakdown.alpha
    scale = want.breakdown.alpha * sum(abs(getattr(want.breakdown, name)) for name in terms)
    assert got.value == pytest.approx(want.value, rel=0.0, abs=RTOL * scale)


@pytest.mark.parametrize("method", MODEL_METHODS + BASELINE_METHODS)
@given(pairs=pair_lists)
@settings(max_examples=30, deadline=None)
def test_batch_equals_per_pair_oracle(stores, method, pairs):
    store = store_for(stores, method)
    batch = _score_block(method, pair_block(store, pairs, PAD), OPTIONS)
    want, floored = pair_scores_per_pair(method, pairs, store, OPTIONS, PAD)
    assert len(batch) == len(want)
    for p, expected in enumerate(want):
        assert_matches_oracle(batch[p], expected)
    assert batch.floored_dims == floored
    assert batch.fallback_pairs == sum(s.fallback for s in want)


@given(texts=st.lists(sentences, min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_block_bags_equal_per_sentence_lookups(stores, texts):
    store = stores[False]
    block = lookup_sentences(store, texts, PAD)
    for i, text in enumerate(texts):
        want = lookup_sentence_per_token(store, text, PAD)
        got = block.sample(i)
        np.testing.assert_array_equal(got.vectors, want.vectors)
        assert got.vectors.dtype == np.float64
        assert got.tokens == want.tokens
        assert got.token_count_before_padding == want.token_count_before_padding
        assert got.oov_count == want.oov_count


def test_score_pair_leaves_samples_for_the_next_method(stores):
    """A vMF score normalises the rows it scores; score_pair scores a copy, so
    the same samples then score right with a Gaussian model and a baseline."""
    store = stores[False]
    pairs = [("the cat sat on the mat", "dog sat on the mat", 1.0)]
    sa = lookup_sentence(store, pairs[0][0], PAD)
    sb = lookup_sentence(store, pairs[0][1], PAD)
    before = sa.vectors.copy(), sb.vectors.copy()
    for method in ("vmf_tic", "diag_aic", "mwv"):
        want, _ = pair_scores_per_pair(method, pairs, store, OPTIONS, PAD)
        assert_matches_oracle(score_pair(method, sa, sb, store, OPTIONS), want[0])
    np.testing.assert_array_equal(sa.vectors, before[0])
    np.testing.assert_array_equal(sb.vectors, before[1])


@pytest.mark.parametrize("method", ["diag_aic", "vmf_tic", "bayes_factor", "mwv"])
def test_score_pair_width_mismatch_named(stores, method):
    rng = np.random.default_rng(2)
    sa, sb = (SentenceSample(vectors=rng.standard_normal((3, d)), token_count_before_padding=2)
              for d in (4, 5))
    with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 5$"):
        score_pair(method, sa, sb, stores[False], OPTIONS)


class TestUnitRows:
    def test_block_rows_bit_identical_to_per_bag(self):
        rng = np.random.default_rng(11)
        vocab = {f"w{i}": i for i in range(50)}
        matrix = rng.standard_normal((50, 300))
        matrix = (matrix / np.linalg.norm(matrix, axis=1, keepdims=True)).astype(np.float32)
        store = EmbeddingStore(dim=300, vocab=vocab, matrix=matrix)
        texts = [" ".join(f"w{j}" for j in rng.integers(0, 60, size=rng.integers(0, 15)))
                 for _ in range(40)]
        block = lookup_sentences(store, texts, "w0")
        unit = unit_rows(block.vectors)
        for i, text in enumerate(texts):
            rows = unit[block.starts[i]:block.starts[i] + block.sizes[i]]
            want = unit_rows_per_bag(lookup_sentence_per_token(store, text, "w0"))
            assert rows.tobytes() == want.tobytes()

    def test_zero_vector_rejected_on_the_block(self):
        store = EmbeddingStore(dim=2, vocab={".": 0, "nil": 1},
                               matrix=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))
        with pytest.raises(ValueError, match="zero vector"):
            unit_rows(lookup_sentences(store, ["nil", "x"], ".").vectors)


class TestRunCounters:
    def test_fallback_pairs_count_degenerate_vmf_bags(self, stores, tmp_path):
        path = tmp_path / "deg.tsv"
        # "qqq zzz" and "." keep no token: two equal unit rows, a clamped resultant
        path.write_text("qqq zzz\tthe cat\t1.0\nthe dog\tcat sat on\t2.0\n.\tdog mat\t3.0\n")
        dataset = load_pairs(path)
        want, _ = pair_scores_per_pair("vmf_tic", dataset.pairs, stores[True], EvalOptions(), PAD)
        report = evaluate("vmf_tic", [dataset], stores[True])
        assert report.fallback_pairs == sum(s.fallback for s in want) == 2
        assert evaluate("vmf_aic", [dataset], stores[True]).fallback_pairs == 0
        assert report.floored_dims == 0

    @pytest.mark.parametrize("method", ["diag_aic", "diag_tic", "spherical_aic", "mwv"])
    def test_floored_dims_count_double_padded_pair(self, stores, tmp_path, method):
        path = tmp_path / "pad.tsv"
        path.write_text("qqq zzz\tthe cat\t1.0\nthe dog\tcat sat on\t2.0\nzzz\t.\t3.0\n")
        dataset = load_pairs(path)
        _, floored = pair_scores_per_pair(method, dataset.pairs, stores[False], EvalOptions(), PAD)
        report = evaluate(method, [dataset], stores[False])
        assert report.floored_dims == floored
        # three double-padded bags (all 4 dims floored) and one double-padded joint bag
        assert floored == (0 if method == "mwv" else 16)
        assert report.fallback_pairs == 0
        summary = report_lines(report)[-1]
        assert f'"floored_dims": {floored}' in summary and '"fallback_pairs": 0' in summary
        assert f"floored dims: {floored}" in format_table(report)
