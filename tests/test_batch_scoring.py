"""Dataset-batch scoring against the per-pair oracle of ``tests/helpers.py``.

``evaluate`` looks a dataset up into one block and scores it as a batch; the
oracle looks every sentence up alone and scores every pair alone, with
row-based fits and a stacked joint bag.  Every method must give the same
per-pair values (each breakdown term within 1e-12 of the magnitude of the
summands it is built from), the same fallback flags and the same
floored-dimension count.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupsim.baselines import FrequencyTable
from groupsim.comparison import IC_KINDS, MODELS, corpus_model_selection
from groupsim.vmf import fit_vmf
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
    SUPPORTED_METHODS,
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
    pair_rows_per_pair,
    pair_scores_per_pair,
    term_scales,
    unit_rows_per_bag,
)

RTOL = 1e-12
PAD = "."
# the last two are out of vocabulary; "." is the pad token itself
WORDS = ("the", "cat", ".", "dog", "sat", "mat", "on", "qqq", "zzz")
OPTIONS = EvalOptions(
    sif_a=0.05,
    freqs=FrequencyTable({"the": 50, ".": 40, "cat": 3, "dog": 2, "on": 5}),
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


def oracle_scales(method, pairs, store):
    """Per pair, the summand magnitudes of its six breakdown terms (None for
    the baselines)."""
    if method in BASELINE_METHODS:
        return [None] * len(pairs)
    model, _, ic = method.partition("_")
    return [term_scales(*rows, model, ic, OPTIONS.prior)
            for rows in pair_rows_per_pair(method, pairs, store, PAD)]


def assert_matches_oracle(got, want, scales):
    assert got.method == want.method
    assert got.fallback == want.fallback
    if want.breakdown is None:
        assert got.breakdown is None
        # cosines are bounded by 1, so this is 1e-12 of their scale
        assert got.value == pytest.approx(want.value, rel=RTOL, abs=RTOL)
        return
    terms = ("loglik_joint", "loglik_1", "loglik_2", "penalty_joint", "penalty_1", "penalty_2")
    # a term can sum to near 0 from summands of order 1 or more, so its
    # rounding error is bounded by the summands' magnitude, not its own
    for name, scale in zip(terms, scales):
        assert getattr(got.breakdown, name) == pytest.approx(
            getattr(want.breakdown, name), rel=0.0, abs=RTOL * scale), name
    assert got.breakdown.alpha == want.breakdown.alpha
    scale = want.breakdown.alpha * sum(abs(getattr(want.breakdown, name)) for name in terms)
    assert got.value == pytest.approx(want.value, rel=0.0, abs=RTOL * scale)


@pytest.mark.parametrize("method", MODEL_METHODS + BASELINE_METHODS)
@given(pairs=pair_lists)
@example(pairs=[("the sat", "cat dog dog", 1.0)])
@settings(max_examples=30, deadline=None)
def test_batch_equals_per_pair_oracle(stores, method, pairs):
    store = store_for(stores, method)
    batch = _score_block(method, pair_block(store, pairs, PAD), OPTIONS)
    want, floored = pair_scores_per_pair(method, pairs, store, OPTIONS, PAD)
    assert len(batch) == len(want)
    for p, (expected, scales) in enumerate(zip(want, oracle_scales(method, pairs, store))):
        assert_matches_oracle(batch[p], expected, scales)
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
        assert got.vectors.dtype == store.matrix.dtype
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
        scales = oracle_scales(method, pairs, store)[0]
        assert_matches_oracle(score_pair(method, sa, sb, store, OPTIONS), want[0], scales)
    np.testing.assert_array_equal(sa.vectors, before[0])
    np.testing.assert_array_equal(sb.vectors, before[1])


@pytest.mark.parametrize("method", ["diag_aic", "vmf_tic", "bayes_factor", "mwv"])
def test_score_pair_width_mismatch_named(stores, method):
    rng = np.random.default_rng(2)
    sa, sb = (SentenceSample(vectors=rng.standard_normal((3, d)), token_count_before_padding=2)
              for d in (4, 5))
    with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 5$"):
        score_pair(method, sa, sb, stores[False], OPTIONS)


@pytest.fixture(scope="module")
def store_pair():
    """The same unit rows, stored once as float32 and once as float64."""
    rng = np.random.default_rng(41)
    matrix = rng.standard_normal((40, 30))
    matrix = (matrix / np.linalg.norm(matrix, axis=1, keepdims=True)).astype(np.float32)
    vocab = {f"w{i}": i for i in range(40)}
    return tuple(EmbeddingStore(dim=30, vocab=vocab, matrix=matrix.astype(dtype))
                 for dtype in (np.float32, np.float64))


def random_texts(rng, count):
    """Sentences of 0 to 11 words from w0 ... w49; the last ten are out of vocabulary."""
    return [" ".join(f"w{j}" for j in rng.integers(0, 50, size=rng.integers(0, 12)))
            for _ in range(count)]


@pytest.mark.parametrize("method", SUPPORTED_METHODS)
def test_float32_store_scores_bit_identical_to_float64_store(store_pair, method):
    """Kernels read float32 bags as float64 and accumulate nothing in float32."""
    texts = random_texts(np.random.default_rng(42), 40)
    pairs = [(a, b, 1.0) for a, b in zip(texts[:20], texts[20:])]
    options = EvalOptions(freqs=FrequencyTable({f"w{i}": i + 1 for i in range(40)}), seed=3)
    got, want = (_score_block(method, pair_block(store, pairs, "w0"), options)
                 for store in store_pair)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.terms is None) == (want.terms is None)
    if got.terms is not None:
        assert got.terms.tobytes() == want.terms.tobytes()


def test_float32_corpus_selection_bit_identical_to_float64_store(store_pair):
    texts = random_texts(np.random.default_rng(43), 30)
    candidates = [(model, ic) for model in MODELS for ic in IC_KINDS]
    got, want = (corpus_model_selection([lookup_sentence(store, t, "w0") for t in texts],
                                        candidates, on_degenerate="aic")
                 for store in store_pair)
    assert len(got) == len(candidates)
    assert got == want


@pytest.mark.parametrize("side", [0, 1])
def test_vmf_scores_leave_the_block_as_it_was(store_pair, side):
    texts = random_texts(np.random.default_rng(44), 20)
    pairs = [(a, b, 1.0) for a, b in zip(texts[:10], texts[10:])]
    block = pair_block(store_pair[side], pairs, "w0")
    before = block.vectors.copy()
    _score_block("vmf_tic", block, OPTIONS)
    assert block.vectors.tobytes() == before.tobytes()


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

    def test_float32_rows_into_float64_out(self):
        x = np.random.default_rng(12).standard_normal((5, 7)).astype(np.float32)
        out = np.empty(x.shape)
        assert unit_rows(x, out=out) is out
        assert out.tobytes() == unit_rows(x.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_out_must_be_float64(self, dtype):
        x = np.random.default_rng(13).standard_normal((5, 7)).astype(dtype)
        for out in (x, np.empty(x.shape, dtype=np.float32)):
            with pytest.raises(ValueError, match="^out must be float64, got float"):
                unit_rows(x, out=out)

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

    def test_degenerate_fits_count_clamped_vmf_fits(self, stores, tmp_path):
        path = tmp_path / "deg.tsv"
        path.write_text("qqq zzz\tthe cat\t1.0\nthe dog\tcat sat on\t2.0\n.\tdog mat\t3.0\n")
        dataset = load_pairs(path)
        want = 0
        for a, b, _ in dataset.pairs:
            x1, x2 = (unit_rows_per_bag(lookup_sentence_per_token(stores[True], text, PAD))
                      for text in (a, b))
            want += sum(fit_vmf(x).degenerate for x in (np.vstack([x1, x2]), x1, x2))
        assert want == 2
        for method in ("vmf_tic", "vmf_aic"):
            report = evaluate(method, [dataset], stores[True])
            assert report.degenerate_fits == want
            assert f'"degenerate_fits": {want}' in report_lines(report)[-1]
            assert f"degenerate vMF fits: {want}" in format_table(report)
        assert evaluate("diag_aic", [dataset], stores[False]).degenerate_fits == 0

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
