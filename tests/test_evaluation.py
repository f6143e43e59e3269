import codecs
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim import baselines, comparison, embeddings, evaluation
from groupsim.errors import EmbeddingFormatError, UnknownTokenError
from groupsim.evaluation import (
    MODEL_METHODS,
    SUPPORTED_METHODS,
    EvalOptions,
    ScoredPairSet,
    average_ranks,
    evaluate,
    load_pairs,
    report_lines,
    score_pair,
    spearman,
    unit_rows,
)
from groupsim.embeddings import lookup_sentence, tokenize
from helpers import pair_block, spearman_rankdata

PAIRS_A = """\
the cat sat\tthe cat sat on the mat\t4.5
the dog\tthe cat\t2.0
dog sat on mat\tcat sat on mat\t3.5
the mat\tthe dog sat\t1.0
cat\tdog\t2.5
"""

PAIRS_B = """\
the cat\tthe cat\t5.0
dog on mat\tthe mat\t2.2
sat sat\tthe dog sat\t3.0
the\tcat dog mat\t0.5
"""


@pytest.fixture
def dataset_a(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text(PAIRS_A)
    return load_pairs(path)


@pytest.fixture
def dataset_b(tmp_path):
    path = tmp_path / "b.tsv"
    path.write_text(PAIRS_B)
    return load_pairs(path)


class TestLoadPairs:
    def test_fixture_roundtrip(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("a b\tc d\t1.5\ne\tf\t2\ng\th i\t0.25\n")
        ds = load_pairs(path)
        assert ds.count == 3
        assert ds.pairs[0] == ("a b", "c d", 1.5)

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("a\tb\t1.0\nmissing tab 2.0\nc\td\tnotanumber\ne\tf\t3.0\n")
        ds = load_pairs(path)
        assert ds.count == 2
        assert ds.skipped_lines == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError):
            load_pairs(path)

    def test_byte_order_mark_before_first_pair_is_dropped(self, tmp_path):
        text = "the cat\tthe dog\t3.0\ncat sat\tdog sat\t4.0\n"
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir(), marked.mkdir()
        (plain / "p.tsv").write_text(text, encoding="utf-8")
        (marked / "p.tsv").write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        got, want = load_pairs(marked / "p.tsv"), load_pairs(plain / "p.tsv")
        assert got == want
        assert got.pairs[0][0] == "the cat"


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # rank distance formula: 1 - 6 * 6 / (3 * 8) = -0.5
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_constant_side_is_undefined(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))
        assert math.isnan(spearman([1, 2, 3], [7, 7, 7]))

    def test_matches_scipy_with_ties(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 5, size=12).astype(float)
            y = rng.integers(0, 5, size=12).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(float(spearmanr(x, y).statistic), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_ranks_equal_scipy_average_ranks(self, seed):
        from scipy.stats import rankdata

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, 7.0, np.inf])
        heavy_ties = rng.choice(pool[: int(rng.integers(1, pool.size + 1))], size=n)
        mixed = np.where(rng.random(n) < 0.5, heavy_ties, rng.standard_normal(n))
        for values in (heavy_ties, mixed, np.sort(mixed), np.sort(mixed)[::-1]):
            assert np.array_equal(average_ranks(values), rankdata(values, method="average"))

    def test_negative_zero_ties_with_zero(self):
        assert np.array_equal(average_ranks(np.array([0.0, -0.0, np.inf, -0.0, -np.inf])),
                              [3.0, 3.0, 5.0, 3.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_rankdata_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 300))
        pool = np.array([-np.inf, -0.0, 0.0, 1.0, 3.5, np.inf])
        x = rng.choice(pool, size=n)
        y = np.round(rng.standard_normal(n), 1)
        x[:2], y[:2] = [-0.0, 1.0], [0.0, 2.0]  # neither side constant
        assert spearman(x, y) == spearman_rankdata(x, y)
        assert spearman(y, x) == spearman_rankdata(y, x)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("xs,ys", [
        ([1.0, math.nan, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [math.nan, 2.0, 3.0, 4.0]),
        ([math.nan, math.nan], [1.0, 2.0]),
    ])
    def test_nan_input_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="NaN"):
            spearman(xs, ys)

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=3, max_size=20,
                 unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, values):
        # integer-spaced inputs so the transforms cannot collapse distinct
        # values into float ties
        xs = np.asarray(values, dtype=float)
        rng = np.random.default_rng(len(values))
        ys = rng.standard_normal(len(values))
        base = spearman(xs, ys)
        exp_side = spearman(np.exp(xs / 100.0), ys)
        affine_side = spearman(3.0 * xs + 11.0, ys)
        assert exp_side == pytest.approx(base, abs=1e-12)
        assert affine_side == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def test_weighted_average_arithmetic(self):
        # two datasets with known correlations and sizes combine linearly
        report_rows = [(100, 0.5), (300, 0.7)]
        total = sum(c for c, _ in report_rows)
        expected = sum(c * r for c, r in report_rows) / total
        assert expected == pytest.approx(0.65)

    @pytest.mark.parametrize("method", ["diag_aic", "mwv"])
    def test_report_structure(self, method, store, dataset_a, dataset_b):
        report = evaluate(method, [dataset_a, dataset_b], store)
        assert report.method == method
        assert len(report.rows) == 2
        assert report.rows[0].count == 5 and report.rows[1].count == 4
        defined = [r for r in report.rows if r.defined]
        total = sum(r.count for r in defined)
        expected = sum(r.count * r.spearman for r in defined) / total
        assert report.weighted_average == pytest.approx(expected, abs=1e-12)
        lo = min(r.spearman for r in defined)
        hi = max(r.spearman for r in defined)
        assert lo - 1e-12 <= report.weighted_average <= hi + 1e-12

    def test_every_supported_method_runs(self, store, unit_store, dataset_a):
        for method in SUPPORTED_METHODS:
            use = unit_store if method.startswith("vmf") else store
            report = evaluate(method, [dataset_a], use)
            assert len(report.rows) == 1
            assert all(-1.0 <= r.spearman <= 1.0 for r in report.rows if r.defined)

    def test_unknown_pad_token_message_unquoted(self, store, dataset_a):
        with pytest.raises(UnknownTokenError) as info:
            evaluate("diag_aic", [dataset_a], store, EvalOptions(pad_token="zzz"))
        assert isinstance(info.value, KeyError)
        assert str(info.value) == "pad token 'zzz' not in vocabulary"

    def test_pair_order_shuffle_invariance(self, store, dataset_a):
        rng = np.random.default_rng(1)
        perm = rng.permutation(dataset_a.count)
        shuffled = ScoredPairSet(
            name=dataset_a.name,
            pairs=tuple(dataset_a.pairs[i] for i in perm),
        )
        a = evaluate("diag_aic", [dataset_a], store)
        b = evaluate("diag_aic", [shuffled], store)
        assert a.rows[0].spearman == pytest.approx(b.rows[0].spearman, abs=1e-12)
        assert a.weighted_average == pytest.approx(b.weighted_average, abs=1e-12)

    def test_positive_scaling_leaves_spearman_unchanged(self, store, dataset_a):
        base = evaluate("diag_aic", [dataset_a], store)
        options = EvalOptions()
        scaled = [
            3.7 * score_pair("diag_aic", lookup_sentence(store, a, "."),
                             lookup_sentence(store, b, "."), store, options).value
            for a, b, _ in dataset_a.pairs
        ]
        golds = [g for _, _, g in dataset_a.pairs]
        assert spearman(scaled, golds) == pytest.approx(base.rows[0].spearman, abs=1e-12)

    def test_degenerate_pairs_counted(self, store, tmp_path):
        path = tmp_path / "deg.tsv"
        path.write_text("qqq zzz\tthe cat\t1.0\nthe dog\tthe cat\t2.0\n")
        report = evaluate("diag_aic", [load_pairs(path)], store)
        assert report.degenerate_pair_count == 1

    def test_undefined_dataset_excluded_with_flag(self, store, tmp_path, caplog):
        path = tmp_path / "const.tsv"
        # the same pair on every line: scores are bit-identical, so constant
        path.write_text("the cat\tthe dog\t1.0\nthe cat\tthe dog\t2.0\nthe cat\tthe dog\t3.0\n")
        good = tmp_path / "good.tsv"
        good.write_text(PAIRS_A)
        with caplog.at_level("WARNING"):
            report = evaluate("mwv", [load_pairs(path), load_pairs(good)], store)
        assert not report.rows[0].defined
        assert report.rows[1].defined
        assert report.weighted_average == pytest.approx(report.rows[1].spearman)
        assert any("undefined" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("method", ["diag_aic", "vmf_tic", "mwv"])
    def test_single_pair_dataset_undefined_not_fatal(self, store, tmp_path, caplog, method):
        one = tmp_path / "one.tsv"
        one.write_text("the cat\tthe dog sat\t1.0\n")
        good = tmp_path / "good.tsv"
        good.write_text(PAIRS_A)
        with caplog.at_level("WARNING"):
            report = evaluate(method, [load_pairs(good), load_pairs(one)], store)
        assert report.rows[0].defined and not report.rows[1].defined
        assert report.rows[1].count == 1
        assert report.weighted_average == pytest.approx(report.rows[0].spearman)
        assert any("one.tsv: correlation undefined" in rec.message for rec in caplog.records)
        assert json.loads(report_lines(report)[1])["spearman"] is None

    def test_sanity_related_methods_correlate(self, store, tmp_path):
        # gold generated by mean-vector cosine; the model score should track it
        rng = np.random.default_rng(3)
        vocab = list(store.vocab)
        lines = []
        for _ in range(10):
            a = " ".join(rng.choice(vocab, size=3))
            b = " ".join(rng.choice(vocab, size=4))
            sa = lookup_sentence(store, a, ".")
            sb = lookup_sentence(store, b, ".")
            gold = float(
                sa.vectors.mean(0) @ sb.vectors.mean(0)
                / np.linalg.norm(sa.vectors.mean(0))
                / np.linalg.norm(sb.vectors.mean(0))
            )
            lines.append(f"{a}\t{b}\t{gold}")
        path = tmp_path / "synth.tsv"
        path.write_text("\n".join(lines) + "\n")
        report = evaluate("diag_aic", [load_pairs(path)], store)
        assert report.rows[0].spearman > 0.5

    def test_unknown_method_rejected(self, store, dataset_a):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate("nope", [dataset_a], store)

    @pytest.mark.parametrize("seed", [-1, 2.5, None, True, "3"])
    def test_options_reject_bad_seed(self, seed):
        # checked when the options are made, before sif_pca draws with it
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            EvalOptions(seed=seed)
        assert EvalOptions(seed=np.int64(3)).seed == 3


    @pytest.mark.parametrize("sif_a", [0.0, -1e-3, math.nan, math.inf])
    def test_options_reject_bad_sif_a(self, sif_a):
        # checked when the options are made, not when a sif run first weighs a token
        with pytest.raises(ValueError, match="sif_a must be positive and finite"):
            EvalOptions(sif_a=sif_a)


def unit(bag):
    """A one-bag block's rows as a float64 copy normalised by ``unit_rows``."""
    return unit_rows(bag.vectors.astype(np.float64))


# the comparison call each model method stands for, with EvalOptions() defaults
DIRECT_CALLS = {
    "vmf_tic": lambda a, b: comparison.pair_scores(
        "vmf", "tic", [unit(a)], [unit(b)], on_degenerate="aic")[0],
    "vmf_aic": lambda a, b: comparison.pair_scores(
        "vmf", "aic", [unit(a)], [unit(b)], on_degenerate="aic")[0],
    "diag_tic": lambda a, b: comparison.pair_scores(
        "diag", "tic", [a.vectors], [b.vectors], on_degenerate="aic")[0],
    "diag_aic": lambda a, b: comparison.pair_scores(
        "diag", "aic", [a.vectors], [b.vectors], on_degenerate="aic")[0],
    "diag_bic": lambda a, b: comparison.pair_scores(
        "diag", "bic", [a.vectors], [b.vectors], on_degenerate="aic")[0],
    "spherical_aic": lambda a, b: comparison.pair_scores(
        "spherical", "aic", [a.vectors], [b.vectors], on_degenerate="aic")[0],
    "bayes_factor": lambda a, b: comparison.pair_scores(
        "bayes", None, [a.vectors], [b.vectors])[0],
}


# out-of-vocabulary tokens, a fully out-of-vocabulary sentence and an empty one
PAIRS_OOV = """\
The cat, zzz SAT!\tdog qqq\t1.5
zzz qqq\tthe mat\t3.0
cat\t...\t2.0
on the mat\tthe dog sat on the mat\t4.0
"""


@pytest.fixture
def dataset_oov(tmp_path):
    path = tmp_path / "oov.tsv"
    path.write_text(PAIRS_OOV)
    return load_pairs(path)


class TestParseOnce:
    """A pair set is tokenised once, when it is made, and every method's
    lookup gathers from those tokens."""

    def test_tokens_are_every_a_then_every_b(self, dataset_oov):
        pairs = dataset_oov.pairs
        want = [tokenize(a) for a, _, _ in pairs] + [tokenize(b) for _, b, _ in pairs]
        assert isinstance(dataset_oov.tokens, tuple)
        assert all(type(words) is list for words in dataset_oov.tokens)
        assert list(dataset_oov.tokens) == want

    def test_tokens_are_derived_not_passed(self, dataset_oov):
        with pytest.raises(TypeError):
            ScoredPairSet(name="x", pairs=dataset_oov.pairs, tokens=())
        again = ScoredPairSet(name=dataset_oov.name, pairs=dataset_oov.pairs,
                              skipped_lines=dataset_oov.skipped_lines)
        assert again == dataset_oov and again.tokens == dataset_oov.tokens

    def test_evaluate_makes_no_tokenize_call(self, store, unit_store, dataset_a, dataset_oov,
                                             monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return tokenize(text)

        for home in (embeddings, evaluation):
            monkeypatch.setattr(home, "tokenize", counted)
        options = EvalOptions(freqs=baselines.FrequencyTable({"the": 9, "cat": 2, "sat": 1}))
        for method in SUPPORTED_METHODS:
            use = unit_store if method.startswith("vmf") else store
            evaluate(method, [dataset_a, dataset_oov], use, options)
        assert calls == []
        embeddings.lookup_sentences(store, ["the cat"], ".")  # the patch is where lookups look
        assert calls == ["the cat"]

    def test_the_dataset_block_is_the_pair_block(self, store, dataset_oov, monkeypatch):
        """The two sides a dataset is scored as are the first and the last
        ``count`` bags of the tokenise-then-gather block of its pairs."""
        sides = []
        score_sides = evaluation._score_sides

        def spy(methods, first, second, options):
            sides.append((first, second))
            return score_sides(methods, first, second, options)

        monkeypatch.setattr(evaluation, "_score_sides", spy)
        evaluation._score_dataset(["diag_tic"], dataset_oov, store, ".", EvalOptions())
        (first, second), = sides
        want = pair_block(store, dataset_oov.pairs, ".")
        count = dataset_oov.count
        assert len(first) == len(second) == count
        split = int(want.sizes[:count].sum())
        for got, rows, sizes in ((first, want.vectors[:split], want.sizes[:count]),
                                 (second, want.vectors[split:], want.sizes[count:])):
            assert got.vectors.dtype == rows.dtype == store.matrix.dtype
            assert got.vectors.shape == rows.shape
            assert got.vectors.tobytes() == rows.tobytes()
            assert got.sizes.dtype == sizes.dtype
            assert got.sizes.tobytes() == sizes.tobytes()
        assert first.tokens + second.tokens == want.tokens
        assert first.oov_counts + second.oov_counts == want.oov_counts


class TestDispatch:
    def test_table_covers_every_model_method(self):
        assert set(DIRECT_CALLS) == set(MODEL_METHODS)

    @pytest.mark.parametrize("method", MODEL_METHODS)
    def test_score_pair_is_one_comparison_call(self, method, store):
        a = lookup_sentence(store, "the cat sat on the mat", ".")
        b = lookup_sentence(store, "dog sat on mat", ".")
        assert score_pair(method, a, b, store).value == DIRECT_CALLS[method](a, b).value

    def test_unknown_model_method_rejected(self, store):
        a = lookup_sentence(store, "the cat sat", ".")
        with pytest.raises(ValueError, match="unknown model method"):
            score_pair("vmf_bogus", a, a, store)


class TestReportLines:
    def test_json_lines_schema(self, store, dataset_a):
        report = evaluate("mwv", [dataset_a], store)
        lines = report_lines(report)
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert set(row) == {"method", "dataset", "count", "spearman"}
        summary = json.loads(lines[-1])
        assert set(summary) == {"method", "weighted_average", "degenerate_count",
                                "fallback_pairs", "floored_dims", "degenerate_fits"}
