"""The scoring plan: a batch's statistics are taken once per model, and every
criterion, method and candidate reads them.  Oracles: ``pair_scores`` of one
criterion and ``evaluate`` of one method, bit for bit."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim import comparison, evaluation
from groupsim.baselines import FrequencyTable
from groupsim.comparison import (
    BAYES,
    DIAG,
    IC_KINDS,
    MODELS,
    SPHERICAL,
    VMF,
    _pair_plan,
    corpus_model_selection,
    pair_scores,
)
from groupsim.embeddings import EmbeddingStore
from groupsim.evaluation import (
    SUPPORTED_METHODS,
    EvalOptions,
    ScoredPairSet,
    evaluate,
    evaluate_methods,
    report_lines,
)

from helpers import block_of, uniform_sphere

CRITERIA = [(model, ic) for model in MODELS for ic in IC_KINDS] + [(BAYES, None)]
GAUSSIAN = [c for c in CRITERIA if c[0] in (DIAG, SPHERICAL)]
SPHERE = [c for c in CRITERIA if c[0] == VMF]


def scores_bytes(scores):
    """Every field of a ``PairScores``, its arrays as bytes."""
    return (scores.method, scores.alpha, scores.values.tobytes(), scores.terms.tobytes(),
            scores.fallback.tobytes(), scores.floored_dims, scores.degenerate_fits)


def unit_bag(rng, n, d, kind):
    """n unit rows in d dimensions: random, one row repeated (a clamped vMF
    fit whose "tic" penalty falls back, and floored Gaussian variances), or
    one row and its antipode in turn (a resultant of exactly 0)."""
    x = uniform_sphere(rng, n, d)
    if kind == "repeated":
        return np.tile(x[0], (n, 1))
    if kind == "antipodal":
        return np.tile(np.vstack([x[0], -x[0]]), (max(1, n // 2), 1))
    return x


@st.composite
def pair_batches(draw):
    d, pairs = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 6), min_size=2 * pairs, max_size=2 * pairs))
    kinds = draw(st.lists(st.sampled_from(["random", "random", "repeated", "antipodal"]),
                          min_size=2 * pairs, max_size=2 * pairs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bags = [unit_bag(rng, n, d, kind) for n, kind in zip(sizes, kinds)]
    return bags[:pairs], bags[pairs:]


@given(batch=pair_batches(), criteria=st.lists(st.sampled_from(CRITERIA), min_size=1, unique=True),
       blocks=st.booleans())
@settings(max_examples=80, deadline=None)
def test_plan_equals_one_criterion_at_a_time(batch, criteria, blocks):
    first, second = batch
    if blocks:
        first, second = block_of(*first), block_of(*second)
    got = _pair_plan(criteria, first, second, "aic")
    want = [pair_scores(model, ic, first, second, "aic") for model, ic in criteria]
    assert [scores_bytes(s) for s in got] == [scores_bytes(s) for s in want]


def degenerate_batch():
    rng = np.random.default_rng(31)
    first = [unit_bag(rng, 4, 3, "repeated"), unit_bag(rng, 5, 3, "random"),
             unit_bag(rng, 4, 3, "antipodal")]
    second = [unit_bag(rng, 3, 3, "random"), unit_bag(rng, 6, 3, "random"),
              unit_bag(rng, 2, 3, "random")]
    return first, second


@pytest.mark.parametrize("criteria", [[(VMF, "tic"), (VMF, "aic")], [(VMF, "aic"), (VMF, "tic")]])
def test_vmf_criteria_read_one_fit_that_falls_back_and_clamps(criteria):
    first, second = degenerate_batch()
    got = dict(zip(criteria, _pair_plan(criteria, first, second, "aic")))
    for criterion, scores in got.items():
        assert scores_bytes(scores) == scores_bytes(pair_scores(*criterion, first, second, "aic"))
    tic, aic = got[VMF, "tic"], got[VMF, "aic"]
    assert tic.fallback_pairs >= 2 and tic.degenerate_fits >= 2
    assert aic.fallback_pairs == 0  # only "tic" falls back
    assert aic.degenerate_fits == tic.degenerate_fits
    assert aic.terms[:, :3].tobytes() == tic.terms[:, :3].tobytes()  # one L for both


def test_diag_tic_alongside_order_two_criteria():
    """The order-4 sweep that diag "tic" needs gives the order-2 criteria
    the moments of their own order-2 sweep, bit for bit."""
    first, second = degenerate_batch()
    criteria = [(DIAG, "aic"), (SPHERICAL, "tic"), (DIAG, "tic"), (DIAG, "bic"), (SPHERICAL, "aic")]
    got = _pair_plan(criteria, first, second, "aic")
    for criterion, scores in zip(criteria, got):
        assert scores_bytes(scores) == scores_bytes(pair_scores(*criterion, first, second, "aic"))
    assert got[0].floored_dims > 0


def test_a_bad_criterion_raises_before_any_fit(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a kernel ran before the criteria were checked")

    for name in ("moments", "fit_vmf", "nw_log_evidence"):
        monkeypatch.setattr(comparison, name, fail)
    first, second = degenerate_batch()
    with pytest.raises(ValueError, match="unknown model and criterion"):
        _pair_plan([(DIAG, "aic"), (VMF, "xic")], first, second)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is recorded in the returned list."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("criteria", [GAUSSIAN, SPHERE, CRITERIA, [(DIAG, "tic")], [(VMF, "aic")]])
def test_one_moment_sweep_and_one_fit_per_batch(criteria, monkeypatch):
    sweeps, fits = (counting(monkeypatch, comparison, name) for name in ("moments", "fit_vmf"))
    _pair_plan(criteria, *degenerate_batch(), "aic")
    assert len(sweeps) == any(model in (DIAG, SPHERICAL) for model, _ in criteria)
    assert len(fits) == any(model == VMF for model, _ in criteria)


def test_corpus_selection_takes_one_sweep_and_one_fit(monkeypatch):
    sweeps, fits = (counting(monkeypatch, comparison, name) for name in ("moments", "fit_vmf"))
    rng = np.random.default_rng(32)
    corpus = [uniform_sphere(rng, int(n), 4) for n in rng.integers(3, 9, size=6)]
    corpus_model_selection(corpus, [c for c in CRITERIA if c[0] != BAYES])
    assert (len(sweeps), len(fits)) == (1, 1)


# --- evaluate_methods ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stores():
    """The same unit rows, stored once as float32 and once as float64."""
    rng = np.random.default_rng(33)
    matrix = uniform_sphere(rng, 30, 6).astype(np.float32)
    vocab = {f"w{i}": i for i in range(30)}
    return {dtype: EmbeddingStore(dim=6, vocab=vocab, matrix=matrix.astype(dtype))
            for dtype in ("float32", "float64")}


@pytest.fixture(scope="module")
def datasets():
    """Three pair sets over w0 ... w34 (the last five out of vocabulary),
    the last a single pair, whose correlation is undefined."""
    rng = np.random.default_rng(34)

    def text():
        return " ".join(f"w{j}" for j in rng.integers(0, 35, size=rng.integers(0, 7)))

    return [ScoredPairSet(f"set{k}", tuple((text(), text(), float(rng.uniform(0, 5)))
                                           for _ in range(count)))
            for k, count in enumerate((12, 7, 1))]


OPTIONS = EvalOptions(freqs=FrequencyTable({f"w{i}": 3 * i + 1 for i in range(30)}), seed=5)


def report_bytes(report):
    return repr(report), report_lines(report)


@pytest.fixture(scope="module")
def one_method_reports(stores, datasets):
    return {(dtype, method): report_bytes(evaluate(method, datasets, store, OPTIONS))
            for dtype, store in stores.items() for method in SUPPORTED_METHODS}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("size", [1, 2, len(SUPPORTED_METHODS)])
def test_evaluate_methods_equals_evaluate_per_method(stores, datasets, one_method_reports,
                                                     dtype, size):
    """Every single method, every pair of methods and all ten, in either order."""
    for methods in itertools.combinations(SUPPORTED_METHODS, size):
        for ordered in (methods, methods[::-1]):
            got = evaluate_methods(ordered, datasets, stores[dtype], OPTIONS)
            assert [report_bytes(r) for r in got] == [one_method_reports[dtype, m]
                                                       for m in ordered]


@pytest.mark.parametrize("methods", [SUPPORTED_METHODS, ["mwv"], ["vmf_tic", "vmf_aic"],
                                     ["sif_pca", "sif"]])
def test_one_gather_per_dataset_and_one_fit_per_model(stores, datasets, methods, monkeypatch):
    """Per dataset: one gather, one fit per model (a Gaussian model's once
    for the single bags and once for the joint ones, whatever its criteria),
    and one build of each kind of sentence vector (mean rows, SIF means) for
    all the baselines."""
    gathers = counting(monkeypatch, evaluation, "lookup_tokens")
    vectors = counting(monkeypatch, evaluation, "_sentence_vectors")
    sweeps, fits, moment_fits = (counting(monkeypatch, comparison, name)
                                 for name in ("moments", "fit_vmf", "moment_fit"))
    evaluate_methods(methods, datasets, stores["float32"], OPTIONS)
    gaussian = {m.split("_")[0] for m in methods if m.startswith(("diag", "spherical"))}
    assert sorted(args[1] for args in moment_fits) == sorted(list(gaussian) * 2 * len(datasets))
    assert len(gathers) == 2 * len(datasets)
    weighted = {m != "mwv" for m in methods if m in ("mwv", "sif", "sif_pca")}
    assert sorted(args[0] for args in vectors) == sorted(list(weighted) * len(datasets))
    assert len(sweeps) == len(datasets) * any(m.startswith(("diag", "spherical")) for m in methods)
    assert len(fits) == len(datasets) * any(m.startswith("vmf") for m in methods)


@pytest.mark.parametrize("methods,message", [
    (["mwv", "nope"], "^unknown method 'nope'"),
    (["sif", "vmf_tic", "sif"], "^each method must be named once"),
])
def test_bad_methods_raise_before_any_gather(stores, datasets, methods, message, monkeypatch):
    def no_gather(*args, **kwargs):
        raise AssertionError("a dataset was gathered before the methods were checked")

    monkeypatch.setattr(evaluation, "lookup_tokens", no_gather)
    with pytest.raises(ValueError, match=message):
        evaluate_methods(methods, datasets, stores["float32"], OPTIONS)
