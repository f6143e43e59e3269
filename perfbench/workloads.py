"""The four benchmark workloads: their inputs, one timed pass, and its checks.

A pass is what one ``groupsim eval`` or ``groupsim modelsel`` invocation does
after the interpreter has started: set-up (load the lexicon, the pair sets,
the frequencies or the corpus), compute (score every op), and serialising the
report to a file.  Every groupsim call goes through a module attribute
(``embeddings.load_embeddings``), never a name imported into this file, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from groupsim import baselines, comparison, embeddings, evaluation

import gen

DIM = 300
REFERENCE_SEED = 0
TOLERANCE = 1e-6  # absolute on rho, relative on mean criteria and penalty means

# what `groupsim modelsel --normalize` ranks
CANDIDATES = (("diag", "aic"), ("spherical", "aic"), ("vmf", "tic"), ("vmf", "aic"))
CURVE_MODELS = ("diag", "vmf")


@dataclass(frozen=True)
class Sizes:
    lexicon_rows: int
    pair_sets: int = 0
    pairs_per_set: int = 0
    docs: int = 0
    curve_sizes: tuple[int, ...] = ()
    curve_trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]  # empty for the corpus workload
    normalize: bool
    header: bool
    frequencies: bool
    sizes: dict[str, Sizes]

    @property
    def corpus(self) -> bool:
        return not self.methods


# BENCHMARK.json gives each workload's reason; in short: sts-gauss is the big
# load plus Gaussian fits and baselines, sts-sphere the Bessel/vMF layers,
# sts-bayes the Normal-Wishart evidence, corpus-long tall single bags.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sts-gauss",
            methods=("diag_aic", "diag_tic", "diag_bic", "spherical_aic", "mwv", "sif", "sif_pca"),
            normalize=False,
            header=True,
            frequencies=True,
            sizes={
                "full": Sizes(lexicon_rows=15000, pair_sets=3, pairs_per_set=100),
                "smoke": Sizes(lexicon_rows=1500, pair_sets=2, pairs_per_set=30),
            },
        ),
        Workload(
            name="sts-sphere",
            methods=("vmf_tic", "vmf_aic"),
            normalize=True,
            header=False,
            frequencies=False,
            sizes={
                "full": Sizes(lexicon_rows=5000, pair_sets=3, pairs_per_set=100),
                "smoke": Sizes(lexicon_rows=1500, pair_sets=2, pairs_per_set=30),
            },
        ),
        Workload(
            name="sts-bayes",
            methods=("bayes_factor",),
            normalize=False,
            header=False,
            frequencies=False,
            sizes={
                "full": Sizes(lexicon_rows=5000, pair_sets=3, pairs_per_set=50),
                "smoke": Sizes(lexicon_rows=1500, pair_sets=2, pairs_per_set=20),
            },
        ),
        Workload(
            name="corpus-long",
            methods=(),
            normalize=True,
            header=False,
            frequencies=False,
            sizes={
                "full": Sizes(lexicon_rows=5000, docs=300, curve_sizes=(20, 200, 2000),
                              curve_trials=3),
                "smoke": Sizes(lexicon_rows=1500, docs=30, curve_sizes=(20, 200),
                               curve_trials=2),
            },
        ),
    )
}

ALL_METHODS = tuple(dict.fromkeys(m for w in WORKLOADS.values() for m in w.methods))


@dataclass(frozen=True)
class Inputs:
    lexicon: Path
    pair_files: tuple[Path, ...] = ()
    freq_file: Path | None = None
    corpus_file: Path | None = None


def write_inputs(workload: Workload, sizes: Sizes, seed: int, directory: Path) -> Inputs:
    """Generate every input file of a workload from the seed (not timed)."""
    lexicon = directory / "lexicon.txt"
    gen.write_lexicon(lexicon, seed, sizes.lexicon_rows, DIM, header=workload.header)
    sampler = gen.SentenceSampler(gen.np.random.default_rng([seed, 2]), sizes.lexicon_rows)
    if workload.corpus:
        corpus = directory / "corpus.txt"
        gen.write_corpus(corpus, sampler, sizes.docs)
        return Inputs(lexicon=lexicon, corpus_file=corpus)
    pair_files = tuple(directory / f"sts{i + 1}.tsv" for i in range(sizes.pair_sets))
    for path in pair_files:
        gen.write_pairs(path, sampler, sizes.pairs_per_set)
    freq_file = None
    if workload.frequencies:
        freq_file = directory / "freqs.txt"
        gen.write_frequencies(freq_file, sizes.lexicon_rows)
    return Inputs(lexicon=lexicon, pair_files=pair_files, freq_file=freq_file)


def ops_per_pass(workload: Workload, sizes: Sizes) -> int:
    """Sts: one (pair, method) score.  Corpus: one (bag, candidate) criterion
    or one penalty-curve trial."""
    if workload.corpus:
        curve_trials = len(CURVE_MODELS) * len(sizes.curve_sizes) * sizes.curve_trials
        return sizes.docs * len(CANDIDATES) + curve_trials
    return sizes.pair_sets * sizes.pairs_per_set * len(workload.methods)


@dataclass
class PassResult:
    setup_s: float
    compute_s: float
    run_s: float
    step_s: dict[str, float]  # the compute stage split into steps: one per method, or
                              # lookup / model selection / each penalty curve
    outcome: dict  # what the checks compare: rho, ranking, penalty means
    # kept from the pass for the untimed spot check
    store: object = field(default=None, repr=False)
    datasets: list = field(default_factory=list, repr=False)
    options: object = field(default=None, repr=False)


def run_pass(workload: Workload, sizes: Sizes, inputs: Inputs, lexicon: Path, seed: int,
             report_path: Path) -> PassResult:
    """One whole pass on a freshly written copy ``lexicon`` of the lexicon."""
    if workload.corpus:
        return _corpus_pass(sizes, lexicon, inputs, seed, report_path)
    return _sts_pass(workload, lexicon, inputs, seed, report_path)


def _sts_pass(workload, lexicon, inputs, seed, report_path) -> PassResult:
    t0 = perf_counter()
    store = embeddings.load_embeddings(lexicon, normalize=workload.normalize)
    datasets = [evaluation.load_pairs(path) for path in inputs.pair_files]
    freqs = baselines.load_frequencies(inputs.freq_file) if inputs.freq_file else None
    t1 = perf_counter()
    options = evaluation.EvalOptions(freqs=freqs, seed=seed)
    reports = []
    step_s = {}
    for method in workload.methods:
        start = perf_counter()
        reports.append(evaluation.evaluate(method, datasets, store, options))
        step_s[method] = perf_counter() - start
    t2 = perf_counter()
    with open(report_path, "w", encoding="utf-8") as handle:
        for report in reports:
            handle.write("\n".join(evaluation.report_lines(report)) + "\n")
    t3 = perf_counter()
    rho = {r.method: {row.name: row.spearman for row in r.rows} for r in reports}
    return PassResult(t1 - t0, t2 - t1, t3 - t0, step_s, {"rho": rho},
                      store=store, datasets=datasets, options=options)


def _corpus_pass(sizes, lexicon, inputs, seed, report_path) -> PassResult:
    t0 = perf_counter()
    store = embeddings.load_embeddings(lexicon, normalize=True)
    with open(inputs.corpus_file, "r", encoding="utf-8") as handle:
        sentences = [line.strip() for line in handle if line.strip()]
    t1 = perf_counter()
    pad = embeddings.find_pad_token(store)
    corpus = [embeddings.lookup_sentence(store, text, pad) for text in sentences]
    t_lookup = perf_counter()
    ranking = comparison.corpus_model_selection(corpus, CANDIDATES, on_degenerate="aic")
    t_select = perf_counter()
    step_s = {"lookup": t_lookup - t1, "modelsel": t_select - t_lookup}
    curves = {}
    for model in CURVE_MODELS:
        start = perf_counter()
        curves[model] = comparison.penalty_curve(model, DIM, sizes.curve_sizes,
                                                 sizes.curve_trials, seed)
        step_s[f"penalty_curve_{model}"] = perf_counter() - start
    t2 = perf_counter()
    with open(report_path, "w", encoding="utf-8") as handle:
        for row in ranking:
            handle.write(json.dumps({"model": row.model, "ic": row.ic, "mean_ic": row.mean_ic})
                         + "\n")
        for rows in curves.values():
            handle.write(comparison.penalty_curve_csv(rows))
    t3 = perf_counter()
    outcome = {
        "ranking": [[row.model, row.ic, row.mean_ic] for row in ranking],
        "penalty_means": {m: [row.mean_penalty for row in rows] for m, rows in curves.items()},
        "penalty_stds": {m: [row.std_penalty for row in rows] for m, rows in curves.items()},
    }
    return PassResult(t1 - t0, t2 - t1, t3 - t0, step_s, outcome)


# -- correctness checks -----------------------------------------------------


def _close(value, expected, relative: bool) -> bool:
    scale = max(abs(expected), 1e-300) if relative else 1.0
    return math.isfinite(value) and abs(value - expected) <= TOLERANCE * scale


def check_pass(workload: Workload, sizes: Sizes, outcome: dict, reference: dict | None
               ) -> tuple[int, list[str]]:
    """Failed ops and messages for one pass.

    Always: every rho defined and finite, every criterion and penalty finite.
    With a reference (the reference seed): rho, the model ranking and the
    penalty means equal the stored values within TOLERANCE.  A failed dataset
    fails all of its pairs for that method; a failed ranking fails every
    (bag, candidate) op; a failed curve fails all of its trials.
    """
    failed = 0
    problems = []
    if not workload.corpus:
        for method, per_set in outcome["rho"].items():
            for name, rho in per_set.items():
                expected = None if reference is None else reference["rho"][method].get(name)
                if not math.isfinite(rho):
                    problems.append(f"{method}/{name}: rho undefined")
                elif reference is not None and (expected is None
                                                or not _close(rho, expected, False)):
                    problems.append(f"{method}/{name}: rho {rho!r} != reference {expected!r}")
                else:
                    continue
                failed += sizes.pairs_per_set
        return failed, problems

    ranking = outcome["ranking"]
    bad = [f"{m}_{ic}: mean criterion {v!r}" for m, ic, v in ranking if not math.isfinite(v)]
    if reference is not None:
        expected = reference["ranking"]
        order, expected_order = [r[:2] for r in ranking], [r[:2] for r in expected]
        if order != expected_order:
            bad.append(f"ranking {order} != reference {expected_order}")
        bad += [f"{m}_{ic}: mean criterion {v!r} != reference {e[2]!r}"
                for (m, ic, v), e in zip(ranking, expected) if not _close(v, e[2], True)]
    if bad:
        problems += bad
        failed += sizes.docs * len(CANDIDATES)
    for model, means in outcome["penalty_means"].items():
        values = means + outcome["penalty_stds"][model]
        ok = all(math.isfinite(v) for v in values)
        if ok and reference is not None:
            expected = reference["penalty_means"][model]
            ok = len(means) == len(expected) and all(
                _close(v, e, True) for v, e in zip(means, expected))
        if not ok:
            problems.append(f"penalty curve {model}: means {means!r}")
            failed += len(sizes.curve_sizes) * sizes.curve_trials
    return failed, problems


def spot_check_scores(workload: Workload, result: PassResult, per_set: int = 4
                      ) -> tuple[int, list[str]]:
    """Score the first pairs of every set one by one and require finite values.

    ``evaluate`` reports only rank correlations, and an infinite score still
    ranks; this catches it on a sample.  Untimed.
    """
    if workload.corpus:
        return 0, []
    pad = embeddings.find_pad_token(result.store)
    problems = []
    for dataset in result.datasets:
        for a, b, _ in dataset.pairs[:per_set]:
            sa = embeddings.lookup_sentence(result.store, a, pad)
            sb = embeddings.lookup_sentence(result.store, b, pad)
            for method in workload.methods:
                value = evaluation.score_pair(method, sa, sb, result.store, result.options).value
                if not math.isfinite(value):
                    problems.append(f"{method}/{dataset.name}: non-finite score {value!r}")
    return len(problems), problems


def load_reference(path: Path, size: str, workload: Workload) -> dict | None:
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle).get(size, {}).get(workload.name)


def record_reference(path: Path, size: str, workload: Workload, outcome: dict) -> None:
    data = {}
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    stored = dict(outcome)
    stored.pop("penalty_stds", None)
    data.setdefault(size, {})[workload.name] = stored
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
