"""Sentence-pair evaluation harness with rank-correlation reporting.

Datasets are TSV files, one ``sentence_a<TAB>sentence_b<TAB>gold_score`` per
line.  Every configured method scores every pair; per-dataset Spearman
correlations against the gold scores are aggregated into an average weighted
by pair count.  Reports serialise to JSON lines, one row per dataset plus a
summary row, which also counts the pairs whose gradient penalty fell back to
the parameter count, the Gaussian dimensions held at the variance floor and
the vMF fits whose resultant length was clamped.

A pair file is tokenised once, when it is read (:attr:`ScoredPairSet.tokens`),
and a run (:func:`evaluate_methods`) gathers each dataset once for all its
methods, as two blocks, every sentence a and every sentence b, in the
lexicon's float32 (:func:`groupsim.embeddings.lookup_tokens`), each bag a
row range of its block that a kernel reads as float64; the two blocks are
the two sides of the batch until it is scored.  The model methods are the
scoring plan of :mod:`groupsim.comparison` over all the pairs at once, which
takes each model's statistics once for all its criteria: the Gaussian
methods from the bags' moments merged pairwise, the vMF ones from each bag's
fit and each pair's summed statistics, on a float64 copy of both blocks'
rows normalised and checked once, and the Normal-Wishart evidence over
stacks of bags with equal row counts.  The baselines take their sentence
vectors from the same rows, in :func:`embedding_scores`, the one
implementation of MWV, SIF and SIF with PC removal, with one SIF weight pass
over both blocks' tokens (a zero sentence vector scores 0.0); a run of
several baselines builds each kind of sentence vector once, and SIF with PC
removal deflates a copy of the SIF vectors.  A report of
several methods equals theirs one at a time bit for bit, and one pair, two
one-bag blocks, is a batch of one (:func:`score_pair`).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, comparison
from .embeddings import (
    EmbeddingStore,
    SentenceBlock,
    bag_rows,
    find_pad_token,
    lookup_tokens,
    tokenize,
)
from .errors import EmbeddingFormatError

logger = logging.getLogger(__name__)

# rows per slab when unit_rows normalises a block, so no whole-block temporary sits next to it
SLAB_ROWS = 512

# each model method's (model, criterion) in groupsim.comparison.pair_scores
_CRITERIA = {
    "vmf_tic": (comparison.VMF, "tic"),
    "vmf_aic": (comparison.VMF, "aic"),
    "diag_tic": (comparison.DIAG, "tic"),
    "diag_aic": (comparison.DIAG, "aic"),
    "diag_bic": (comparison.DIAG, "bic"),
    "spherical_aic": (comparison.SPHERICAL, "aic"),
    "bayes_factor": (comparison.BAYES, None),
}
MODEL_METHODS = tuple(_CRITERIA)
BASELINE_METHODS = ("mwv", "sif", "sif_pca")
SUPPORTED_METHODS = MODEL_METHODS + BASELINE_METHODS


@dataclass(frozen=True)
class ScoredPairSet:
    """A named dataset of sentence pairs with gold similarity scores.

    ``tokens`` is derived once, when the set is made: the :func:`tokenize`
    list of every sentence a, then of every sentence b, so its first
    ``count`` lists are the first side of the pairs and the rest the second.
    """

    name: str
    pairs: tuple[tuple[str, str, float], ...]
    skipped_lines: int = 0
    tokens: tuple[list[str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError(f"dataset {self.name!r} has no usable pairs")
        sentences = [a for a, _, _ in self.pairs] + [b for _, b, _ in self.pairs]
        object.__setattr__(self, "tokens", tuple(map(tokenize, sentences)))

    @property
    def count(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class DatasetResult:
    name: str
    count: int
    spearman: float  # nan when undefined

    @property
    def defined(self) -> bool:
        return not math.isnan(self.spearman)


@dataclass(frozen=True)
class EvalReport:
    """Per-dataset correlations and run counters.

    ``degenerate_pair_count`` counts pairs with a sentence that kept no
    token, ``fallback_pairs`` pairs whose gradient penalty fell back to the
    parameter count, ``floored_dims`` the Gaussian dimensions held at the
    variance floor and ``degenerate_fits`` the vMF fits whose resultant
    length was clamped, both summed over the joint and per-bag fits of every
    pair.
    """

    method: str
    rows: tuple[DatasetResult, ...]
    weighted_average: float
    degenerate_pair_count: int
    fallback_pairs: int = 0
    floored_dims: int = 0
    degenerate_fits: int = 0


@dataclass
class EvalOptions:
    """Knobs shared by the evaluation harness and the command line; ``sif_a``
    is positive and finite, and ``seed`` a non-negative integer (any
    ``numbers.Integral`` but a bool)."""

    pad_token: str | None = None
    sif_a: float = baselines.DEFAULT_SIF_A
    freqs: baselines.FrequencyTable | None = None
    prior: comparison.NormalWishartPrior | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sif_a) and self.sif_a > 0.0):
            raise ValueError(f"sif_a must be positive and finite, got {self.sif_a!r}")
        if not comparison._integral(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def load_pairs(path) -> ScoredPairSet:
    """Parse a TSV pair file, named by its basename; a leading UTF-8
    byte-order mark is dropped, and lines with a bad score or missing field
    are skipped and counted."""
    pairs = []
    skipped = 0
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                skipped += 1
                continue
            try:
                gold = float(parts[2])
            except ValueError:
                skipped += 1
                continue
            if not math.isfinite(gold):
                skipped += 1
                continue
            pairs.append((parts[0], parts[1], gold))
    if not pairs:
        raise EmbeddingFormatError(f"{path}: no usable pairs")
    if skipped:
        logger.warning("%s: skipped %d malformed lines", path, skipped)
    return ScoredPairSet(
        name=os.path.basename(str(path)),
        pairs=tuple(pairs),
        skipped_lines=skipped,
    )


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, each group of equal values taking the
    mean of its ranks (``scipy.stats.rankdata(method="average")``)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), np.diff(bounds))
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks for ties.

    Returns nan (the explicit undefined sentinel) when either argument is
    constant, and raises ``ValueError`` on a NaN input, which has no rank.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if x.size < 2:
        raise ValueError("need at least two observations")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("inputs must not contain NaN")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.dot(rx, ry) / math.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Normalise the float64 (n, d) ``rows`` to unit length in place, slab
    by slab, for sphere likelihoods, and return them."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2):
        raise ValueError("unit_rows takes a float64 (n, d) array, normalised in place")
    for first in range(0, len(rows), SLAB_ROWS):
        slab = rows[first:first + SLAB_ROWS]
        norms = np.linalg.norm(slab, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("zero vector cannot be projected to the sphere")
        np.divide(slab, norms, out=slab)
    return rows


def embedding_scores(method, first: SentenceBlock, second: SentenceBlock,
                     options: EvalOptions) -> np.ndarray | list[np.ndarray]:
    """Cosine scores of the pairs (first[p], second[p]), for the
    sentence-embedding baselines: their one implementation.

    ``mwv`` takes each bag's mean row.  The SIF variants take the weighted
    mean of a sentence's token rows, with weights ``a / (a + p(w))``; a fully
    out-of-vocabulary sentence falls back to its padded mean so every pair
    stays scoreable.  The offline variant deflates the first principal
    direction of all the sentence vectors, the first side's then the
    second's, before the cosines are taken.  A pair with a zero sentence
    vector scores 0.0 (:func:`groupsim.baselines.row_cosines`).

    ``method`` is one baseline name, which gives a (P,) array, or a list of
    them, which gives a list of arrays, each bit for bit the one name's
    alone: each kind of sentence vector (mean rows, SIF means) is built once
    for all of them, and ``sif_pca`` deflates a copy.
    """
    comparison._check_width([first.vectors, second.vectors])
    if len(first) != len(second):
        raise ValueError(f"sides of {len(first)} and {len(second)} bags: need as many of each")
    token_lists, bags = first.tokens + second.tokens, first.bags() + second.bags()
    vectors, scores = {}, []  # weighted or not -> the sentence vectors
    for name in [method] if isinstance(method, str) else method:
        weighted = name != "mwv"
        if weighted not in vectors:
            vectors[weighted] = _sentence_vectors(weighted, token_lists, bags, first.dim, options)
        x = vectors[weighted]
        if name == "sif_pca":
            x = baselines.remove_first_pc(x, seed=options.seed)
        scores.append(baselines.row_cosines(x[:len(first)], x[len(first):]))
    return scores[0] if isinstance(method, str) else scores


def _sentence_vectors(weighted: bool, token_lists, bags, dim: int,
                      options: EvalOptions) -> np.ndarray:
    """One (B, d) sentence vector per bag: its SIF mean when ``weighted``
    and it kept a token, with one weight pass over all the tokens sliced per
    bag, else its mean row."""
    vectors = np.empty((len(token_lists), dim))
    if weighted:
        weights = baselines.sif_weights(list(itertools.chain.from_iterable(token_lists)),
                                        options.freqs, options.sif_a)
    end = 0
    for i, (tokens, rows) in enumerate(zip(token_lists, bags)):
        if weighted and tokens:
            start, end = end, end + len(tokens)
            vectors[i] = baselines.weighted_mean(weights[start:end], rows[:len(tokens)])
        else:
            np.divide(np.add.reduce(rows, 0, dtype=np.float64), len(rows), out=vectors[i])
    return vectors


def _score_sides(methods, first: SentenceBlock, second: SentenceBlock,
                 options: EvalOptions) -> list[comparison.PairScores]:
    """Scores of the pairs (first[p], second[p]) of two blocks, left as they
    are, under each of ``methods`` in order.  A model method is a criterion
    of :func:`groupsim.comparison.pair_scores` (a degenerate vMF curvature
    under "tic" falls back to the parameter count), and the model methods
    are two scoring plans: the vMF ones on one float64 copy of both blocks'
    rows normalised once (:func:`unit_rows`; a copy per side took twice the
    page faults), the others on the blocks.  The baselines are one
    :func:`embedding_scores` call, which builds each kind of sentence vector
    once."""
    for method in methods:
        if method not in SUPPORTED_METHODS:
            raise ValueError(f"unknown model method {method!r}; supported: {SUPPORTED_METHODS}")
    scores, base = {}, [m for m in methods if m in BASELINE_METHODS]
    if base:
        values = embedding_scores(base, first, second, options)
        scores.update((m, comparison.PairScores(m, v)) for m, v in zip(base, values))

    def plan(names, *sides):
        criteria = [_CRITERIA[m] for m in names]
        scores.update(zip(names, comparison._pair_plan(criteria, *sides, "aic", options.prior)))

    raw = [m for m in methods if m in MODEL_METHODS and _CRITERIA[m][0] != comparison.VMF]
    sphere = [m for m in methods if m in MODEL_METHODS and _CRITERIA[m][0] == comparison.VMF]
    if raw:
        plan(raw, first, second)
    if sphere:
        rows = unit_rows(np.concatenate([first.vectors, second.vectors], dtype=np.float64))
        split = len(first.vectors)
        plan(sphere, replace(first, vectors=rows[:split]), replace(second, vectors=rows[split:]))
    return [scores[method] for method in methods]


def score_pair(
    method: str,
    a: SentenceBlock,
    b: SentenceBlock,
    store: EmbeddingStore,
    options: EvalOptions | None = None,
) -> comparison.SimilarityScore:
    """Score one pair with any supported method (baselines included): a
    one-method plan on a batch of one whose sides are the one-bag blocks
    ``a`` and ``b`` (:func:`groupsim.embeddings.lookup_sentence`), as wide
    as ``store``; anything else, a plain array included, raises."""
    if not (isinstance(a, SentenceBlock) and isinstance(b, SentenceBlock)):
        raise TypeError(f"score_pair takes two one-bag SentenceBlocks from lookup_sentence, "
                        f"got {type(a).__name__} and {type(b).__name__}")
    comparison._check_width([bag_rows(a), bag_rows(b)])  # a block of k != 1 bags raises
    if a.dim != store.dim:
        raise ValueError(f"dimension mismatch: {store.dim} vs {a.dim}")
    return _score_sides([method], a, b, options or EvalOptions())[0][0]


def _score_dataset(methods, dataset, store, pad, options):
    """A dataset's scores under each of ``methods`` and its number of pairs
    with a sentence that kept no token.  Its two sides are gathered once, and
    live only here, so one dataset's rows are held at a time."""
    first = lookup_tokens(store, dataset.tokens[:dataset.count], pad)
    second = lookup_tokens(store, dataset.tokens[dataset.count:], pad)
    degenerate = sum(not (a and b) for a, b in zip(first.tokens, second.tokens))
    return _score_sides(methods, first, second, options), degenerate


def evaluate_methods(methods, datasets, store: EmbeddingStore,
                     options: EvalOptions | None = None) -> list[EvalReport]:
    """The :func:`evaluate` report of each of ``methods``, distinct names
    checked before any gather, with each dataset looked up once and scored
    as one batch under every method (:func:`_score_sides`)."""
    methods, datasets = list(methods), list(datasets)
    for method in methods:
        if method not in SUPPORTED_METHODS:
            raise ValueError(f"unknown method {method!r}; supported: {SUPPORTED_METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"each method must be named once, got {methods}")
    options = options or EvalOptions()
    pad = options.pad_token or find_pad_token(store)
    scored = [_score_dataset(methods, dataset, store, pad, options) for dataset in datasets]
    degenerate_pairs, reports = sum(count for _, count in scored), []
    for m, method in enumerate(methods):
        rows = []
        for dataset, (scores, _) in zip(datasets, scored):
            golds = [g for _, _, g in dataset.pairs]
            rho = spearman(scores[m].values, golds) if dataset.count > 1 else float("nan")
            if math.isnan(rho):
                logger.warning(
                    "dataset %s: correlation undefined (%s); excluded from average",
                    dataset.name, "constant scores" if dataset.count > 1 else "a single pair",
                )
            rows.append(DatasetResult(name=dataset.name, count=dataset.count, spearman=rho))
        defined = [r for r in rows if r.defined]
        total = sum(r.count for r in defined)
        weighted = sum(r.count * r.spearman for r in defined) / total if defined else float("nan")
        counts = [sum(getattr(scores[m], name) for scores, _ in scored)
                  for name in ("fallback_pairs", "floored_dims", "degenerate_fits")]
        reports.append(EvalReport(method, tuple(rows), weighted, degenerate_pairs, *counts))
    return reports


def evaluate(method: str, datasets, store: EmbeddingStore,
             options: EvalOptions | None = None) -> EvalReport:
    """Score every pair of every dataset with ``method``, a name from
    :data:`SUPPORTED_METHODS`, and aggregate rank correlations: a run of
    :func:`evaluate_methods` with one method.  Datasets whose correlation is
    undefined (constant scores, or a single pair) are flagged and left out of
    the weighted average, loudly."""
    return evaluate_methods([method], datasets, store, options)[0]


def report_lines(report: EvalReport) -> list[str]:
    """JSON-lines serialisation: one row per dataset, then a summary row."""
    out = []
    for row in report.rows:
        out.append(
            json.dumps(
                {
                    "method": report.method,
                    "dataset": row.name,
                    "count": row.count,
                    "spearman": None if not row.defined else row.spearman,
                },
                sort_keys=True,
            )
        )
    out.append(
        json.dumps(
            {
                "method": report.method,
                "weighted_average": None
                if math.isnan(report.weighted_average)
                else report.weighted_average,
                "degenerate_count": report.degenerate_pair_count,
                "fallback_pairs": report.fallback_pairs,
                "floored_dims": report.floored_dims,
                "degenerate_fits": report.degenerate_fits,
            },
            sort_keys=True,
        )
    )
    return out


def format_table(report: EvalReport) -> str:
    """Human-readable summary table."""
    lines = [f"method: {report.method}"]
    lines.append(f"{'dataset':<24} {'pairs':>7} {'spearman':>10}")
    for row in report.rows:
        shown = f"{row.spearman:.4f}" if row.defined else "undef"
        lines.append(f"{row.name:<24} {row.count:>7} {shown:>10}")
    avg = (
        f"{report.weighted_average:.4f}"
        if not math.isnan(report.weighted_average)
        else "undef"
    )
    lines.append(f"{'weighted average':<24} {'':>7} {avg:>10}")
    lines.append(f"degenerate pairs: {report.degenerate_pair_count}")
    lines.append(f"fallback pairs: {report.fallback_pairs}")
    lines.append(f"floored dims: {report.floored_dims}")
    lines.append(f"degenerate vMF fits: {report.degenerate_fits}")
    return "\n".join(lines)
