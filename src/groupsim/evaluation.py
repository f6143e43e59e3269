"""Sentence-pair evaluation harness with rank-correlation reporting.

Datasets are TSV files, one ``sentence_a<TAB>sentence_b<TAB>gold_score`` per
line.  Every configured method scores every pair; per-dataset Spearman
correlations against the gold scores are aggregated into an average weighted
by pair count.  Reports serialise to JSON lines, one row per dataset plus a
summary row, which also counts the pairs whose gradient penalty fell back to
the parameter count, the Gaussian dimensions held at the variance floor and
the vMF fits whose resultant length was clamped.

A dataset is scored as one batch.  Its sentences are looked up together into
one block in the lexicon's float32 (:func:`groupsim.embeddings.lookup_sentences`),
each bag a row range of it that a kernel reads as float64.  Every model
method scores all the pairs of the block in one call of
:func:`groupsim.comparison.pair_scores`, the one composition that serves
every model: the Gaussian methods from the bags' moments merged pairwise,
the vMF ones from each bag's fit and each pair's summed resultants, on a
float64 copy of the block's rows normalised once, and the Normal-Wishart
evidence over stacks of bags with equal row counts.  The baselines take
their sentence vectors from the same rows, in :func:`embedding_scores`, the one
implementation of MWV, SIF and SIF with PC removal over a dataset (a zero
sentence vector scores 0.0).  Every per-pair value agrees with scoring the
pair alone the way the harness did before dataset batches (the tests check
1e-12 relative).  One pair, two one-bag blocks from
:func:`groupsim.embeddings.lookup_sentence`, is scored as a block of two
(:func:`score_pair`).
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import baselines, comparison
from .embeddings import (
    EmbeddingStore,
    SentenceBlock,
    as_matrix,
    bag_rows,
    find_pad_token,
    lookup_sentences,
)
from .errors import EmbeddingFormatError

logger = logging.getLogger(__name__)

# rows per slab when the vMF methods normalise a block, so no whole-block temporary sits next to it
SLAB_ROWS = 512

MODEL_METHODS = (
    "vmf_tic",
    "vmf_aic",
    "diag_tic",
    "diag_aic",
    "diag_bic",
    "spherical_aic",
    "bayes_factor",
)
BASELINE_METHODS = ("mwv", "sif", "sif_pca")
SUPPORTED_METHODS = MODEL_METHODS + BASELINE_METHODS


@dataclass(frozen=True)
class ScoredPairSet:
    """A named dataset of sentence pairs with gold similarity scores."""

    name: str
    pairs: tuple[tuple[str, str, float], ...]
    skipped_lines: int = 0

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError(f"dataset {self.name!r} has no usable pairs")

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


def unit_rows(rows, out=None) -> np.ndarray:
    """Row-normalised float64 copy of (n, d) rows, or of a one-bag block's,
    for sphere likelihoods; written to ``out`` when given, which must be
    float64 and may be the rows."""
    if out is not None and out.dtype != np.float64:
        raise ValueError(f"out must be float64, got {out.dtype}")
    x = as_matrix(rows)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero vector cannot be projected to the sphere")
    return np.divide(x, norms, out=out)


def embedding_scores(method: str, block: SentenceBlock, options: EvalOptions) -> np.ndarray:
    """Cosine scores of the pairs (i, P + i) of a block of 2P bags, for the
    sentence-embedding baselines: their one implementation.

    ``mwv`` takes each bag's mean row.  The SIF variants take the weighted
    mean of a sentence's token rows, with weights ``a / (a + p(w))``; a fully
    out-of-vocabulary sentence falls back to its padded mean so every pair
    stays scoreable.  The offline variant deflates the first principal
    direction of all the block's sentence vectors before the cosines are
    taken.  A pair with a zero sentence vector scores 0.0
    (:func:`groupsim.baselines.row_cosines`).
    """
    vectors = np.empty((len(block), block.dim))
    for i, tokens in enumerate(block.tokens):
        rows = block.rows(i)
        if method != "mwv" and tokens:
            weights = baselines.sif_weights(tokens, options.freqs, options.sif_a)
            vectors[i] = baselines.weighted_mean(weights, rows[:len(tokens)])
        else:
            np.divide(np.add.reduce(rows, 0, dtype=np.float64), len(rows), out=vectors[i])
    if method == "sif_pca":
        vectors = baselines.remove_first_pc(vectors, seed=options.seed)
    half = len(block) // 2
    return baselines.row_cosines(vectors[:half], vectors[half:])


def pair_block(store: EmbeddingStore, pairs, pad_token: str) -> SentenceBlock:
    """The bags of a dataset's pairs: first every sentence a, then every sentence b."""
    return lookup_sentences(store, [a for a, _, _ in pairs] + [b for _, b, _ in pairs], pad_token)


def _score_block(method: str, block: SentenceBlock, options: EvalOptions) -> comparison.PairScores:
    """Scores of the pairs (i, P + i) of a block of 2P bags, with any supported method.

    The block is left as it is: the vMF methods, whose likelihoods live on
    the unit sphere, normalise a float64 copy of its rows in place, slab by
    slab.  A model method name ``<model>_<criterion>`` selects the model and
    the criterion of :func:`groupsim.comparison.pair_scores` ("bayes_factor"
    is the Normal-Wishart evidence), which scores every pair at once; a
    degenerate vMF curvature under "tic" falls back to the parameter count
    and flags the score.
    """
    half = len(block) // 2
    if method in BASELINE_METHODS:
        return comparison.PairScores(method, embedding_scores(method, block, options))
    if method not in MODEL_METHODS:
        raise ValueError(f"unknown model method {method!r}; supported: {SUPPORTED_METHODS}")
    model, _, ic = method.partition("_")
    if model == comparison.BAYES:
        ic = None
    rows = block.vectors
    if model == comparison.VMF:
        rows = rows.astype(np.float64)
        for first in range(0, len(rows), SLAB_ROWS):
            slab = rows[first:first + SLAB_ROWS]
            unit_rows(slab, out=slab)
    bags = [rows[start:start + size] for start, size in zip(block.starts, block.sizes)]
    return comparison.pair_scores(model, ic, bags[:half], bags[half:], on_degenerate="aic",
                                  prior=options.prior)


def score_pair(
    method: str,
    a: SentenceBlock,
    b: SentenceBlock,
    store: EmbeddingStore,
    options: EvalOptions | None = None,
) -> comparison.SimilarityScore:
    """Score one pair with any supported method (baselines included): a
    batch of one, on a block of two joined from the one-bag blocks ``a`` and
    ``b`` (:func:`groupsim.embeddings.lookup_sentence`), which must be as
    wide as ``store``."""
    rows = [bag_rows(a), bag_rows(b)]  # a block of k != 1 bags raises
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim != store.dim:
        raise ValueError(f"dimension mismatch: {store.dim} vs {a.dim}")
    block = SentenceBlock(np.vstack(rows), np.concatenate([a.sizes, b.sizes]),
                          a.tokens + b.tokens, a.oov_counts + b.oov_counts)
    return _score_block(method, block, options or EvalOptions())[0]


def _score_dataset(method, dataset, store, pad, options):
    """A dataset's scores and its number of pairs with a sentence that kept no token.

    The block lives only here, so one dataset's rows are held at a time.
    """
    block = pair_block(store, dataset.pairs, pad)
    kept = [bool(tokens) for tokens in block.tokens]
    degenerate = sum(not (a and b) for a, b in zip(kept[:dataset.count], kept[dataset.count:]))
    return _score_block(method, block, options), degenerate


def evaluate(
    method: str,
    datasets,
    store: EmbeddingStore,
    options: EvalOptions | None = None,
) -> EvalReport:
    """Score every pair of every dataset and aggregate rank correlations.

    ``method`` is a name from :data:`SUPPORTED_METHODS`.  Each dataset is
    looked up once and scored as one batch.  Datasets whose correlation is
    undefined (constant scores, or a single pair) are flagged and left out
    of the weighted average, loudly.
    """
    options = options or EvalOptions()
    pad = options.pad_token or find_pad_token(store)
    if method not in SUPPORTED_METHODS:
        raise ValueError(f"unknown method {method!r}; supported: {SUPPORTED_METHODS}")

    rows = []
    degenerate_pairs = fallback_pairs = floored_dims = degenerate_fits = 0
    for dataset in datasets:
        scores, degenerate = _score_dataset(method, dataset, store, pad, options)
        degenerate_pairs += degenerate
        fallback_pairs += scores.fallback_pairs
        floored_dims += scores.floored_dims
        degenerate_fits += scores.degenerate_fits
        golds = [g for _, _, g in dataset.pairs]
        rho = spearman(scores.values, golds) if dataset.count > 1 else float("nan")
        if math.isnan(rho):
            logger.warning(
                "dataset %s: correlation undefined (%s); excluded from average",
                dataset.name, "constant scores" if dataset.count > 1 else "a single pair",
            )
        rows.append(DatasetResult(name=dataset.name, count=dataset.count, spearman=rho))

    defined = [r for r in rows if r.defined]
    if defined:
        total = sum(r.count for r in defined)
        weighted = sum(r.count * r.spearman for r in defined) / total
    else:
        weighted = float("nan")
    return EvalReport(
        method=method,
        rows=tuple(rows),
        weighted_average=weighted,
        degenerate_pair_count=degenerate_pairs,
        fallback_pairs=fallback_pairs,
        floored_dims=floored_dims,
        degenerate_fits=degenerate_fits,
    )


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
