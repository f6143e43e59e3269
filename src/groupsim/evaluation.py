"""Sentence-pair evaluation harness with rank-correlation reporting.

Datasets are TSV files, one ``sentence_a<TAB>sentence_b<TAB>gold_score`` per
line.  Every configured method scores every pair; per-dataset Spearman
correlations against the gold scores are aggregated into an average weighted
by pair count.  Reports serialise to JSON lines, one row per dataset plus a
summary row.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import baselines, comparison
from .embeddings import EmbeddingStore, SentenceSample, find_pad_token, lookup_sentence
from .errors import EmbeddingFormatError

logger = logging.getLogger(__name__)

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
    method: str
    rows: tuple[DatasetResult, ...]
    weighted_average: float
    degenerate_pair_count: int


@dataclass
class EvalOptions:
    """Knobs shared by the evaluation harness and the command line."""

    pad_token: str | None = None
    sif_a: float = baselines.DEFAULT_SIF_A
    freqs: baselines.FrequencyTable | None = None
    prior: comparison.NormalWishartPrior | None = None
    refine_kappa: bool = False
    seed: int = 0


def load_pairs(path, name: str | None = None) -> ScoredPairSet:
    """Parse a TSV pair file; lines with a bad score or missing field are
    skipped and counted."""
    pairs = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
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
        name=name if name is not None else os.path.basename(str(path)),
        pairs=tuple(pairs),
        skipped_lines=skipped,
    )


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
    rx = rankdata(x)
    ry = rankdata(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.dot(rx, ry) / math.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def unit_rows(sample: SentenceSample) -> np.ndarray:
    """Row-normalised copy of a sample's vectors (for sphere likelihoods)."""
    x = sample.vectors
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero vector cannot be projected to the sphere")
    return x / norms


def pair_scorer(method: str, options: EvalOptions):
    """Callable scoring two SentenceSamples, returning a SimilarityScore.

    A model method name ``<model>_<criterion>`` selects one :mod:`comparison`
    function: ``similarity_ic`` for a criterion in ``IC_KINDS`` ("tic",
    "aic", "bic"), ``bayes_factor_similarity`` otherwise.  A degenerate vMF
    curvature under "tic" falls back to the parameter count and flags the
    score.  vMF likelihoods live on the unit sphere, so their inputs are
    row-normalised.  The sentence-embedding baselines need corpus context
    and go through :func:`embedding_scores`.
    """
    if method not in MODEL_METHODS:
        raise ValueError(f"unknown model method {method!r}; supported: {MODEL_METHODS}")
    model, _, ic = method.partition("_")
    if ic in comparison.IC_KINDS:
        compare = lambda x1, x2: comparison.similarity_ic(
            x1, x2, model, ic, options.refine_kappa, on_degenerate="aic"
        )
    else:
        compare = lambda x1, x2: comparison.bayes_factor_similarity(x1, x2, options.prior)
    if model != comparison.VMF:
        return lambda a, b: compare(a.vectors, b.vectors)
    return lambda a, b: compare(unit_rows(a), unit_rows(b))


def sentence_vector(
    method: str,
    sample: SentenceSample,
    store: EmbeddingStore,
    options: EvalOptions,
) -> np.ndarray:
    if method == "mwv":
        return sample.vectors.mean(axis=0)
    # SIF variants weight the retained tokens; a fully out-of-vocabulary
    # sentence falls back to its padded mean so every pair stays scoreable.
    if sample.tokens:
        return baselines.sif_embed(sample.tokens, store, options.freqs, a=options.sif_a)
    return sample.vectors.mean(axis=0)


def embedding_scores(method, samples_a, samples_b, store, options) -> list[float]:
    """Cosine scores for the sentence-embedding baselines over one dataset.

    The offline variant deflates the first principal direction of all the
    dataset's sentence vectors before the cosines are taken.
    """
    va = np.vstack([sentence_vector(method, s, store, options) for s in samples_a])
    vb = np.vstack([sentence_vector(method, s, store, options) for s in samples_b])
    if method == "sif_pca":
        stacked = np.vstack([va, vb])
        deflated = baselines.remove_first_pc(stacked, seed=options.seed)
        va, vb = deflated[: va.shape[0]], deflated[va.shape[0]:]
    scores = []
    for u, v in zip(va, vb):
        try:
            scores.append(baselines.cosine(u, v))
        except ValueError:
            scores.append(0.0)  # deflation can zero a vector; score neutrally
    return scores


def score_pair(
    method: str,
    sample_a: SentenceSample,
    sample_b: SentenceSample,
    store: EmbeddingStore,
    options: EvalOptions | None = None,
) -> comparison.SimilarityScore:
    """Score one pair with any supported method (baselines included)."""
    options = options or EvalOptions()
    if method in BASELINE_METHODS:
        value = embedding_scores(method, [sample_a], [sample_b], store, options)[0]
        return comparison.SimilarityScore(value=value, method=method)
    return pair_scorer(method, options)(sample_a, sample_b)


def evaluate(
    method: str,
    datasets,
    store: EmbeddingStore,
    options: EvalOptions | None = None,
) -> EvalReport:
    """Score every pair of every dataset and aggregate rank correlations.

    ``method`` is a name from :data:`SUPPORTED_METHODS`.  Datasets whose
    correlation is undefined (constant scores) are flagged and left out of
    the weighted average, loudly.
    """
    options = options or EvalOptions()
    pad = options.pad_token or find_pad_token(store)
    if method not in SUPPORTED_METHODS:
        raise ValueError(f"unknown method {method!r}; supported: {SUPPORTED_METHODS}")

    rows = []
    degenerate_pairs = 0
    for dataset in datasets:
        samples_a = [lookup_sentence(store, a, pad) for a, _, _ in dataset.pairs]
        samples_b = [lookup_sentence(store, b, pad) for _, b, _ in dataset.pairs]
        degenerate_pairs += sum(
            1
            for sa, sb in zip(samples_a, samples_b)
            if sa.token_count_before_padding == 0 or sb.token_count_before_padding == 0
        )
        if method in BASELINE_METHODS:
            scores = embedding_scores(method, samples_a, samples_b, store, options)
        else:
            scorer = pair_scorer(method, options)
            scores = [scorer(sa, sb).value for sa, sb in zip(samples_a, samples_b)]
        golds = [g for _, _, g in dataset.pairs]
        rho = spearman(scores, golds)
        if math.isnan(rho):
            logger.warning(
                "dataset %s: correlation undefined (constant scores); excluded from average",
                dataset.name,
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
    return "\n".join(lines)
