"""Similarity scores from penalised model comparison.

A pair of vector bags is scored by contrasting a shared-parameter fit of
their concatenation against independent per-bag fits.  Every model score is
one composition over a batch of pairs, ``pair_scores`` (one pair is a batch
of one): a per-bag criterion (``bag_criteria``) gives (L, P) for each joint
bag and for each bag alone, and the score is
alpha (L_j - L_1 - L_2 - P_j + P_1 + P_2).  A von Mises-Fisher, diagonal or
spherical Gaussian model (``MODELS``) takes P from one information criterion
(``IC_KINDS``), with alpha = 2: the gradient trace ("tic"), the parameter
count k ("aic") or (k/2) log n ("bic").  A model's criteria penalise the
same maximised likelihood, so one scoring plan takes a batch's statistics
once for every criterion asked of it, and each reads its (L, P) from them;
``pair_scores``, ``bag_criteria`` and ``corpus_model_selection`` are that
plan, and ``penalty_curve`` reads its per-bag criterion.  The Gaussian
criteria read each bag's moments, one sweep for both models (M3 and M4 only
for the diagonal "tic" penalty), and a joint bag's are its two bags' moments
merged.  The vMF single bags of a batch are fitted together, each block of
rows checked in one pass of row norms, and its joint bags together from
their two bags' summed resultants, row counts and square norms, each set
with one array Bessel pass; a joint bag's "tic" penalty reads its two bags'
rows in place only for their dots with its direction.  Each entry checks
every bag, 2-D and of one width, before any fit.  The Bayes factor, model
"bayes" with no criterion, takes L as the Normal-Wishart log evidence (full
covariance, conjugate closed form under a prior with mean 0, scale I and
settable kappa0 and nu0), P = 0 and alpha = 1; the evidence is taken once
per row count, over the bags of a batch that have it, joint and single bags
together, each bag's rows (a joint bag's two blocks end to end) written once
into a buffer that the evidence centres in place.  The closed forms of the
"tic" score that the tests check the plan against are written out in
``tests/helpers.py``, and ``groupsim.evaluation`` scores pairs through it
by method name.  Rank-based evaluation is insensitive to alpha;
the breakdown records which convention produced the value.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import SentenceBlock, _integral, bag_rows
from .errors import DegenerateCurvatureError
from .gaussian import (
    DIAG,
    SPHERICAL,
    merge_moments,
    moment_fit,
    moments,
    radial_sq_sum,
    tic_penalties,
)
from .special import MAX_DIM, MIN_DIM
from .vmf import CURVATURE_FLOOR, _fit_resultants, _tic_penalty, fit_vmf

VMF = "vmf"
BAYES = "bayes"

MODELS = (VMF, DIAG, SPHERICAL)
IC_KINDS = ("tic", "aic", "bic")
# reactions to a degenerate vMF curvature under "tic": raise, or take the parameter count
ON_DEGENERATE = ("error", "aic")


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-term decomposition of an information-criterion score."""

    loglik_joint: float
    loglik_1: float
    loglik_2: float
    penalty_joint: float
    penalty_1: float
    penalty_2: float
    alpha: float


@dataclass(frozen=True)
class SimilarityScore:
    """A similarity value plus its audit trail.

    ``fallback`` marks scores where a degenerate curvature forced the
    parameter-count penalty on at least one fit.  Baseline methods carry no
    breakdown.
    """

    value: float
    method: str
    breakdown: ScoreBreakdown | None = None
    fallback: bool = False


@dataclass(frozen=True)
class PairScores:
    """Scores of a batch of P pairs, with their audit trail as arrays.

    ``values`` and ``fallback`` have shape (P,); row p of ``terms`` holds
    pair p's (L_joint, L_1, L_2, P_joint, P_1, P_2), and is None for the
    baselines.  ``floored_dims`` counts the Gaussian dimensions held at the
    variance floor and ``degenerate_fits`` the vMF fits whose resultant
    length was clamped, over every fit of the batch.  Indexing gives one
    pair's :class:`SimilarityScore`.
    """

    method: str
    values: np.ndarray
    terms: np.ndarray | None = None
    alpha: float = 1.0
    fallback: np.ndarray | None = None
    floored_dims: int = 0
    degenerate_fits: int = 0

    def __len__(self) -> int:
        return self.values.size

    @property
    def fallback_pairs(self) -> int:
        return 0 if self.fallback is None else int(np.count_nonzero(self.fallback))

    def __getitem__(self, p: int) -> SimilarityScore:
        breakdown = None
        if self.terms is not None:
            breakdown = ScoreBreakdown(*(float(t) for t in self.terms[p]), alpha=self.alpha)
        fallback = self.fallback is not None and bool(self.fallback[p])
        return SimilarityScore(float(self.values[p]), self.method, breakdown, fallback)


def aic_param_count(model: str, d: int) -> int:
    """Parameter counts: vMF d, diagonal Gaussian 2d, spherical Gaussian d+1."""
    if model == VMF:
        return d
    if model == DIAG:
        return 2 * d
    if model == SPHERICAL:
        return d + 1
    raise ValueError(f"unknown model {model!r}")


def count_penalty(model: str, ic: str, d: int, n) -> np.ndarray:
    """The parameter-count penalty of bags of ``n`` rows each: k for "aic",
    ``(k/2) log n`` for "bic", with k from :func:`aic_param_count`."""
    k = aic_param_count(model, d)
    return np.full(len(n), float(k)) if ic == "aic" else 0.5 * k * np.log(n)


def _check_on_degenerate(on_degenerate: str) -> None:
    if on_degenerate not in ON_DEGENERATE:
        raise ValueError(f"on_degenerate must be one of {ON_DEGENERATE}, got {on_degenerate!r}")


def _check_criterion(model: str, ic: str | None, on_degenerate: str) -> None:
    """``on_degenerate``, then (model, ic): one of MODELS x IC_KINDS, or ("bayes", None)."""
    _check_on_degenerate(on_degenerate)
    if (model, ic) != (BAYES, None) and (model not in MODELS or ic not in IC_KINDS):
        raise ValueError(f"unknown model and criterion ({model!r}, {ic!r})")


def _check_width(blocks) -> int:
    """The row width d shared by (n_i, d) blocks: a block that is not a 2-D
    array raises, and so does the first other width."""
    d = None
    for x in blocks:
        if not isinstance(x, np.ndarray) or x.ndim != 2:
            raise ValueError("expected a 2-D array of row vectors")
        if x.shape[1] != d:
            if d is not None:
                raise ValueError(f"dimension mismatch: {d} vs {x.shape[1]}")
            d = x.shape[1]
    return d


def _statistics(criteria, bags, blocks=None):
    """(moments, vMF fits) of a batch of one-block ``bags``, each taken once
    for ``criteria``, (model, ic) pairs, and None when none reads it: one
    moment sweep for both Gaussian models, to M4 only when ("diag", "tic")
    is among them, and one :func:`fit_vmf` of ``blocks`` (the bags' rows
    when None) whatever the penalties.  The evidence reads the rows."""
    models = {model for model, _ in criteria}
    mom = fits = None
    if models & {DIAG, SPHERICAL}:
        with np.errstate(over="ignore", invalid="ignore"):  # callers raise on a non-finite term
            mom = moments(*(x for x, in bags), order=4 if (DIAG, "tic") in criteria else 2)
    if VMF in models:
        fits = fit_vmf(*(blocks or [x for x, in bags]))
    return mom, fits


def _joint_statistics(stats, half: int):
    """The :func:`_statistics` of bags i and half + i pooled, for each
    i < half, read from those of the 2 half bags alone: merged moments, and
    fits from summed resultants, row counts and square norms."""
    mom, fits = stats
    if mom is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            mom = merge_moments(mom.take(slice(0, half)), mom.take(slice(half, 2 * half)))
    if fits is not None:
        fits = _fit_resultants(fits.resultant[:half] + fits.resultant[half:],
                               fits.n[:half] + fits.n[half:],
                               fits.square_norm[:half] + fits.square_norm[half:])
    return mom, fits


def _criteria(model: str, ic: str | None, bags, stats, on_degenerate: str,
              prior: NormalWishartPrior | None):
    """:func:`bag_criteria` of a checked batch, read from its ``stats``; the
    rows are read only by the "tic" penalties and the evidence."""
    d, count = bags[0][0].shape[1], len(bags)
    mom, fits = stats
    fallback, degenerate = np.zeros(count, bool), np.zeros(count, bool)
    floored, penalty = np.zeros(count, np.intp), np.zeros(count)
    if model != BAYES and ic != "tic":
        penalty = count_penalty(model, ic, d, [sum(len(x) for x in bag) for bag in bags])
    if model in (DIAG, SPHERICAL):
        with np.errstate(over="ignore", invalid="ignore"):  # callers raise on a non-finite term
            loglik, var, kurt, floored = moment_fit(mom, model)
            if ic == "tic":
                radial = None if model == DIAG else np.array([
                    sum(radial_sq_sum(x, mu, err) for x in bag) / sum(len(x) for x in bag)
                    for bag, mu, err in zip(bags, mom.mean, mom.mean_err)])
                penalty = tic_penalties(model, d, var, kurt, radial)
        return loglik, penalty, fallback, floored, degenerate
    if model == BAYES:
        loglik = np.empty(count)
        prior = default_prior(d) if prior is None else prior
        groups = {}  # total row count -> the bags that have it
        for b, bag in enumerate(bags):
            groups.setdefault(sum(len(x) for x in bag), []).append(b)
        for members in groups.values():
            loglik[members] = nw_log_evidence([bags[b] for b in members], prior)
        return loglik, penalty, fallback, floored, degenerate
    if ic == "tic":
        penalty, defined = _tic_penalty(fits, bags)
        if not defined.all():
            if on_degenerate != "aic":
                raise DegenerateCurvatureError(
                    f"curvature below {CURVATURE_FLOOR:g} or clamped fit; penalty undefined "
                    f"on bag {defined.argmin()}")
            fallback = ~defined
            penalty[fallback] = aic_param_count(VMF, d)
    return fits.max_loglik, penalty, fallback, floored, fits.clamped


def bag_criteria(model: str, ic: str | None, bags, on_degenerate: str = "error",
                 prior: NormalWishartPrior | None = None):
    """(max loglik L, penalty P, fallback flag, floored dims, degenerate flag)
    of every bag of a batch, as (B,) arrays: the scoring plan of one
    criterion on a batch of bags.

    A bag is a tuple of (n_i, d) row blocks fitted as one (one block for a
    Gaussian or vMF model), each checked 2-D and as wide as the first before
    any fit; an empty batch raises ``ValueError``.  P is the gradient trace
    for ``ic="tic"``, the parameter count k for "aic" and ``(k/2) log n`` for
    "bic"; a ("bayes", None) bag has its Normal-Wishart log evidence as L and
    P = 0, the bags grouped by total row count and each group handed to one
    :func:`nw_log_evidence` call, which writes their rows (a joint bag's
    blocks end to end) once into its float64 buffer.  The spherical "tic"
    radial term reads each block about its bag's mean, rounding error
    included, and the vMF "tic" penalty each bag's dots with its direction,
    in place; a vMF bag is flagged degenerate when its resultant length was
    clamped.
    ``on_degenerate="aic"`` puts the parameter count in place of a "tic"
    penalty whose curvature is degenerate, and flags the bag as a fallback;
    any value outside :data:`ON_DEGENERATE` raises ``ValueError``.
    """
    _check_criterion(model, ic, on_degenerate)
    if not bags:
        raise ValueError("bag_criteria got an empty batch: need at least one bag")
    _check_width([x for bag in bags for x in bag])
    return _criteria(model, ic, bags, _statistics([(model, ic)], bags), on_degenerate, prior)


def _side_bags(side):
    """The (n, d) bags of one side of a pair batch, in their own dtype, and
    the blocks :func:`fit_vmf` reads: a ``SentenceBlock`` whole, so its rows
    are checked in one pass, or a list's bags (:func:`bag_rows`)."""
    if isinstance(side, SentenceBlock):
        return side.bags(), [side]
    bags = [bag_rows(x) for x in side]
    return bags, bags


def _pair_plan(criteria, first, second, on_degenerate: str = "error",
               prior: NormalWishartPrior | None = None) -> list[PairScores]:
    """The :func:`pair_scores` of each of ``criteria``, (model, ic) pairs,
    bit for bit, from the statistics of the single bags taken once and
    pooled pairwise once; each criterion reads its joint terms, then its
    single ones."""
    for model, ic in criteria:
        _check_criterion(model, ic, on_degenerate)  # before the fits below
    (first_bags, first_blocks), (second_bags, second_blocks) = _side_bags(first), _side_bags(second)
    if not first_bags or len(first_bags) != len(second_bags):
        raise ValueError(f"need as many first bags as second bags, at least one: "
                         f"got {len(first_bags)} and {len(second_bags)}")
    half = len(first_bags)
    _check_width(first_bags + second_bags)
    singles, joints = [(x,) for x in first_bags + second_bags], list(zip(first_bags, second_bags))
    stats = _statistics(criteria, singles, first_blocks + second_blocks)
    joint_stats = _joint_statistics(stats, half)
    scores = []
    for model, ic in criteria:
        if model == BAYES:  # a joint and a single bag with one row count share a stack
            both = _criteria(model, ic, joints + singles, stats, on_degenerate, prior)
            joint, single = [t[:half] for t in both], [t[half:] for t in both]
        else:
            joint = _criteria(model, ic, joints, joint_stats, on_degenerate, prior)
            single = _criteria(model, ic, singles, stats, on_degenerate, prior)
        (ll_j, p_j, f_j, d_j, g_j), (ll_s, p_s, f_s, d_s, g_s) = joint, single
        (ll_1, ll_2), (p_1, p_2) = np.split(ll_s, 2), np.split(p_s, 2)
        terms = np.column_stack([ll_j, ll_1, ll_2, p_j, p_1, p_2])
        if not np.isfinite(terms).all():  # finite rows so large that a fit overflowed
            raise ValueError(f"non-finite L or P term in pair {np.isfinite(terms).all(1).argmin()}")
        alpha = 1.0 if model == BAYES else 2.0
        scores.append(PairScores(
            "bayes_factor" if model == BAYES else f"{model}_{ic}",
            alpha * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2), terms, alpha,
            f_j | f_s[:half] | f_s[half:], int(d_j.sum() + d_s.sum()), int(g_j.sum() + g_s.sum())))
    return scores


def pair_scores(model: str, ic: str | None, first, second, on_degenerate: str = "error",
                prior: NormalWishartPrior | None = None) -> PairScores:
    """Scores of the pairs (first[p], second[p]).  Each side is a list of
    bags, each (n, d) rows or a one-bag block, or a ``SentenceBlock`` of its
    bags in order; the two sides hold as many bags, read in their own dtype
    and checked 2-D and as wide as the first before any fit.

    ``(model, ic)`` is one of :data:`MODELS` by one of :data:`IC_KINDS`
    (``vmf_bic``, ``spherical_tic`` and ``spherical_bic`` have no method
    name), or ("bayes", None) under ``prior``, :func:`default_prior` when
    omitted.  vMF rows must be unit vectors, and a degenerate vMF curvature
    under "tic" raises unless ``on_degenerate="aic"``.

    The score is ``alpha (L_joint - L_1 - L_2 - P_joint + P_1 + P_2)``, the
    :func:`bag_criteria` terms of the P joint bags and of the 2P single bags
    (the first bags, then the second), with alpha = 2 for the information
    criteria and 1 for "bayes"; P_1 and P_2 add because two independent fits
    have a block-diagonal joint curvature.  It is the scoring plan of one
    criterion: the single bags' statistics are taken once (a
    ``SentenceBlock`` side's vMF rows checked in one pass) and a joint bag's
    are its two bags' pooled: no Gaussian or vMF bag is stacked or refitted.
    The "bayes" joint and single bags are grouped by row count together, so
    a joint bag and a single bag with the same row count share a stack.
    The same bags give the same values, terms and flags bit for bit whichever
    form the sides take.  A non-finite term raises.
    """
    return _pair_plan([(model, ic)], first, second, on_degenerate, prior)[0]


@dataclass(frozen=True)
class NormalWishartPrior:
    """Conjugate prior over the mean and precision of a full-covariance Gaussian.

    The prior mean is 0 and the scale matrix T_0 is the d x d identity;
    ``kappa0 > 0`` scales the precision of the mean and ``nu0 > d - 1`` is the
    degrees of freedom.  ``dim`` is any integral (``numbers.Integral``) but a bool.
    """

    dim: int
    kappa0: float
    nu0: float

    def __post_init__(self) -> None:
        if not _integral(self.dim) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))  # a numpy integer becomes an int
        if not (math.isfinite(self.kappa0) and self.kappa0 > 0.0):
            raise ValueError("kappa0 must be positive and finite")
        if not (math.isfinite(self.nu0) and self.nu0 > self.dim - 1):
            raise ValueError(f"nu0 must exceed d - 1 = {self.dim - 1}")


def default_prior(d: int) -> NormalWishartPrior:
    """Weak proper default: kappa0 = 1, nu0 = d + 2 (zero mean, identity scale)."""
    return NormalWishartPrior(d, kappa0=1.0, nu0=float(d + 2))


def _factor_identity_plus(gram: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of I + ``gram``, for one (m, m) Gram or a
    (k, m, m) stack of them; the identity is added in place.  A Gram that
    overflowed raises ``ValueError`` before the factor, and so does a factor
    that fails: I + ``gram`` is positive definite in exact arithmetic, so a
    failure is rounding, from rows too far from 0 for their spread."""
    m = gram.shape[-1]
    if not np.isfinite(gram).all():
        raise ValueError(f"posterior scale overflows: its {m} x {m} Gram is not finite")
    gram.reshape(-1, m * m)[:, ::m + 1] += 1.0  # the diagonals, as a strided view
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"posterior scale matrix ({m} x {m}) not positive definite after "
                         f"rounding: the rows are too far from 0 to resolve their spread") from exc


def nw_log_evidence(data, prior: NormalWishartPrior) -> float | np.ndarray:
    """Log marginal likelihood of a bag under the Normal-Wishart prior.

    ``data`` is one (n, d) bag, which gives a float, or k bags of n rows
    each, which give a (k,) array holding each bag's value bit for bit as a
    call on that bag alone: a (k, n, d) stack, or a sequence (list or tuple)
    of bags, each an (n_i, d) array or a tuple of row blocks read end to end
    (the :func:`bag_criteria` form).  A sequence that is empty, whose bags
    have different row counts, or whose blocks are not 2-D arrays of one
    width raises ``ValueError``.  Conjugate closed form in log space (Murphy
    2007), with mu_0 = 0 and T_0 = I.  T_n = I + U^T U, where the (n + 1, d)
    rows of U are the n centred rows and sqrt(c) xbar, c = n kappa0 /
    kappa_n.  When n + 1 < d, Sylvester's identity gives
    log|T_n| = log|I + U U^T|.  Otherwise the mean row is added by the matrix
    determinant lemma (Harville 1997),
    log|T_n| = log|I + S| + log1p(c |L^-1 xbar|^2) with I + S = L L^T and S
    the centred scatter, so a mean far from 0 never cancels inside the
    Cholesky pivots.  Both factors come from one (d + 1) x (d + 1) factor:
    I + S bordered by xbar / s, with corner 1 + |xbar / s|^2, where
    s = max(1, max_i |xbar_i|) keeps the corner from overflowing.  Its first
    d pivots are L's, and its last row holds L^-1 xbar / s.  A non-finite
    row, a T_n that overflows, and a factor that rounding makes fail raise
    ``ValueError`` with no ``RuntimeWarning`` before it.  With a = nu0 / 2
    and k = min(n, d), log Gamma_d(a + n/2) - log Gamma_d(a) telescopes to
    sum_{i=n-k+1..n} lgamma(a + i/2) - sum_{j=d-k..d-1} lgamma(a - j/2).

    Cost per stack: the rows are copied once, into a float64 (k, n + 1, d)
    buffer, and centred there in place, the means read from its column sums
    (which also show that every row is finite, so the rows are scanned only
    when a mean is not) and, for n + 1 < d, the scaled means written in row
    n; then the
    log-Gamma sum once, since it reads only n, d and the prior, and one
    stacked Gram and one stacked Cholesky factorisation.  For n + 1 < d the
    Grams are the buffer's (n + 1) x (n + 1), O(k (d n^2 + n^3)); for
    n + 1 >= d they are the bordered (d + 1) x (d + 1) of its first n rows,
    O(k (n d^2 + d^3)), a (k, d + 1, d + 1) stack about the size of the
    buffer.
    """
    single = False
    if not isinstance(data, (list, tuple)):  # one bag, or a stack of bags
        single = np.ndim(data) != 3
        data = [bag_rows(data)] if single else np.asarray(data)
    bags = [bag if isinstance(bag, tuple) else (bag,) for bag in data]
    if not bags:
        raise ValueError("need at least one bag")
    d = _check_width([x for bag in bags for x in bag])
    counts = [sum(len(x) for x in bag) for bag in bags]
    k, n = len(bags), counts[0]
    if counts.count(n) != k:
        raise ValueError(f"bags must have equal row counts, got {sorted(set(counts))}")
    if d != prior.dim:
        raise ValueError(f"dimension mismatch: prior has {prior.dim}, data has {d}")
    if n < 1:
        raise ValueError("need at least one observation")
    update = np.empty((k, n + 1, d))  # each bag's rows, centred in place, then sqrt(c) xbar
    rows = update[:, :n]
    for out, bag in zip(rows, bags):
        np.concatenate(bag, out=out)  # a bag's blocks end to end
    nu_n, kappa_n = prior.nu0 + n, prior.kappa0 + n
    shrink = n * prior.kappa0 / kappa_n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        xbar = np.add.reduce(rows, 1) / n
        if not np.isfinite(xbar).all() and not np.isfinite(rows).all():
            raise ValueError("bag contains non-finite values (NaN or inf)")
        np.subtract(rows, xbar[:, np.newaxis], out=rows)
        if n + 1 < d:
            np.multiply(xbar, math.sqrt(shrink), out=update[:, n])
            chol = _factor_identity_plus(update @ update.transpose(0, 2, 1))
            log_det_tn = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        else:
            scale = np.maximum(1.0, np.abs(xbar).max(axis=1))  # keeps the corner finite
            border = xbar / scale[:, np.newaxis]
            gram = np.empty((k, d + 1, d + 1))  # S bordered by xbar / s, corner |xbar / s|^2
            np.matmul(rows.transpose(0, 2, 1), rows, out=gram[:, :d, :d])
            gram[:, d, :d] = gram[:, :d, d] = border
            gram[:, d, d] = np.einsum("ij,ij->i", border, border)
            chol = _factor_identity_plus(gram)
            # the last row is L^-1 xbar / s; s |row| is formed first, as s^2 can overflow
            solved = scale * np.linalg.norm(chol[:, d, :d], axis=1)
            log_det_tn = (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)[:, :d]).sum(axis=1)
                          + np.log1p(shrink * solved * solved))
    finite = np.isfinite(log_det_tn)
    if not finite.all():
        raise ValueError(f"posterior scale overflows: log|T_n| = {log_det_tn[finite.argmin()]} "
                         f"(n={n}, d={d})")
    top, bottom = 0.5 * nu_n, 0.5 * (prior.nu0 - d + 1)
    # the min(n, d) lgamma terms that do not cancel
    log_gamma = sum([math.lgamma(top - 0.5 * i) - math.lgamma(bottom + 0.5 * i)
                     for i in range(min(n, d))])
    evidence = (log_gamma - 0.5 * n * d * math.log(math.pi) - 0.5 * nu_n * log_det_tn
                + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n)))
    return float(evidence[0]) if single else evidence


@dataclass(frozen=True)
class ModelCandidateScore:
    model: str
    ic: str
    mean_ic: float


def corpus_model_selection(
    corpus,
    candidates=((DIAG, "aic"), (SPHERICAL, "aic")),
    on_degenerate: str = "error",
) -> list[ModelCandidateScore]:
    """Mean per-bag criterion ``-2 (L - P)`` for each candidate, best first.

    ``corpus`` is a ``SentenceBlock`` or an iterable of (n, d) bags or
    one-bag blocks.  A candidate is a (model, ic) pair with ic in
    :data:`IC_KINDS`; a "bic" candidate ranks by ``-2 L + k log n``.  Lets two
    likelihoods be compared on a plain corpus of bags, without labelled data.

    The candidates (at least one), ``on_degenerate`` (one of
    :data:`ON_DEGENERATE`) and the bags (2-D, of one width) are checked
    before the first fit.  The corpus's statistics are taken once for all
    the candidates, as for a pair batch: the Gaussian models share one
    moment sweep, which stops after M2 unless a diagonal "tic" candidate
    reads M4, and the vMF candidates one fit; each candidate's (L, P) is
    read from them.  A candidate whose L or P is not finite on some bag
    raises ``ValueError`` naming it and the first such bag, once every
    candidate's terms are taken.  Bags keep their dtype (float32 from a
    lexicon), a block's as views: each kernel reads one bag at a time as
    float64.
    """
    blocks = corpus.bags() if isinstance(corpus, SentenceBlock) else [bag_rows(b) for b in corpus]
    if not blocks:
        raise ValueError("corpus must contain at least one bag")
    candidates = [(model, ic) for model, ic in candidates]
    if not candidates:
        raise ValueError(f"candidates must name at least one (model, ic) pair, got {candidates}")
    _check_on_degenerate(on_degenerate)
    for model, ic in candidates:
        if model not in MODELS or ic not in IC_KINDS:
            raise ValueError(f"unsupported candidate ({model!r}, {ic!r})")
    _check_width(blocks)
    bags = [(x,) for x in blocks]
    stats = _statistics(candidates, bags)
    terms = [_criteria(model, ic, bags, stats, on_degenerate, None)[:2] for model, ic in candidates]
    rows = []
    for (model, ic), (ll, pen) in zip(candidates, terms):
        finite = np.isfinite(np.column_stack([ll, pen])).all(1)
        if not finite.all():
            raise ValueError(f"non-finite L or P for candidate ({model!r}, {ic!r}) "
                             f"in bag {finite.argmin()}")
        rows.append(ModelCandidateScore(model, ic, mean_ic=float(np.mean(-2.0 * (ll - pen)))))
    rows.sort(key=lambda r: r.mean_ic)
    return rows


@dataclass(frozen=True)
class PenaltyCurveRow:
    n: int
    mean_penalty: float
    std_penalty: float


def penalty_curve(
    model: str,
    d: int,
    sample_sizes,
    trials: int,
    seed: int,
) -> list[PenaltyCurveRow]:
    """Gradient-penalty (tic) statistics on synthetic draws for each sample size.

    Diagonal Gaussian penalties are measured on standard-normal samples, vMF
    penalties on uniform draws from the unit sphere; each is the "tic"
    penalty of the per-bag criterion that scores pairs.  Deterministic under a
    fixed seed.  Every argument is checked before any draw: a ``ValueError``
    from this function always names a bad argument.  ``d``, ``trials``, the
    sizes and ``seed`` are integers (any ``numbers.Integral`` but a bool), and
    ``seed`` is non-negative.
    """
    if model not in (VMF, DIAG):
        raise ValueError(f"model must be '{VMF}' or '{DIAG}', got {model!r}")
    if not _integral(d) or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
    if model == VMF and not MIN_DIM <= d <= MAX_DIM:
        raise ValueError(f"vmf dimension must be in [{MIN_DIM}, {MAX_DIM}], got {d!r}")
    if not _integral(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    sizes = list(sample_sizes)
    if not sizes or not all(_integral(n) and n >= 2 for n in sizes):
        raise ValueError(f"sample sizes must be a non-empty list of integers >= 2, got {sizes}")
    sizes = [int(n) for n in sizes]
    if not _integral(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        values = np.empty(trials)
        for t in range(trials):
            x = rng.standard_normal((n, d))
            if model == VMF:
                x /= np.linalg.norm(x, axis=1, keepdims=True)
            values[t] = bag_criteria(model, "tic", [(x,)])[1][0]
        rows.append(
            PenaltyCurveRow(
                n=n,
                mean_penalty=float(values.mean()),
                std_penalty=float(values.std()),
            )
        )
    return rows


def penalty_curve_csv(rows) -> str:
    """Render penalty-curve rows as CSV with a fixed header."""
    buf = io.StringIO()
    buf.write("n,mean_penalty,std_penalty\n")
    for row in rows:
        buf.write(f"{row.n},{row.mean_penalty!r},{row.std_penalty!r}\n")
    return buf.getvalue()
