"""Similarity scores from penalised model comparison.

A pair of vector bags is scored by contrasting a shared-parameter fit of
their concatenation against independent per-bag fits.  Every model score is
one composition over a batch of pairs, ``pair_scores`` (one pair is a batch
of one): a per-bag criterion (``bag_criteria``) gives (L, P) for each joint
bag and for each bag alone, and the score is
alpha (L_j - L_1 - L_2 - P_j + P_1 + P_2).  A von Mises-Fisher, diagonal or
spherical Gaussian model (``MODELS``) takes P from one information criterion
(``IC_KINDS``), with alpha = 2: the gradient trace ("tic"), the parameter
count k ("aic") or (k/2) log n ("bic").  The Gaussian criteria read
each bag's moments (M3 and M4 only for the diagonal "tic" penalty), and a
joint bag's are its two bags' moments merged.  The vMF single bags of a
batch are fitted together from their rows, and its joint bags together from
their two bags' summed resultants and row counts, each set with one array
Bessel pass; a joint bag's "tic" penalty reads its two bags' rows in place.
``corpus_model_selection`` and ``penalty_curve`` read the same per-bag
criterion.
The Bayes factor, model "bayes" with no criterion, takes L as the
Normal-Wishart log evidence (full covariance, conjugate closed form under a
prior with mean 0, scale I and settable kappa0 and nu0), P = 0 and
alpha = 1; the evidence is taken over stacks of bags with equal row counts,
a joint bag's two blocks written end to end into its stack.  Each model has
this one scoring path; the closed forms of the "tic" score that the tests
check it against are written out in ``tests/helpers.py``, and
``groupsim.evaluation.score_pair`` scores one pair through it by method
name.  Rank-based evaluation is insensitive to alpha; the breakdown records
which convention produced the value.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .embeddings import as_matrix, bag_rows
from .errors import DegenerateCurvatureError
from .gaussian import (
    DIAG,
    SPHERICAL,
    GaussianMoments,
    merge_moments,
    moment_fit,
    moments,
    radial_sq_sum,
    tic_penalties,
)
from .special import MAX_DIM, MIN_DIM
from .vmf import CURVATURE_FLOOR, VmfFit, _fit_resultants, _tic_penalty, fit_vmf

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


def _integral(value) -> bool:
    """Whether ``value`` is an integer (any ``numbers.Integral``) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _moment_order(model: str, ic: str | None) -> int:
    """The moment order a Gaussian criterion reads: 4 for the diagonal "tic"
    penalty (its kurtosis), 2 for every other."""
    return 4 if model == DIAG and ic == "tic" else 2


def _check_width(blocks) -> int:
    """The row width d shared by (n_i, d) blocks; the first other width raises."""
    d = blocks[0].shape[1]
    for x in blocks:
        if x.shape[1] != d:
            raise ValueError(f"dimension mismatch: {d} vs {x.shape[1]}")
    return d


def bag_criteria(model: str, ic: str | None, bags, on_degenerate: str = "error",
                 prior: NormalWishartPrior | None = None, mom: GaussianMoments | None = None,
                 fits: VmfFit | None = None):
    """(max loglik L, penalty P, fallback flag, floored dims, degenerate flag)
    of every bag of a batch, as (B,) arrays.

    A bag is a tuple of (n_i, d) row blocks fitted as one.  P is the gradient
    trace for ``ic="tic"``, the parameter count k for "aic" and
    ``(k/2) log n`` for "bic"; a ("bayes", None) bag has its Normal-Wishart log
    evidence as L and P = 0, the bags grouped by total row count and each
    group's rows (a joint bag's blocks end to end) copied into one float64
    (k, n, d) stack for one :func:`nw_log_evidence` call.  Gaussian bags are
    read from their moments ``mom`` (taken from the rows of one-block bags
    when omitted, to M4 only for the diagonal "tic" penalty, the one
    criterion that reads it); the spherical "tic" radial term reads each
    block about its bag's mean, rounding error included.  vMF bags are read
    from their batch fit ``fits`` (joint bags' made from merged resultants;
    one :func:`fit_vmf` on the rows of one-block bags when omitted), the
    "tic" penalty from each bag's blocks in place, and a bag is flagged
    degenerate when its resultant length was clamped.
    ``on_degenerate="aic"`` puts the parameter count in place of a "tic"
    penalty whose curvature is degenerate, and flags the bag as a fallback;
    any value outside :data:`ON_DEGENERATE` raises ``ValueError``.
    """
    _check_criterion(model, ic, on_degenerate)
    d = _check_width([x for bag in bags for x in bag])
    count = len(bags)
    fallback, degenerate = np.zeros(count, bool), np.zeros(count, bool)
    floored, penalty = np.zeros(count, np.intp), np.zeros(count)
    if model != BAYES and ic != "tic":
        penalty = count_penalty(model, ic, d, [sum(len(x) for x in bag) for bag in bags])
    if model in (DIAG, SPHERICAL):
        with np.errstate(over="ignore", invalid="ignore"):  # callers raise on a non-finite term
            if mom is None:
                mom = moments(*(x for x, in bags), order=_moment_order(model, ic))
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
        for n, members in groups.items():
            stack = np.empty((len(members), n, d))
            for rows, b in zip(stack, members):
                np.concatenate(bags[b], out=rows)  # a joint bag's blocks end to end
            loglik[members] = nw_log_evidence(stack, prior)
        return loglik, penalty, fallback, floored, degenerate
    fits = fit_vmf(*(x for x, in bags)) if fits is None else fits
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


def pair_scores(model: str, ic: str | None, first, second, on_degenerate: str = "error",
                prior: NormalWishartPrior | None = None) -> PairScores:
    """Scores of the pairs (first[p], second[p]), two equal-length lists of
    bags, each (n, d) rows or a one-bag block, read in their own dtype.

    ``(model, ic)`` is one of :data:`MODELS` by one of :data:`IC_KINDS`
    (``vmf_bic``, ``spherical_tic`` and ``spherical_bic`` have no method
    name), or ("bayes", None) under ``prior``, :func:`default_prior` when
    omitted.  vMF rows must be unit vectors, and a degenerate vMF curvature
    under "tic" raises unless ``on_degenerate="aic"``.

    Every model's score is one composition over the batch:
    ``alpha (L_joint - L_1 - L_2 - P_joint + P_1 + P_2)`` from two
    :func:`bag_criteria` calls, one on the P joint bags and one on the 2P
    single bags (the first bags, then the second), with alpha = 2 for the
    information criteria and 1 for "bayes"; P_1 and P_2 add because two
    independent fits have a block-diagonal joint curvature.  A Gaussian
    joint bag reads the merged moments of its two bags
    (:func:`merge_moments`), so no Gaussian bag is stacked or refitted; the
    moments stop after M2 unless the criterion is the diagonal "tic".  The
    2P vMF single bags are fitted in one :func:`fit_vmf` batch, and the P
    joint bags in one batch from their two bags' summed resultants and
    counts, with the first row of its first bag as the direction of an
    exactly cancelling pair; a joint bag's "tic" penalty reads the two bags'
    rows in place.  The Normal-Wishart evidence is taken over stacks
    of bags with equal row counts, one :func:`nw_log_evidence` call per
    distinct count in each of the two calls.  A non-finite term raises.
    """
    _check_criterion(model, ic, on_degenerate)  # before the fits below
    first, second = [bag_rows(x) for x in first], [bag_rows(x) for x in second]
    if not first or len(first) != len(second):
        raise ValueError(f"need as many first bags as second bags, at least one: "
                         f"got {len(first)} and {len(second)}")
    half, singles = len(first), first + second
    mom = fits = joint_mom = joint_fits = None
    if model in (DIAG, SPHERICAL):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term raises below
            mom = moments(*singles, order=_moment_order(model, ic))
            joint_mom = merge_moments(mom.take(slice(0, half)), mom.take(slice(half, 2 * half)))
    elif model == VMF:
        fits = fit_vmf(*singles)
        joint_fits = _fit_resultants(fits.resultant[:half] + fits.resultant[half:],
                                     fits.n[:half] + fits.n[half:], first)
    ll_j, p_j, f_j, d_j, g_j = bag_criteria(model, ic, list(zip(first, second)), on_degenerate,
                                            prior, joint_mom, joint_fits)
    ll_s, p_s, f_s, d_s, g_s = bag_criteria(model, ic, [(x,) for x in singles], on_degenerate,
                                            prior, mom, fits)
    (ll_1, ll_2), (p_1, p_2) = np.split(ll_s, 2), np.split(p_s, 2)
    terms = np.column_stack([ll_j, ll_1, ll_2, p_j, p_1, p_2])
    if not np.isfinite(terms).all():  # finite rows so large that a fit overflowed
        raise ValueError(f"non-finite L or P term in pair {np.isfinite(terms).all(1).argmin()}")
    alpha = 1.0 if model == BAYES else 2.0
    return PairScores(
        method="bayes_factor" if model == BAYES else f"{model}_{ic}",
        values=alpha * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2),
        terms=terms,
        alpha=alpha,
        fallback=f_j | f_s[:half] | f_s[half:],
        floored_dims=int(d_j.sum() + d_s.sum()),
        degenerate_fits=int(g_j.sum() + g_s.sum()),
    )


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

    ``data`` is one (n, d) bag, which gives a float, or a (k, n, d) stack of
    k bags of n rows each, which gives a (k,) array holding each bag's value
    bit for bit as a call on that bag alone.  Conjugate closed form in log
    space (Murphy 2007), with mu_0 = 0 and T_0 = I.  T_n = I + U^T U, where
    the (n + 1, d) rows of U are the n centred rows and sqrt(c) xbar,
    c = n kappa0 / kappa_n.  When n + 1 < d, Sylvester's identity gives
    log|T_n| = log|I + U U^T|.  Otherwise the mean row is added by the matrix
    determinant lemma (Harville 1997),
    log|T_n| = log|I + S| + log1p(c |L^-1 xbar|^2) with I + S = L L^T and S
    the centred scatter, so a mean far from 0 never cancels inside the
    Cholesky pivots.  Both factors come from one (d + 1) x (d + 1) factor:
    I + S bordered by xbar / s, with corner 1 + |xbar / s|^2, where
    s = max(1, max_i |xbar_i|) keeps the corner from overflowing.  Its first
    d pivots are L's, and its last row holds L^-1 xbar / s.  A T_n that
    overflows, and a factor that rounding makes fail, raise ``ValueError``
    with no ``RuntimeWarning`` before it.  With a = nu0 / 2 and k = min(n, d),
    log Gamma_d(a + n/2) - log Gamma_d(a) telescopes to
    sum_{i=n-k+1..n} lgamma(a + i/2) - sum_{j=d-k..d-1} lgamma(a - j/2).

    Cost per stack: the log-Gamma sum once, since it reads only n, d and the
    prior, and one stacked Gram and one stacked Cholesky factorisation, two
    numpy calls on either side.  For n + 1 < d the Grams are
    (n + 1) x (n + 1), O(k (d n^2 + n^3)); for n + 1 >= d they are the
    bordered (d + 1) x (d + 1), O(k (n d^2 + d^3)), a (k, d + 1, d + 1)
    stack about the size of the (k, n, d) rows it is read from.
    """
    single = np.ndim(data) != 3
    x = as_matrix(data)[np.newaxis] if single else np.asarray(data, dtype=np.float64)
    _, n, d = x.shape
    if d != prior.dim:
        raise ValueError(f"dimension mismatch: prior has {prior.dim}, data has {d}")
    if n < 1:
        raise ValueError("need at least one observation")
    if not np.isfinite(x).all():
        raise ValueError("bag contains non-finite values (NaN or inf)")
    nu_n, kappa_n = prior.nu0 + n, prior.kappa0 + n
    shrink = n * prior.kappa0 / kappa_n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        xbar = x.mean(axis=1)
        if n + 1 < d:
            update = np.empty((len(x), n + 1, d))
            np.subtract(x, xbar[:, np.newaxis], out=update[:, :n])
            np.multiply(xbar, math.sqrt(shrink), out=update[:, n])
            chol = _factor_identity_plus(update @ update.transpose(0, 2, 1))
            log_det_tn = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        else:
            scale = np.maximum(1.0, np.abs(xbar).max(axis=1))  # keeps the corner finite
            border = xbar / scale[:, np.newaxis]
            dev = x - xbar[:, np.newaxis]
            gram = np.empty((len(x), d + 1, d + 1))  # S bordered by xbar / s, corner |xbar / s|^2
            np.matmul(dev.transpose(0, 2, 1), dev, out=gram[:, :d, :d])
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

    A candidate is a (model, ic) pair with ic in :data:`IC_KINDS`; a "bic"
    candidate ranks by ``-2 L + k log n``.  Lets two likelihoods be compared
    on a plain corpus of bags, without any labelled similarity data.

    The candidates (at least one) and ``on_degenerate`` (one of
    :data:`ON_DEGENERATE`) are checked before the first fit.  L depends only
    on the model, so each model is fitted once, by :func:`bag_criteria` under
    "tic" when one of its candidates reads it; its other candidates take
    :func:`count_penalty`.  The Gaussian models share one moment sweep,
    which stops after M2 unless a diagonal "tic" candidate reads M4.  A
    candidate whose L or P is not finite on some bag raises ``ValueError``
    naming it and the first such bag.  Bags keep their dtype (float32 from a
    lexicon): each kernel reads one bag at a time as float64.
    """
    bags = [(bag_rows(b),) for b in corpus]
    if not bags:
        raise ValueError("corpus must contain at least one bag")
    candidates = [(model, ic) for model, ic in candidates]
    if not candidates:
        raise ValueError(f"candidates must name at least one (model, ic) pair, got {candidates}")
    _check_on_degenerate(on_degenerate)
    fit_ic = {}  # model -> the criterion its one fit runs under
    for model, ic in candidates:
        if model not in MODELS or ic not in IC_KINDS:
            raise ValueError(f"unsupported candidate ({model!r}, {ic!r})")
        if fit_ic.get(model) != "tic":
            fit_ic[model] = ic
    mom = None
    if DIAG in fit_ic or SPHERICAL in fit_ic:
        order = max(_moment_order(model, ic) for model, ic in fit_ic.items())
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite L raises below
            mom = moments(*(x for x, in bags), order=order)
    fits = {model: bag_criteria(model, ic, bags, on_degenerate, mom=mom)[:2]
            for model, ic in fit_ic.items()}
    d, n = bags[0][0].shape[1], [len(x) for x, in bags]
    rows = []
    for model, ic in candidates:
        ll, pen = fits[model]
        if ic != fit_ic[model]:
            pen = count_penalty(model, ic, d, n)
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
