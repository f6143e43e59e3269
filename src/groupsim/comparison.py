"""Similarity scores from penalised model comparison.

A pair of vector bags is scored by contrasting a shared-parameter fit of
their concatenation against independent per-bag fits.  Every model score is
one composition over a batch of pairs (``pair_scores``; one pair is a batch
of one): a per-bag criterion (``bag_criteria``) gives (L, P) for each joint
bag and for each bag alone, and the score is
alpha (L_j - L_1 - L_2 - P_j + P_1 + P_2).  ``similarity_ic`` fits a von
Mises-Fisher, diagonal or spherical Gaussian model and takes P from one
information criterion, with alpha = 2: the gradient trace ("tic"), the
parameter count k ("aic") or (k/2) log n ("bic").  The Gaussian criteria read
each bag's moments (M3 and M4 only for the diagonal "tic" penalty), and a
joint bag's are its two bags' moments merged; vMF bags are fitted one by one
on their rows.  ``corpus_model_selection`` and
``penalty_curve`` read the same per-bag criterion.
``bayes_factor_similarity`` takes L as the Normal-Wishart log evidence (full
covariance, conjugate closed form under a prior with mean 0, scale I and
settable kappa0 and nu0), P = 0 and alpha = 1.  The closed forms
``similarity_closed_*`` write the tic score out independently of the
composer, with alpha = 1.  Rank-based evaluation is insensitive to alpha; the
breakdown records which convention produced the value.
"""

from __future__ import annotations

import functools
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from .embeddings import as_matrix
from .errors import DegenerateCurvatureError
from .gaussian import (
    DIAGONAL,
    SPHERICAL,
    GaussianMoments,
    merge_moments,
    moment_fit,
    moments,
    radial_sq_sum,
    tic_penalties,
)
from .special import MAX_DIM, MIN_DIM, inv_bessel_ratio, vmf_kernels
from .vmf import (
    CURVATURE_FLOOR,
    R_BAR_CEIL,
    R_BAR_FLOOR,
    as_unit_matrix,
    fit_vmf,
    vmf_tic_penalty,
)

VMF = "vmf"
DIAG = "diag"
BAYES = "bayes"

MODELS = (VMF, DIAG, SPHERICAL)
IC_KINDS = ("tic", "aic", "bic")


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


def _moment_order(model: str, ic: str | None) -> int:
    """The moment order a Gaussian criterion reads: 4 for the diagonal "tic"
    penalty (its kurtosis), 2 for every other."""
    return 4 if model == DIAG and ic == "tic" else 2


def bag_criteria(model: str, ic: str | None, bags, on_degenerate: str = "error",
                 prior: NormalWishartPrior | None = None, mom: GaussianMoments | None = None):
    """(max loglik L, penalty P, fallback flag, floored dims, degenerate flag)
    of every bag of a batch, as (B,) arrays.

    A bag is a tuple of (n_i, d) row blocks fitted as one.  P is the gradient
    trace for ``ic="tic"``, the parameter count k for "aic" and
    ``(k/2) log n`` for "bic"; a "bayes" bag has its Normal-Wishart log
    evidence as L and P = 0.  Gaussian bags are read from their moments
    ``mom`` (taken from the rows of one-block bags when omitted, to M4 only
    for the diagonal "tic" penalty, the one criterion that reads it); the
    spherical "tic" radial term reads each block about its bag's mean.  A
    vMF bag is fitted on its stacked blocks and flagged degenerate when its
    resultant length was clamped; ``on_degenerate="aic"`` puts the parameter
    count in place of a "tic" penalty whose curvature is degenerate, and
    flags the bag as a fallback.
    """
    if model != BAYES and (model not in MODELS or ic not in IC_KINDS):
        raise ValueError(f"unknown model and criterion ({model!r}, {ic!r})")
    d = bags[0][0].shape[1]
    for x in (x for bag in bags for x in bag):
        if x.shape[1] != d:
            raise ValueError(f"dimension mismatch: {d} vs {x.shape[1]}")
    count = len(bags)
    fallback, degenerate = np.zeros(count, bool), np.zeros(count, bool)
    floored, penalty = np.zeros(count, np.intp), np.zeros(count)
    if model != BAYES and ic != "tic":
        penalty = count_penalty(model, ic, d, [sum(len(x) for x in bag) for bag in bags])
    if model in (DIAG, SPHERICAL):
        kind = DIAGONAL if model == DIAG else SPHERICAL
        if mom is None:
            mom = moments(*(x for x, in bags), order=_moment_order(model, ic))
        loglik, var, kurt, floored = moment_fit(mom, kind)
        if ic == "tic":
            radial = None if model == DIAG else np.array([
                sum(radial_sq_sum(x, mu) for x in bag) / sum(len(x) for x in bag)
                for bag, mu in zip(bags, mom.mean)])
            penalty = tic_penalties(kind, d, var, kurt, radial)
        return loglik, penalty, fallback, floored, degenerate
    loglik = np.empty(count)
    if model == BAYES and prior is None:
        prior = default_prior(d)
    for b, bag in enumerate(bags):
        x = bag[0] if len(bag) == 1 else np.vstack(bag)
        if model == BAYES:
            loglik[b] = nw_log_evidence(x, prior)
            continue
        fit = fit_vmf(x)
        loglik[b], degenerate[b] = fit.max_loglik, fit.degenerate
        if ic != "tic":
            continue
        try:
            # fit_vmf has just checked that these rows are unit vectors
            penalty[b] = vmf_tic_penalty(fit, x, check_unit=False)
        except DegenerateCurvatureError:
            if on_degenerate != "aic":
                raise
            penalty[b], fallback[b] = aic_param_count(VMF, d), True
    return loglik, penalty, fallback, floored, degenerate


def pair_scores(model: str, ic: str | None, first, second, on_degenerate: str = "error",
                prior: NormalWishartPrior | None = None) -> PairScores:
    """Scores of the pairs (first[p], second[p]), two equal-length lists of (n, d) rows.

    Every model's score is one composition over the batch:
    ``alpha (L_joint - L_1 - L_2 - P_joint + P_1 + P_2)`` from
    :func:`bag_criteria` on the joint bags, the first bags and the second
    bags, with alpha = 2 for the information criteria and 1 for "bayes".  A
    Gaussian joint bag reads the merged moments of its two bags
    (:func:`merge_moments`), so no Gaussian bag is stacked or refitted; the
    moments stop after M2 unless the criterion is the diagonal "tic".  vMF
    and Normal-Wishart fit the stacked pair.  A non-finite term raises.
    """
    first, second = list(first), list(second)
    if not first or len(first) != len(second):
        raise ValueError(f"need as many first bags as second bags, at least one: "
                         f"got {len(first)} and {len(second)}")
    half = len(first)
    moms = (None, None, None)
    if model in (DIAG, SPHERICAL):
        mom = moments(*first, *second, order=_moment_order(model, ic))
        m1, m2 = mom.take(slice(0, half)), mom.take(slice(half, 2 * half))
        moms = (merge_moments(m1, m2), m1, m2)
    bags = (list(zip(first, second)), [(x,) for x in first], [(x,) for x in second])
    (ll_j, p_j, f_j, d_j, g_j), (ll_1, p_1, f_1, d_1, g_1), (ll_2, p_2, f_2, d_2, g_2) = (
        bag_criteria(model, ic, b, on_degenerate, prior, m) for b, m in zip(bags, moms))
    terms = np.column_stack([ll_j, ll_1, ll_2, p_j, p_1, p_2])
    if not np.isfinite(terms).all():  # finite rows so large that a fit overflowed
        raise ValueError(f"non-finite L or P term in pair {np.isfinite(terms).all(1).argmin()}")
    alpha = 1.0 if model == BAYES else 2.0
    return PairScores(
        method="bayes_factor" if model == BAYES else f"{model}_{ic}",
        values=alpha * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2),
        terms=terms,
        alpha=alpha,
        fallback=f_j | f_1 | f_2,
        floored_dims=int(d_j.sum() + d_1.sum() + d_2.sum()),
        degenerate_fits=int(g_j.sum() + g_1.sum() + g_2.sum()),
    )


def _validated_pair(d1, d2, model: str | None = None, ic: str | None = None):
    x1 = as_matrix(d1)
    x2 = as_matrix(d2)
    if x1.shape[1] != x2.shape[1]:
        raise ValueError(f"dimension mismatch: {x1.shape[1]} vs {x2.shape[1]}")
    if model is not None and model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if ic is not None and ic not in IC_KINDS:
        raise ValueError(f"ic must be one of {IC_KINDS}, got {ic!r}")
    return x1, x2


def similarity_ic(d1, d2, model: str, ic: str, on_degenerate: str = "error") -> SimilarityScore:
    """Generic composition: 2 (L_joint - L_1 - L_2 - P_joint + P_1 + P_2).

    ``P`` is the gradient-based trace for ``ic="tic"``, the parameter count k
    for "aic" and ``(k/2) log n`` for "bic"; the bic score is therefore
    ``2 (L_j - L_1 - L_2) - k log((n+m)/(nm))``.  The two independent-fit
    penalties add because the joint curvature of two disjoint parameter
    blocks is block diagonal.

    ``on_degenerate`` chooses the reaction to a degenerate curvature under
    "tic": "error" (default) propagates, "aic" substitutes the parameter
    count for the affected fit and flags the score.  A batch of one of
    :func:`pair_scores`.
    """
    x1, x2 = _validated_pair(d1, d2, model, ic)
    return pair_scores(model, ic, [x1], [x2], on_degenerate)[0]


def similarity_closed_vmf(d1, d2, on_degenerate: str = "error") -> SimilarityScore:
    """Closed-form vMF score with the gradient penalty (no factor 2).

    Written out from the resultants, without the fitting code: for m and l
    unit rows with resultants S_1, S_2 the joint resultant is S_1 + S_2, and
    each fit contributes ``n (kappa R_bar - log C_d(kappa))`` with
    R_bar = |S| / n (clamped as in :func:`groupsim.vmf.fit_vmf`) and
    A_d(kappa) = R_bar solved by :func:`groupsim.special.inv_bessel_ratio`.
    Each penalty is the tangent-space trace
    ``mean((w . mu - A_d)^2) / A_d' + kappa (mean |w|^2 - mean (w . mu)^2) / R_bar``
    with mu = S / |S|.  The score is ``L_joint - L_1 - L_2 - P_joint + P_1 + P_2``.
    """
    x1, x2 = _validated_pair(d1, d2)
    x1, x2 = as_unit_matrix(x1), as_unit_matrix(x2)
    terms = [_closed_vmf_terms(rows, on_degenerate) for rows in ((x1, x2), (x1,), (x2,))]
    (ll_j, p_j, f_j), (ll_1, p_1, f_1), (ll_2, p_2, f_2) = terms
    value = ll_j - ll_1 - ll_2 - p_j + p_1 + p_2
    return SimilarityScore(
        value=value,
        method="vmf_tic_closed",
        breakdown=ScoreBreakdown(ll_j, ll_1, ll_2, p_j, p_1, p_2, alpha=1.0),
        fallback=f_j or f_1 or f_2,
    )


def _closed_vmf_terms(parts, on_degenerate: str) -> tuple[float, float, bool]:
    """(max loglik, tangent-space penalty, fallback) of one vMF fit to the stacked parts."""
    n = sum(x.shape[0] for x in parts)
    if n < 2:
        raise ValueError("need at least two vectors to fit")
    d = parts[0].shape[1]
    resultant = sum(x.sum(axis=0) for x in parts)
    length = float(np.linalg.norm(resultant))
    raw_r_bar = length / n
    r_bar = min(max(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    kappa = inv_bessel_ratio(d, r_bar)
    a, a_prime, log_c = vmf_kernels(d, kappa)
    loglik = n * (kappa * r_bar - log_c)
    degenerate = not (R_BAR_FLOOR <= raw_r_bar <= R_BAR_CEIL)
    if degenerate or a_prime < CURVATURE_FLOOR or kappa * r_bar < CURVATURE_FLOOR:
        if on_degenerate == "aic":
            return loglik, float(aic_param_count(VMF, d)), True
        raise DegenerateCurvatureError("vMF curvature degenerate; penalty undefined on this bag")
    mu = resultant / length
    dots = np.concatenate([x @ mu for x in parts])
    mean_sq_norm = sum(float(np.einsum("ij,ij->", x, x)) for x in parts) / n
    info_kappa = float(np.mean((dots - a) ** 2))
    info_tangent = kappa * (mean_sq_norm - float(np.mean(dots**2))) / r_bar
    return loglik, info_kappa / a_prime + info_tangent, False


def similarity_closed_gaussian(d1, d2) -> SimilarityScore:
    """Closed-form diagonal-Gaussian score with kurtosis penalty (no factor 2).

    Per dimension ``-(m+l) log s_joint + m log s_1 + l log s_2`` on standard
    deviations, plus ``d/2 + (sum of -kurt_joint + kurt_1 + kurt_2) / 2``.
    """
    x1, x2 = _validated_pair(d1, d2)
    m, l = x1.shape[0], x2.shape[0]
    single = moments(x1, x2)
    joint = merge_moments(single.take(slice(0, 1)), single.take(slice(1, 2)))
    d = single.dim
    ll_j, var_j, kurt_j, _ = moment_fit(joint, DIAGONAL)
    ll_s, var_s, kurt_s, _ = moment_fit(single, DIAGONAL)
    ll_part = 0.5 * float(
        np.sum(-(m + l) * np.log(var_j[0]) + m * np.log(var_s[0]) + l * np.log(var_s[1]))
    )
    pen_part = 0.5 * d + 0.5 * float(np.sum(-kurt_j[0] + kurt_s[0] + kurt_s[1]))
    pen_j = tic_penalties(DIAGONAL, d, var_j, kurt_j)
    pen_s = tic_penalties(DIAGONAL, d, var_s, kurt_s)
    return SimilarityScore(
        value=ll_part + pen_part,
        method="diag_tic_closed",
        breakdown=ScoreBreakdown(
            float(ll_j[0]), float(ll_s[0]), float(ll_s[1]),
            float(pen_j[0]), float(pen_s[0]), float(pen_s[1]),
            alpha=1.0,
        ),
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
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))  # a numpy integer becomes an int
        if not (math.isfinite(self.kappa0) and self.kappa0 > 0.0):
            raise ValueError("kappa0 must be positive and finite")
        if not (math.isfinite(self.nu0) and self.nu0 > self.dim - 1):
            raise ValueError(f"nu0 must exceed d - 1 = {self.dim - 1}")


@functools.lru_cache(maxsize=4)
def default_prior(d: int) -> NormalWishartPrior:
    """Weak proper default: kappa0 = 1, nu0 = d + 2 (zero mean, identity scale).

    Cached per d (a run scores at one or a few widths); every caller shares
    the same frozen instance.
    """
    return NormalWishartPrior(d, kappa0=1.0, nu0=float(d + 2))


def nw_log_evidence(data, prior: NormalWishartPrior) -> float:
    """Log marginal likelihood of a bag under the Normal-Wishart prior.

    Conjugate closed form in log space (Murphy 2007), with mu_0 = 0 and
    T_0 = I.  T_n = I + U^T U, where the (n + 1, d) rows of U are the n
    centred rows and sqrt(c) xbar, c = n kappa0 / kappa_n.  When n + 1 < d,
    Sylvester's identity gives log|T_n| = log|I + U U^T|.  Otherwise I + S,
    S the centred scatter, is factored as L L^T and the mean row added by
    the matrix determinant lemma (Harville 1997),
    log|T_n| = log|I + S| + log1p(c |L^-1 xbar|^2), so a mean far from 0
    never cancels inside the Cholesky pivots.  A T_n that overflows raises
    ``ValueError``.  With a = nu0 / 2 and k = min(n, d),
    log Gamma_d(a + n/2) - log Gamma_d(a) telescopes to
    sum_{i=n-k+1..n} lgamma(a + i/2) - sum_{j=d-k..d-1} lgamma(a - j/2).
    For n < d a call costs O(d n^2 + n^3).
    """
    x = as_matrix(data)
    n, d = x.shape
    if d != prior.dim:
        raise ValueError(f"dimension mismatch: prior has {prior.dim}, data has {d}")
    if n < 1:
        raise ValueError("need at least one observation")
    if not np.isfinite(x).all():
        raise ValueError("bag contains non-finite values (NaN or inf)")
    nu_n, kappa_n = prior.nu0 + n, prior.kappa0 + n
    xbar = x.mean(axis=0)
    shrink = n * prior.kappa0 / kappa_n
    if n + 1 < d:
        update = np.empty((n + 1, d))
        np.subtract(x, xbar, out=update[:n])
        np.multiply(xbar, math.sqrt(shrink), out=update[n])
        gram = update @ update.T
    else:
        dev = x - xbar
        gram = dev.T @ dev
    gram.reshape(-1)[::len(gram) + 1] += 1.0  # the diagonal, as a strided view
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"posterior scale matrix not positive definite "
                                    f"(n={n}, d={d}): {exc}") from exc
    log_det_tn = 2.0 * float(np.log(chol.diagonal()).sum())
    if n + 1 >= d:
        w = solve_triangular(chol, xbar, lower=True, check_finite=False)
        log_det_tn += math.log1p(shrink * float(w @ w))
    if not math.isfinite(log_det_tn):
        raise ValueError(f"posterior scale overflows: log|T_n| = {log_det_tn} (n={n}, d={d})")
    t = 0.5 * np.arange(min(n, d))  # the min(n, d) lgamma terms that do not cancel
    log_gamma = float((gammaln(0.5 * nu_n - t) - gammaln(0.5 * (prior.nu0 - d + 1) + t)).sum())
    return (log_gamma - 0.5 * n * d * math.log(math.pi) - 0.5 * nu_n * log_det_tn
            + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n)))


def bayes_factor_similarity(d1, d2, prior: NormalWishartPrior | None = None) -> SimilarityScore:
    """Log ratio of the joint-bag evidence to the product of per-bag evidences."""
    x1, x2 = _validated_pair(d1, d2)
    return pair_scores(BAYES, None, [x1], [x2], prior=prior)[0]


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

    Every candidate is checked before the first fit.  L depends only on the
    model, so each model is fitted once, by :func:`bag_criteria` under
    "tic" when one of its candidates reads it; its other candidates take
    :func:`count_penalty`.  The Gaussian models share one moment sweep,
    which stops after M2 unless a diagonal "tic" candidate reads M4.  A
    candidate whose L or P is not finite on some bag raises ``ValueError``
    naming it and the first such bag.
    """
    bags = [(as_matrix(b),) for b in corpus]
    if not bags:
        raise ValueError("corpus must contain at least one bag")
    candidates = [(model, ic) for model, ic in candidates]
    fit_ic = {}  # model -> the criterion its one fit runs under
    for model, ic in candidates:
        if model not in MODELS or ic not in IC_KINDS:
            raise ValueError(f"unsupported candidate ({model!r}, {ic!r})")
        if fit_ic.get(model) != "tic":
            fit_ic[model] = ic
    mom = None
    if DIAG in fit_ic or SPHERICAL in fit_ic:
        order = max(_moment_order(model, ic) for model, ic in fit_ic.items())
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
    from this function always names a bad argument.
    """
    if model not in (VMF, DIAG):
        raise ValueError(f"model must be '{VMF}' or '{DIAG}', got {model!r}")
    if model == VMF and not MIN_DIM <= d <= MAX_DIM:
        raise ValueError(f"vmf dimension must be in [{MIN_DIM}, {MAX_DIM}], got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    sizes = [int(n) for n in sample_sizes]
    if not sizes or any(n < 2 for n in sizes):
        raise ValueError(f"sample sizes must be a non-empty list of integers >= 2, got {sizes}")
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
