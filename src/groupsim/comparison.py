"""Similarity scores from penalised model comparison.

A pair of vector bags is scored by contrasting a shared-parameter fit of
their concatenation against independent per-bag fits.  Every model score is
one composition: a per-bag criterion gives (L, P) for the joint bag and for
each bag alone, and the score is alpha (L_j - L_1 - L_2 - P_j + P_1 + P_2).
``similarity_ic`` fits a von Mises-Fisher, diagonal or spherical Gaussian
model and takes P from one information criterion, with alpha = 2: the
gradient trace ("tic"), the parameter count k ("aic") or (k/2) log n
("bic").  The Gaussian criteria read each bag's moments, and the joint bag's
are the two bags' moments merged, so a batch of pairs is scored at once
(``gaussian_pair_scores``; one pair is a batch of one).
``corpus_model_selection`` and ``penalty_curve`` read the same per-bag
criterion.  ``bayes_factor_similarity`` takes L as the
Normal-Wishart log evidence (full covariance, conjugate closed form under a
prior with mean 0, scale I and settable kappa0 and nu0), P = 0 and
alpha = 1.  The closed forms ``similarity_closed_*`` write the tic score out
independently of the composer, with alpha = 1.  Rank-based evaluation is
insensitive to alpha; the breakdown records which convention produced the
value.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

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
from .special import MAX_DIM, MIN_DIM, inv_bessel_ratio, log_multivariate_gamma, vmf_kernels
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
    variance floor over every fit of the batch.  Indexing gives one pair's
    :class:`SimilarityScore`.
    """

    method: str
    values: np.ndarray
    terms: np.ndarray | None = None
    alpha: float = 1.0
    fallback: np.ndarray | None = None
    floored_dims: int = 0

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

    @classmethod
    def collect(cls, method: str, scores) -> PairScores:
        """A batch of per-pair model scores."""
        terms = np.array([[b.loglik_joint, b.loglik_1, b.loglik_2,
                           b.penalty_joint, b.penalty_1, b.penalty_2]
                          for b in (s.breakdown for s in scores)]).reshape(-1, 6)
        return cls(
            method=method,
            values=np.array([s.value for s in scores]),
            terms=terms,
            alpha=scores[0].breakdown.alpha if scores else 1.0,
            fallback=np.array([s.fallback for s in scores], dtype=bool),
        )


def aic_param_count(model: str, d: int) -> int:
    """Parameter counts: vMF d, diagonal Gaussian 2d, spherical Gaussian d+1."""
    if model == VMF:
        return d
    if model == DIAG:
        return 2 * d
    if model == SPHERICAL:
        return d + 1
    raise ValueError(f"unknown model {model!r}")


def _count_penalty(model: str, d: int, ic: str, n):
    """The parameter count k for "aic", ``(k/2) log n`` for "bic"."""
    k = aic_param_count(model, d)
    return float(k) if ic == "aic" else 0.5 * k * np.log(n)


def _fit_loglik_penalty(
    x: np.ndarray,
    model: str,
    ic: str,
    on_degenerate: str,
) -> tuple[float, float, bool]:
    """Fit one bag; return (max loglik, penalty, degenerate-fallback flag).

    The penalty is the gradient trace for ``ic="tic"``, the parameter count
    k for "aic" and ``(k/2) log n`` for "bic".  A Gaussian bag is a batch of
    one of :func:`_gaussian_terms`.
    """
    n, d = x.shape
    if model != VMF:
        mom = moments(x)
        loglik, penalty, _ = _gaussian_terms(mom, model, ic, _radial_sq_means(model, ic, [x], mom))
        return float(loglik[0]), float(penalty[0]), False
    fit = fit_vmf(x)
    if ic != "tic":
        return fit.max_loglik, float(_count_penalty(model, d, ic, n)), False
    try:
        # fit_vmf has just checked that these rows are unit vectors
        return fit.max_loglik, vmf_tic_penalty(fit, x, check_unit=False), False
    except DegenerateCurvatureError:
        if on_degenerate == "aic":
            return fit.max_loglik, float(aic_param_count(VMF, d)), True
        raise


def _gaussian_terms(mom: GaussianMoments, model: str, ic: str, radial_sq_mean=None):
    """(max loglik, penalty, floored dims) of the diagonal or spherical Gaussian
    fit of every bag of a batch, as (B,) arrays, from the bags' moments.

    The spherical "tic" penalty also needs each bag's ``radial_sq_mean``.
    """
    kind = DIAGONAL if model == DIAG else SPHERICAL
    loglik, var, kurt, floored = moment_fit(mom, kind)
    if ic == "tic":
        penalty = tic_penalties(kind, mom.dim, var, kurt, radial_sq_mean)
    else:
        penalty = np.broadcast_to(_count_penalty(model, mom.dim, ic, mom.n), loglik.shape)
    return loglik, penalty, floored


def _radial_sq_means(model: str, ic: str, bags, mom: GaussianMoments):
    """Each bag's mean ``(|x - mu|^2)^2`` where the spherical "tic" penalty reads it, else None."""
    if model != SPHERICAL or ic != "tic":
        return None
    return np.array([radial_sq_sum(x, mu) / len(x) for x, mu in zip(bags, mom.mean)])


def gaussian_pair_scores(m1: GaussianMoments, m2: GaussianMoments, model: str, ic: str,
                         rows=None) -> PairScores:
    """Diagonal or spherical Gaussian scores of the pairs (m1[p], m2[p]).

    The joint fit of each pair reads the merged moments (:func:`merge_moments`),
    so no bag is stacked or refitted.  ``rows``, one ``(x1, x2)`` per pair, is
    read only by the spherical "tic" penalty, whose radial term needs each
    row's distance to the fitted mean.
    """
    joint = merge_moments(m1, m2)
    radial = (None, None, None)
    if model == SPHERICAL and ic == "tic":
        if rows is None:
            raise ValueError("the spherical tic penalty needs the rows of every pair")
        radial = np.array([
            ((radial_sq_sum(x1, mu_j) + radial_sq_sum(x2, mu_j)) / (len(x1) + len(x2)),
             radial_sq_sum(x1, mu_1) / len(x1),
             radial_sq_sum(x2, mu_2) / len(x2))
            for (x1, x2), mu_j, mu_1, mu_2 in zip(rows, joint.mean, m1.mean, m2.mean)
        ]).T
    (ll_j, p_j, f_j), (ll_1, p_1, f_1), (ll_2, p_2, f_2) = (
        _gaussian_terms(mom, model, ic, r) for mom, r in zip((joint, m1, m2), radial))
    return PairScores(
        method=f"{model}_{ic}",
        values=2.0 * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2),
        terms=np.column_stack([ll_j, ll_1, ll_2, p_j, p_1, p_2]),
        alpha=2.0,
        fallback=np.zeros(len(joint), dtype=bool),
        floored_dims=int(f_j.sum() + f_1.sum() + f_2.sum()),
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


def _compose(x1, x2, criterion, alpha: float, method: str) -> SimilarityScore:
    """``alpha (L_joint - L_1 - L_2 - P_joint + P_1 + P_2)`` from one per-bag criterion.

    ``criterion(x)`` returns ``(L, P, fallback)`` for one bag; it runs on the
    stacked pair, then on each bag alone.
    """
    ll_j, p_j, f_j = criterion(np.vstack([x1, x2]))
    ll_1, p_1, f_1 = criterion(x1)
    ll_2, p_2, f_2 = criterion(x2)
    return SimilarityScore(
        value=alpha * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2),
        method=method,
        breakdown=ScoreBreakdown(ll_j, ll_1, ll_2, p_j, p_1, p_2, alpha=alpha),
        fallback=f_j or f_1 or f_2,
    )


def similarity_ic(d1, d2, model: str, ic: str, on_degenerate: str = "error") -> SimilarityScore:
    """Generic composition: 2 (L_joint - L_1 - L_2 - P_joint + P_1 + P_2).

    ``P`` is the gradient-based trace for ``ic="tic"``, the parameter count k
    for "aic" and ``(k/2) log n`` for "bic"; the bic score is therefore
    ``2 (L_j - L_1 - L_2) - k log((n+m)/(nm))``.  The two independent-fit
    penalties add because the joint curvature of two disjoint parameter
    blocks is block diagonal.

    ``on_degenerate`` chooses the reaction to a degenerate curvature under
    "tic": "error" (default) propagates, "aic" substitutes the parameter
    count for the affected fit and flags the score.
    """
    x1, x2 = _validated_pair(d1, d2, model, ic)
    if model != VMF:
        return gaussian_pair_scores(moments(x1), moments(x2), model, ic, rows=[(x1, x2)])[0]
    criterion = lambda x: _fit_loglik_penalty(x, model, ic, on_degenerate)
    return _compose(x1, x2, criterion, 2.0, f"{model}_{ic}")


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
    degrees of freedom.  The per-prior constant of the evidence,
    log Gamma_d(nu0 / 2), is computed once at construction, which also
    validates.
    """

    dim: int
    kappa0: float
    nu0: float
    log_gamma_nu0: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not (math.isfinite(self.kappa0) and self.kappa0 > 0.0):
            raise ValueError("kappa0 must be positive and finite")
        if not (math.isfinite(self.nu0) and self.nu0 > self.dim - 1):
            raise ValueError(f"nu0 must exceed d - 1 = {self.dim - 1}")
        object.__setattr__(self, "log_gamma_nu0", log_multivariate_gamma(self.dim, self.nu0 / 2.0))


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
    T_0 = I.  The posterior scale T_n = I + U U^T is a rank-(n + 1) update of
    the identity, where U holds the n centred rows and
    sqrt(n kappa0 / kappa_n) xbar.  The matrix determinant lemma (Harville
    1997) gives log|T_n| = log|I + G|, with G the Gram of U on its smaller
    side (U^T U when n + 1 < d, else U U^T; Sylvester's identity), and
    log|T_0| = 0.  T_n is never formed: for n < d a call costs
    O(d n^2 + n^3).
    """
    x = as_matrix(data)
    n, d = x.shape
    if d != prior.dim:
        raise ValueError(f"dimension mismatch: prior has {prior.dim}, data has {d}")
    if n < 1:
        raise ValueError("need at least one observation")
    if not np.isfinite(x).all():
        raise ValueError("bag contains non-finite values (NaN or inf)")
    nu_n = prior.nu0 + n
    kappa_n = prior.kappa0 + n
    xbar = x.mean(axis=0)
    update = np.empty((d, n + 1))
    update[:, :n] = (x - xbar).T
    update[:, n] = math.sqrt(n * prior.kappa0 / kappa_n) * xbar
    gram = update.T @ update if n + 1 < d else update @ update.T
    gram[np.diag_indices_from(gram)] += 1.0
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"posterior scale matrix not positive definite (n={n}, d={d}): {exc}"
        ) from exc
    log_det_tn = 2.0 * float(np.log(np.diag(chol)).sum())
    return (
        -0.5 * n * d * math.log(math.pi)
        + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n))
        - 0.5 * nu_n * log_det_tn
        + log_multivariate_gamma(d, nu_n / 2.0)
        - prior.log_gamma_nu0
    )


def bayes_factor_similarity(d1, d2, prior: NormalWishartPrior | None = None) -> SimilarityScore:
    """Log ratio of the joint-bag evidence to the product of per-bag evidences."""
    x1, x2 = _validated_pair(d1, d2)
    if prior is None:
        prior = default_prior(x1.shape[1])
    return _compose(x1, x2, lambda x: (nw_log_evidence(x, prior), 0.0, False), 1.0, "bayes_factor")


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
    """
    bags = [as_matrix(b) for b in corpus]
    if not bags:
        raise ValueError("corpus must contain at least one bag")
    mom = None
    rows = []
    for model, ic in candidates:
        if model not in MODELS or ic not in IC_KINDS:
            raise ValueError(f"unsupported candidate ({model!r}, {ic!r})")
        if model == VMF:
            criteria = [-2.0 * (ll - pen) for ll, pen, _ in
                        (_fit_loglik_penalty(x, model, ic, on_degenerate) for x in bags)]
        else:
            mom = mom if mom is not None else moments(*bags)
            ll, pen, _ = _gaussian_terms(mom, model, ic, _radial_sq_means(model, ic, bags, mom))
            criteria = -2.0 * (ll - pen)
        rows.append(ModelCandidateScore(model=model, ic=ic, mean_ic=float(np.mean(criteria))))
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
            values[t] = _fit_loglik_penalty(x, model, "tic", "error")[1]
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
