"""Similarity scores from penalised model comparison.

A pair of vector bags is scored by contrasting a shared-parameter fit of
their concatenation against independent per-bag fits.  Every model score is
one composition: a per-bag criterion gives (L, P) for the joint bag and for
each bag alone, and the score is alpha (L_j - L_1 - L_2 - P_j + P_1 + P_2).
``similarity_ic`` fits a von Mises-Fisher, diagonal or spherical Gaussian
model and takes P from one information criterion, with alpha = 2: the
gradient trace ("tic"), the parameter count k ("aic") or (k/2) log n
("bic").  ``corpus_model_selection`` and ``penalty_curve`` read the same
per-bag criterion.  ``bayes_factor_similarity`` takes L as the
Normal-Wishart log evidence (full covariance, conjugate closed form), P = 0
and alpha = 1.  The closed forms ``similarity_closed_*`` write the tic score
out independently of the composer, with alpha = 1.  Rank-based evaluation is
insensitive to alpha; the breakdown records which convention produced the
value.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .embeddings import as_matrix
from .errors import DegenerateCurvatureError
from .gaussian import DIAGONAL, SPHERICAL, fit_gaussian, gaussian_tic_penalty
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


def aic_param_count(model: str, d: int) -> int:
    """Parameter counts: vMF d, diagonal Gaussian 2d, spherical Gaussian d+1."""
    if model == VMF:
        return d
    if model == DIAG:
        return 2 * d
    if model == SPHERICAL:
        return d + 1
    raise ValueError(f"unknown model {model!r}")


def _fit_loglik_penalty(
    x: np.ndarray,
    model: str,
    ic: str,
    refine_kappa: bool,
    on_degenerate: str,
) -> tuple[float, float, bool]:
    """Fit one bag; return (max loglik, penalty, degenerate-fallback flag).

    The penalty is the gradient trace for ``ic="tic"``, the parameter count
    k for "aic" and ``(k/2) log n`` for "bic".
    """
    n, d = x.shape
    k = aic_param_count(model, d)
    if model == VMF:
        fit = fit_vmf(x, refine_kappa=refine_kappa)
    else:
        fit = fit_gaussian(x, kind=DIAGONAL if model == DIAG else SPHERICAL)
    if ic == "aic":
        return fit.max_loglik, float(k), False
    if ic == "bic":
        return fit.max_loglik, 0.5 * k * math.log(n), False
    if model != VMF:
        return fit.max_loglik, gaussian_tic_penalty(fit), False
    try:
        # fit_vmf has just checked that these rows are unit vectors
        return fit.max_loglik, vmf_tic_penalty(fit, x, check_unit=False), False
    except DegenerateCurvatureError:
        if on_degenerate == "aic":
            return fit.max_loglik, float(k), True
        raise


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


def similarity_ic(
    d1,
    d2,
    model: str,
    ic: str,
    refine_kappa: bool = False,
    on_degenerate: str = "error",
) -> SimilarityScore:
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
    criterion = lambda x: _fit_loglik_penalty(x, model, ic, refine_kappa, on_degenerate)
    return _compose(x1, x2, criterion, 2.0, f"{model}_{ic}")


def similarity_closed_vmf(
    d1,
    d2,
    refine_kappa: bool = False,
    on_degenerate: str = "error",
) -> SimilarityScore:
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
    terms = [
        _closed_vmf_terms(rows, refine_kappa, on_degenerate)
        for rows in ((x1, x2), (x1,), (x2,))
    ]
    (ll_j, p_j, f_j), (ll_1, p_1, f_1), (ll_2, p_2, f_2) = terms
    value = ll_j - ll_1 - ll_2 - p_j + p_1 + p_2
    return SimilarityScore(
        value=value,
        method="vmf_tic_closed",
        breakdown=ScoreBreakdown(ll_j, ll_1, ll_2, p_j, p_1, p_2, alpha=1.0),
        fallback=f_j or f_1 or f_2,
    )


def _closed_vmf_terms(parts, refine_kappa: bool, on_degenerate: str) -> tuple[float, float, bool]:
    """(max loglik, tangent-space penalty, fallback) of one vMF fit to the stacked parts."""
    n = sum(x.shape[0] for x in parts)
    if n < 2:
        raise ValueError("need at least two vectors to fit")
    d = parts[0].shape[1]
    resultant = sum(x.sum(axis=0) for x in parts)
    length = float(np.linalg.norm(resultant))
    raw_r_bar = length / n
    r_bar = min(max(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    kappa = inv_bessel_ratio(d, r_bar, refine=refine_kappa)
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
    joint = np.vstack([x1, x2])
    fit_j = fit_gaussian(joint, kind=DIAGONAL)
    fit_1 = fit_gaussian(x1, kind=DIAGONAL)
    fit_2 = fit_gaussian(x2, kind=DIAGONAL)
    ll_part = 0.5 * float(
        np.sum(
            -(m + l) * np.log(fit_j.var_hat)
            + m * np.log(fit_1.var_hat)
            + l * np.log(fit_2.var_hat)
        )
    )
    d = fit_j.dim
    pen_part = 0.5 * d + 0.5 * float(
        np.sum(-fit_j.kurt_hat + fit_1.kurt_hat + fit_2.kurt_hat)
    )
    return SimilarityScore(
        value=ll_part + pen_part,
        method="diag_tic_closed",
        breakdown=ScoreBreakdown(
            fit_j.max_loglik,
            fit_1.max_loglik,
            fit_2.max_loglik,
            gaussian_tic_penalty(fit_j),
            gaussian_tic_penalty(fit_1),
            gaussian_tic_penalty(fit_2),
            alpha=1.0,
        ),
    )


@dataclass(frozen=True)
class NormalWishartPrior:
    """Conjugate prior over the mean and precision of a full-covariance Gaussian.

    ``t0`` must be symmetric positive definite and ``nu0 > d - 1``.  The
    per-prior constants of the evidence (the Cholesky factor of ``t0``,
    log|t0| and log Gamma_d(nu0 / 2)) are computed once at construction,
    which also validates; the arrays are kept as read-only copies so the
    constants cannot drift from them.
    """

    mu0: np.ndarray
    kappa0: float
    nu0: float
    t0: np.ndarray
    chol_t0: np.ndarray = field(init=False, repr=False)
    log_det_t0: float = field(init=False, repr=False)
    log_gamma_nu0: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mu0 = _read_only(self.mu0)
        t0 = _read_only(self.t0)
        d = mu0.size
        if not (math.isfinite(self.kappa0) and self.kappa0 > 0.0):
            raise ValueError("kappa0 must be positive and finite")
        if not (math.isfinite(self.nu0) and self.nu0 > d - 1):
            raise ValueError(f"nu0 must exceed d - 1 = {d - 1}")
        if t0.shape != (d, d):
            raise ValueError("t0 must be d x d")
        chol = np.linalg.cholesky(t0)  # raises LinAlgError if not SPD
        chol.setflags(write=False)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "chol_t0", chol)
        object.__setattr__(self, "log_det_t0", 2.0 * float(np.log(np.diag(chol)).sum()))
        object.__setattr__(self, "log_gamma_nu0", log_multivariate_gamma(d, self.nu0 / 2.0))

    @property
    def dim(self) -> int:
        return self.mu0.size


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=4)
def default_prior(d: int) -> NormalWishartPrior:
    """Weak proper default: zero mean, kappa0 = 1, nu0 = d + 2, identity scale.

    Cached per d (a run scores at one or a few widths); every caller shares
    the same read-only instance.
    """
    return NormalWishartPrior(mu0=np.zeros(d), kappa0=1.0, nu0=float(d + 2), t0=np.eye(d))


def nw_log_evidence(data, prior: NormalWishartPrior) -> float:
    """Log marginal likelihood of a bag under the Normal-Wishart prior.

    Conjugate closed form in log space (Murphy 2007).  The posterior scale
    T_n = T_0 + U U^T is a rank-(n + 1) update of T_0, where U holds the n
    centred rows and sqrt(n kappa0 / kappa_n) (xbar - mu0).  With the
    whitened update W = L_0^{-1} U (L_0 the prior's Cholesky factor), the
    matrix determinant lemma (Harville 1997) gives
    log|T_n| = log|T_0| + log|I + G|, with G the Gram of W on its smaller
    side (W^T W when n + 1 < d, else W W^T; Sylvester's identity).  T_n is
    never formed: for n < d a call costs O(d^2 n + n^3).
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
    update[:, n] = math.sqrt(n * prior.kappa0 / kappa_n) * (xbar - prior.mu0)
    w = solve_triangular(prior.chol_t0, update, lower=True, check_finite=False)
    gram = w.T @ w if n + 1 < d else w @ w.T
    gram[np.diag_indices_from(gram)] += 1.0
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"posterior scale matrix not positive definite (n={n}, d={d}): {exc}"
        ) from exc
    log_det_tn = prior.log_det_t0 + 2.0 * float(np.log(np.diag(chol)).sum())
    return (
        -0.5 * n * d * math.log(math.pi)
        + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n))
        + 0.5 * (prior.nu0 * prior.log_det_t0 - nu_n * log_det_tn)
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
    refine_kappa: bool = False,
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
    rows = []
    for model, ic in candidates:
        if model not in MODELS or ic not in IC_KINDS:
            raise ValueError(f"unsupported candidate ({model!r}, {ic!r})")
        total = 0.0
        for x in bags:
            ll, pen, _ = _fit_loglik_penalty(x, model, ic, refine_kappa, on_degenerate)
            total += -2.0 * (ll - pen)
        rows.append(ModelCandidateScore(model=model, ic=ic, mean_ic=total / len(bags)))
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
    if any(n < 2 for n in sizes):
        raise ValueError(f"sample sizes must be >= 2, got {sizes}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        values = np.empty(trials)
        for t in range(trials):
            x = rng.standard_normal((n, d))
            if model == VMF:
                x /= np.linalg.norm(x, axis=1, keepdims=True)
            values[t] = _fit_loglik_penalty(x, model, "tic", False, "error")[1]
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
