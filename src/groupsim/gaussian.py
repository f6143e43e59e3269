"""Diagonal and spherical Gaussian fits with moment-based penalties.

All moments are biased (1/n).  Variances are floored at 1e-8 so repeated-word
bags keep finite log-likelihoods; floored dimensions are counted on the fit.
The diagonal-model penalty reduces to ``d/2 + sum_i kurt_i / 2`` where
``kurt_i`` is the biased sample kurtosis per dimension; for standard normal
data it approaches the parameter count 2d as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import as_matrix
from .special import LOG_2PI

VAR_FLOOR = 1e-8

DIAGONAL = "diagonal"
SPHERICAL = "spherical"


@dataclass(frozen=True)
class GaussianFit:
    """Maximum-likelihood Gaussian fit with the moments the penalty needs.

    A spherical fit stores its pooled variance and kurtosis replicated across
    dimensions, plus ``radial_sq_mean``, the mean over observations of
    ``(|x - mu|^2)^2``, which its gradient-based penalty needs.
    """

    kind: str
    mu_hat: np.ndarray
    var_hat: np.ndarray
    kurt_hat: np.ndarray
    n: int
    max_loglik: float
    floored_dims: int = 0
    radial_sq_mean: float | None = None

    @property
    def dim(self) -> int:
        return self.mu_hat.size


def fit_gaussian(sample, kind: str = DIAGONAL) -> GaussianFit:
    """Fit by maximum likelihood with biased moments.

    ``kind`` selects a per-dimension variance ("diagonal") or a single pooled
    one ("spherical", whose kurtosis pools fourth moments the same way).
    """
    if kind not in (DIAGONAL, SPHERICAL):
        raise ValueError(f"kind must be '{DIAGONAL}' or '{SPHERICAL}', got {kind!r}")
    x = as_matrix(sample)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two vectors to fit")
    mu = x.mean(axis=0)
    dev = x - mu
    sq = dev**2
    radial_sq_mean = None
    if kind == DIAGONAL:
        raw_var = sq.mean(axis=0)
        var = np.maximum(raw_var, VAR_FLOOR)
        floored = int(np.sum(raw_var < VAR_FLOOR))
        kurt = (sq**2).mean(axis=0) / var**2
    else:
        raw_pool = float(sq.mean())
        pool = max(raw_pool, VAR_FLOOR)
        floored = d if raw_pool < VAR_FLOOR else 0
        var = np.full(d, pool)
        kurt = np.full(d, float((sq**2).mean()) / pool**2)
        radial = sq.sum(axis=1)
        radial_sq_mean = float(np.mean(radial**2))
    max_loglik = -0.5 * n * float(np.log(var).sum()) - 0.5 * n * d * (LOG_2PI + 1.0)
    return GaussianFit(
        kind=kind,
        mu_hat=mu,
        var_hat=var,
        kurt_hat=kurt,
        n=n,
        max_loglik=max_loglik,
        floored_dims=floored,
        radial_sq_mean=radial_sq_mean,
    )


def gaussian_loglik(fit: GaussianFit, sample) -> float:
    """Exact log-density of a bag at the fit's parameters."""
    x = as_matrix(sample)
    if x.shape[1] != fit.dim:
        raise ValueError(f"dimension mismatch: fit has {fit.dim}, sample has {x.shape[1]}")
    dev = x - fit.mu_hat
    quad = float((dev**2 / fit.var_hat).sum())
    n = x.shape[0]
    return -0.5 * (n * float(np.log(fit.var_hat).sum()) + n * fit.dim * LOG_2PI + quad)


def gaussian_tic_penalty(fit: GaussianFit) -> float:
    """Gradient/curvature penalty tr(I J^-1).

    Diagonal: ``d/2 + sum_i kurt_i / 2`` (the observed information in
    mean/precision coordinates is diagonal at the maximum, and the score
    outer products reduce to per-dimension kurtosis).

    Spherical: the analogous pooled form ``d + Var(q) / (2 d var^2)`` with
    ``q_i = |x_i - mu|^2``; it approaches the parameter count d+1 for
    spherical data.  This variant has no literature-settled closed form and
    is marked experimental.
    """
    if fit.kind == DIAGONAL:
        return 0.5 * fit.dim + 0.5 * float(fit.kurt_hat.sum())
    pool = float(fit.var_hat[0])
    mean_q = fit.dim * pool
    var_q = fit.radial_sq_mean - mean_q**2
    return fit.dim + var_q / (2.0 * fit.dim * pool**2)
