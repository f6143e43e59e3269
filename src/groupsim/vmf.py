"""Von Mises-Fisher fitting and gradient-based penalty.

The model places mass on the unit sphere with density proportional to
``exp(kappa mu . w)``.  The maximum-likelihood mean direction is the
normalised resultant; the concentration is the closed-form estimate of
A_d(kappa) = R_bar by Banerjee et al. (JMLR 2005), with no Newton polish.  One
array Bessel pass per batch of fits (:func:`groupsim.special.vmf_kernels`)
gives every A_d(kappa), its slope A_d'(kappa) and log-normalizer together.

The penalty ``tr(I J^-1)`` does not depend on the parametrisation at the
maximum (Takeuchi 1976), so it is taken in the tangent space of the sphere
at the fitted direction (Mardia & Jupp, *Directional Statistics*, 2000),
with no angle chart.  There the curvature is block diagonal: the
concentration contributes ``mean((w . mu - A)^2) / A'`` and the d - 1
tangent directions, which share the curvature ``kappa R_bar``, contribute
``kappa mean(|w|^2 - (w . mu)^2) / R_bar``.  The whole penalty is O(nd).

A bag's statistics are its resultant S (the sum of its rows) and its row
count n.  :func:`fit_vmf` checks each bag's rows and sums them once, then
fits the batch from its (B, d) resultants and (B,) counts; the fits of two
bags together are read from S_1 + S_2 and n_1 + n_2 by the same array core,
and their penalties read the two bags' rows in place, so no joint bag is
stacked.  The module is internal: the scoring path
(:func:`groupsim.comparison.bag_criteria`) reads it.

A fit carries its maximised log-likelihood, taken with respect to the
surface measure of the sphere, so it has no chart volume term; the
log-density of other rows at a fit is a test oracle (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import as_matrix, bag_rows
from .hypersphere import to_spherical
from .special import (  # noqa: F401 - bessel_ratio stays importable from this module
    bessel_ratio,
    inv_bessel_ratio,
    vmf_kernels,
)

R_BAR_FLOOR = 1e-7
R_BAR_CEIL = 1.0 - 1e-7
CURVATURE_FLOOR = 1e-12


@dataclass(frozen=True)
class VmfFit:
    """Fits of B bags (see :func:`fit_vmf`).  ``mu_hat`` and ``resultant`` are
    (B, d), ``theta_hat`` (B, d - 1) and every other field (B,).

    ``max_loglik`` is ``n (kappa_hat r_bar - log Z(kappa_hat))``.  ``a_hat``
    and ``a_prime`` are A_d and its slope A_d' at ``kappa_hat``, the
    concentration's score offset and curvature in the penalty.  ``resultant``
    is the sum of a bag's rows, its sufficient statistic with ``n``: a joint
    bag's is the sum of its parts'.  ``clamped`` marks clamped resultant
    lengths.  ``theta_hat``, the polar angles of ``mu_hat``, is for reference
    only; joint fits from merged resultants leave it None.
    """

    mu_hat: np.ndarray
    theta_hat: np.ndarray | None
    kappa_hat: np.ndarray
    r_bar: np.ndarray
    n: np.ndarray
    max_loglik: np.ndarray
    a_hat: np.ndarray
    a_prime: np.ndarray
    resultant: np.ndarray
    clamped: np.ndarray


def as_unit_matrix(data) -> np.ndarray:
    """``data`` as a 2-D float array whose rows are finite unit vectors (within 1e-6)."""
    x = as_matrix(data)
    deviation = np.abs(np.sqrt(np.einsum("ij,ij->i", x, x)) - 1.0)
    if not (deviation <= 1e-6).all():  # a NaN deviation fails this comparison too
        if not np.isfinite(x).all():
            raise ValueError("vectors must be finite; a row holds NaN or inf")
        worst = float(np.max(deviation))
        raise ValueError(f"vectors must be unit-norm within 1e-6 (worst deviation {worst:.2e})")
    return x


def _fit_resultants(resultant: np.ndarray, n: np.ndarray, bags, angles: bool = False) -> VmfFit:
    """The fits of B bags from their (B, d) resultants S (the sums of their
    unit rows) and (B,) row counts n, with one :func:`vmf_kernels` pass.
    ``bags[b]`` is read only when S_b is exactly 0: its first row is then
    the direction.  With ``angles`` the fits carry ``theta_hat``.
    """
    d = resultant.shape[1]
    # one dot product per row, as np.linalg.norm of that row sums it
    rows = resultant[:, np.newaxis]
    resultant_norm = np.sqrt(np.matmul(rows, rows.transpose(0, 2, 1))).reshape(-1)
    with np.errstate(invalid="ignore"):  # 0 / 0 on a fully cancelling bag, replaced below
        mu_hat = resultant / resultant_norm[:, np.newaxis]
    for b in np.flatnonzero(resultant_norm == 0.0).tolist():
        mu_hat[b] = as_matrix(bags[b])[0]  # direction is arbitrary: pick the first vector
    raw_r_bar = resultant_norm / n
    clamped = ~((R_BAR_FLOOR <= raw_r_bar) & (raw_r_bar <= R_BAR_CEIL))
    r_bar = np.minimum(np.maximum(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    kappa_hat = inv_bessel_ratio(d, r_bar)
    a_hat, a_prime, log_c = vmf_kernels(d, kappa_hat)
    return VmfFit(
        mu_hat=mu_hat,
        theta_hat=to_spherical(mu_hat) if angles else None,
        kappa_hat=kappa_hat,
        r_bar=r_bar,
        n=n,
        max_loglik=n * (kappa_hat * r_bar - log_c),
        a_hat=a_hat,
        a_prime=a_prime,
        resultant=resultant,
        clamped=clamped,
    )


def fit_vmf(*bags) -> VmfFit:
    """Fit each bag's mean direction by maximum likelihood and its
    concentration in closed form, the B bags as one batch.

    Each bag is read as float64 in its turn and checked: finite unit rows
    (within 1e-6), at least two, as wide as the first bag's.  The resultant
    length is clamped into [1e-7, 1 - 1e-7] so the concentration stays
    finite on degenerate bags (all vectors equal, or exactly cancelling);
    such fits are flagged ``clamped``.
    """
    n, d = np.empty(len(bags), dtype=np.intp), bag_rows(bags[0]).shape[1]
    resultant = np.empty((len(bags), d))
    for b, bag in enumerate(bags):
        x = as_unit_matrix(bag)
        if len(x) < 2:
            raise ValueError("need at least two vectors to fit")
        if x.shape[1] != d:
            raise ValueError(f"dimension mismatch: {d} vs {x.shape[1]}")
        # np.add.reduce, not .sum: on a short bag the method's Python wrapper costs as much
        np.add.reduce(x, 0, out=resultant[b])
        n[b] = len(x)
    return _fit_resultants(resultant, n, bags, angles=True)


def _tic_penalty(fit: VmfFit, bags) -> tuple[np.ndarray, np.ndarray]:
    """Gradient/curvature penalties tr(I J^-1) in the tangent space at the
    fits, ``mean((w . mu - A)^2) / A' + kappa mean(|w|^2 - (w . mu)^2) / R_bar``,
    and the mask of the bags where they are defined, as (B,) arrays.

    ``bags[b]`` holds fit b's unit-row blocks, unchecked and read in place as
    float64 one at a time by three dot products.  An unclamped fit has
    1 - R_bar >= 1e-7, which bounds the cancellation in
    ``sum(|w|^2) - sum((w . mu)^2)`` to about 1e-9 relative.  The penalty is
    NaN on a clamped fit and where A' or kappa R_bar is below 1e-12 (e.g.
    every vector equal to the mean direction).
    """
    ok = ~fit.clamped & (np.minimum(fit.a_prime, fit.kappa_hat * fit.r_bar) >= CURVATURE_FLOOR)
    penalty = np.full(len(ok), np.nan)
    for b in np.flatnonzero(ok).tolist():
        mu, a_hat = fit.mu_hat[b], float(fit.a_hat[b])
        info_kappa, square_norms, square_dots = 0.0, 0.0, 0.0
        for x in bags[b]:
            x = np.asarray(x, dtype=np.float64)
            dots = x @ mu
            offsets = dots - a_hat
            info_kappa += float(np.dot(offsets, offsets))
            square_norms += float(np.vdot(x, x))
            square_dots += float(np.dot(dots, dots))
        penalty[b] = (info_kappa / fit.a_prime[b]
                      + fit.kappa_hat[b] * (square_norms - square_dots) / fit.r_bar[b]) / fit.n[b]
    return penalty, ok
