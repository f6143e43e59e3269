"""Von Mises-Fisher fitting and gradient-based penalty.

The model places mass on the unit sphere with density proportional to
``exp(kappa mu . w)``.  The maximum-likelihood mean direction is the
normalised resultant; the concentration is the closed-form estimate of
A_d(kappa) = R_bar by Banerjee et al. (JMLR 2005), with no Newton polish.  One
Bessel evaluation per fit (:func:`groupsim.special.vmf_kernels`) gives
A_d(kappa), its slope A_d'(kappa) and the log-normalizer together.

The penalty ``tr(I J^-1)`` does not depend on the parametrisation at the
maximum (Takeuchi 1976), so it is taken in the tangent space of the sphere
at the fitted direction (Mardia & Jupp, *Directional Statistics*, 2000),
with no angle chart.  There the curvature is block diagonal: the
concentration contributes ``mean((w . mu - A)^2) / A'`` and the d - 1
tangent directions, which share the curvature ``kappa R_bar``, contribute
``kappa mean(|w|^2 - (w . mu)^2) / R_bar``.  The whole penalty is O(nd).

A fit carries its maximised log-likelihood, taken with respect to the
surface measure of the sphere, so it has no chart volume term; the
log-density of other rows at a fit is a test oracle (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import as_matrix
from .errors import DegenerateCurvatureError
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
    """Fit of a von Mises-Fisher model (see :func:`fit_vmf`).

    ``max_loglik`` is ``n (kappa_hat r_bar - log Z(kappa_hat))``.  ``a_hat``
    and ``a_prime`` are A_d and its slope A_d' at ``kappa_hat``; they are the
    concentration's score offset and curvature in the penalty.
    ``theta_hat`` holds the polar angles of ``mu_hat`` for reference only;
    no computation here reads it.
    """

    mu_hat: np.ndarray
    theta_hat: np.ndarray
    kappa_hat: float
    r_bar: float
    n: int
    max_loglik: float
    a_hat: float
    a_prime: float
    degenerate: bool = False

    @property
    def dim(self) -> int:
        return self.mu_hat.size


def as_unit_matrix(data) -> np.ndarray:
    """``data`` as a 2-D float array whose rows are finite unit vectors (within 1e-6)."""
    x = as_matrix(data)
    deviation = np.abs(np.sqrt(np.einsum("ij,ij->i", x, x)) - 1.0)
    if not np.all(deviation <= 1e-6):  # a NaN deviation fails this comparison too
        if not np.isfinite(x).all():
            raise ValueError("vectors must be finite; a row holds NaN or inf")
        worst = float(np.max(deviation))
        raise ValueError(f"vectors must be unit-norm within 1e-6 (worst deviation {worst:.2e})")
    return x


def fit_vmf(sample) -> VmfFit:
    """Fit the mean direction by maximum likelihood and the concentration in closed form.

    The resultant length is clamped into [1e-7, 1 - 1e-7] so the
    concentration stays finite on degenerate bags (all vectors equal, or
    exactly cancelling); such fits carry ``degenerate=True``.
    """
    x = as_unit_matrix(sample)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least two vectors to fit")
    resultant = x.sum(axis=0)
    resultant_norm = float(np.linalg.norm(resultant))
    raw_r_bar = resultant_norm / n
    degenerate = not (R_BAR_FLOOR <= raw_r_bar <= R_BAR_CEIL)
    r_bar = min(max(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    if resultant_norm > 0.0:
        mu_hat = resultant / resultant_norm
    else:
        # fully cancelling bag: direction is arbitrary, pick the first vector
        mu_hat = x[0].copy()
    kappa_hat = inv_bessel_ratio(d, r_bar)
    a_hat, a_prime, log_c = vmf_kernels(d, kappa_hat)
    return VmfFit(
        mu_hat=mu_hat,
        theta_hat=to_spherical(mu_hat),
        kappa_hat=kappa_hat,
        r_bar=r_bar,
        n=n,
        max_loglik=n * (kappa_hat * r_bar - log_c),
        a_hat=a_hat,
        a_prime=a_prime,
        degenerate=degenerate,
    )


def vmf_tic_penalty(fit: VmfFit, sample, check_unit: bool = True) -> float:
    """Gradient/curvature penalty tr(I J^-1) in the tangent space at the fit.

    ``mean((w . mu - A)^2) / A' + kappa mean(|w|^2 - (w . mu)^2) / R_bar``,
    two passes over the rows with no (n, d) temporary.  A fit that is not
    degenerate has 1 - R_bar >= 1e-7, which bounds the cancellation in
    ``|w|^2 - (w . mu)^2`` to about 1e-9 relative.  ``check_unit=False``
    skips the unit-norm check for rows the caller has already validated
    (for example through :func:`fit_vmf` on the same rows).

    Raises :class:`DegenerateCurvatureError` when the fit is flagged
    degenerate, or when A' or kappa R_bar falls below 1e-12 (e.g. every
    vector equal to the mean direction).
    """
    x = as_unit_matrix(sample) if check_unit else sample
    n, d = x.shape
    if d != fit.dim:
        raise ValueError(f"dimension mismatch: fit has {fit.dim}, sample has {d}")
    tangent_curvature = fit.kappa_hat * fit.r_bar
    if fit.degenerate or min(fit.a_prime, tangent_curvature) < CURVATURE_FLOOR:
        raise DegenerateCurvatureError(
            f"curvature below {CURVATURE_FLOOR:g} or degenerate fit; penalty undefined on this bag"
        )
    dots = x @ fit.mu_hat
    info_kappa = float(np.mean((dots - fit.a_hat) ** 2))
    spread = float(np.mean(np.einsum("ij,ij->i", x, x) - dots * dots))
    return info_kappa / fit.a_prime + fit.kappa_hat * spread / fit.r_bar
