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

A bag's statistics are its resultant S (the sum of its rows) and its row
count n.  :func:`fit_vmf` checks a bag's rows and sums them once; the fit of
two bags together is read from S_1 + S_2 and n_1 + n_2 by the same core, and
its penalty reads the two bags' rows in place, so no joint bag is stacked.

A fit carries its maximised log-likelihood, taken with respect to the
surface measure of the sphere, so it has no chart volume term; the
log-density of other rows at a fit is a test oracle (``tests/helpers.py``).
"""

from __future__ import annotations

import math
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
    ``resultant`` is the sum of the bag's rows, its sufficient statistic
    with ``n``: a joint bag's is the sum of its parts'.  ``theta_hat`` holds
    the polar angles of ``mu_hat`` for reference only; no computation here
    reads it, and a joint fit built from merged resultants leaves it None.
    """

    mu_hat: np.ndarray
    theta_hat: np.ndarray | None
    kappa_hat: float
    r_bar: float
    n: int
    max_loglik: float
    a_hat: float
    a_prime: float
    resultant: np.ndarray
    degenerate: bool = False

    @property
    def dim(self) -> int:
        return self.mu_hat.size


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


def _fit_resultant(resultant: np.ndarray, n: int, first_row: np.ndarray,
                   angles: bool = False) -> VmfFit:
    """The fit of a bag from its statistics: the resultant S (the sum of its
    unit rows), the row count n and the first row, the direction of a bag
    whose S is exactly 0.  With ``angles`` the fit carries the polar angles
    of its mean direction as ``theta_hat``.
    """
    d = resultant.size
    resultant_norm = math.sqrt(float(resultant @ resultant))  # np.linalg.norm's own sum
    raw_r_bar = resultant_norm / n
    degenerate = not (R_BAR_FLOOR <= raw_r_bar <= R_BAR_CEIL)
    r_bar = min(max(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    if resultant_norm > 0.0:
        mu_hat = resultant / resultant_norm
    else:
        # fully cancelling bag: direction is arbitrary, pick the first vector
        mu_hat = np.array(first_row, dtype=np.float64)
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
        degenerate=degenerate,
    )


def fit_vmf(sample) -> VmfFit:
    """Fit the mean direction by maximum likelihood and the concentration in closed form.

    The resultant length is clamped into [1e-7, 1 - 1e-7] so the
    concentration stays finite on degenerate bags (all vectors equal, or
    exactly cancelling); such fits carry ``degenerate=True``.
    """
    x = as_unit_matrix(sample)
    if len(x) < 2:
        raise ValueError("need at least two vectors to fit")
    # np.add.reduce, not .sum: on a short bag the method's Python wrapper costs as much
    return _fit_resultant(np.add.reduce(x, 0), len(x), x[0], angles=True)


def _tic_penalty(fit: VmfFit, blocks) -> float:
    """The penalty of :func:`vmf_tic_penalty` on the rows of a tuple of
    float64 unit-row blocks, read in place: sum((w . mu - A)^2), sum(|w|^2)
    and sum((w . mu)^2) are dot products added up over the blocks."""
    tangent_curvature = fit.kappa_hat * fit.r_bar
    if fit.degenerate or min(fit.a_prime, tangent_curvature) < CURVATURE_FLOOR:
        raise DegenerateCurvatureError(
            f"curvature below {CURVATURE_FLOOR:g} or degenerate fit; penalty undefined on this bag"
        )
    n, info_kappa, square_norms, square_dots = 0, 0.0, 0.0, 0.0
    for x in blocks:
        dots = x @ fit.mu_hat
        offsets = dots - fit.a_hat
        n += len(x)
        info_kappa += float(np.dot(offsets, offsets))
        square_norms += float(np.vdot(x, x))
        square_dots += float(np.dot(dots, dots))
    return (info_kappa / fit.a_prime
            + fit.kappa_hat * (square_norms - square_dots) / fit.r_bar) / n


def vmf_tic_penalty(fit: VmfFit, sample) -> float:
    """Gradient/curvature penalty tr(I J^-1) in the tangent space at the fit.

    ``mean((w . mu - A)^2) / A' + kappa mean(|w|^2 - (w . mu)^2) / R_bar``,
    from three dot products over the rows, with no (n, d) temporary when the
    rows are C-contiguous.  A fit that is not degenerate has
    1 - R_bar >= 1e-7, which bounds the cancellation in
    ``sum(|w|^2) - sum((w . mu)^2)`` to about 1e-9 relative.  The rows must
    be finite unit vectors (within 1e-6), or ``ValueError`` is raised.

    Raises :class:`DegenerateCurvatureError` when the fit is flagged
    degenerate, or when A' or kappa R_bar falls below 1e-12 (e.g. every
    vector equal to the mean direction).
    """
    x = as_unit_matrix(sample)
    if x.shape[1] != fit.dim:
        raise ValueError(f"dimension mismatch: fit has {fit.dim}, sample has {x.shape[1]}")
    return _tic_penalty(fit, (x,))
