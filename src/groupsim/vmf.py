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

A bag's statistics are its resultant S (the sum of its rows), its row
count n and its square norm, the sum of its rows' |w|^2.  :func:`fit_vmf`
takes its bags in blocks, an (n, d) array being one bag and a
:class:`~groupsim.embeddings.SentenceBlock` its bags in order.  One pass of
row norms per block checks every row and gives each bag's square norm, one
sum per bag gives S, and the batch is fitted from its (B, d) resultants and
(B,) counts alone, its directions' polar angles taken in one call.  The
fits of two bags together are read from S_1 + S_2, n_1 + n_2 and the summed
square norms by the same array core, and their penalties read the two bags'
rows in place only for their dots with the fitted direction, so no joint
bag is stacked and no row norm is taken twice.  The module is internal: the
scoring path (:func:`groupsim.comparison.bag_criteria`) reads it, and
checks each bag's shape and width where it enters.

A fit carries its maximised log-likelihood, taken with respect to the
surface measure of the sphere, so it has no chart volume term; the
log-density of other rows at a fit is a test oracle (``tests/helpers.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .embeddings import SentenceBlock
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
    is the sum of a bag's rows, its sufficient statistic with ``n``.
    ``square_norm`` is the sum of its rows' |w|^2 (n up to rounding), which
    the penalty's tangent term reads.  A joint bag's ``resultant``, ``n`` and
    ``square_norm`` are the sums of its parts'.  ``clamped`` marks clamped
    resultant lengths, S = 0 among them, whose ``mu_hat`` is then the first
    axis.  ``theta_hat``, the polar angles of ``mu_hat``, is for reference
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
    square_norm: np.ndarray
    clamped: np.ndarray


# the bag starts of a block of one bag, for np.add.reduceat
_ONE_BAG = np.zeros(1, dtype=np.intp)
_ONE_BAG.flags.writeable = False


def _unit_square_norms(x: np.ndarray) -> np.ndarray:
    """The (n,) square norms of float64 rows ``x``, one pass, checked: every
    row must be a finite unit vector, its norm within 1e-6 of 1.

    ``|sqrt(s) - 1| <= 1e-6`` holds for every row's square norm s exactly
    when it holds for the least and the greatest (sqrt is monotone, and the
    test falls on either side of 1), and a NaN fails it; the worst deviation
    is the larger of those two.
    """
    square = np.einsum("ij,ij->i", x, x)
    if len(square):
        low, high = math.sqrt(np.minimum.reduce(square)), math.sqrt(np.maximum.reduce(square))
        if not (abs(low - 1.0) <= 1e-6 and abs(high - 1.0) <= 1e-6):
            if not np.isfinite(x).all():
                raise ValueError("vectors must be finite; a row holds NaN or inf")
            worst = max(abs(low - 1.0), abs(high - 1.0))
            raise ValueError(f"vectors must be unit-norm within 1e-6 (worst deviation {worst:.2e})")
    return square


def _fit_resultants(resultant: np.ndarray, n: np.ndarray, square_norm: np.ndarray) -> VmfFit:
    """The fits of B bags from their (B, d) resultants S (the sums of their
    unit rows), (B,) row counts n and (B,) square norms, with one
    :func:`vmf_kernels` pass and no row read: a bag with S = 0 takes the
    first coordinate axis as its direction, which no L or P reads, as its
    fit is clamped.  ``theta_hat`` is left None.
    """
    d = resultant.shape[1]
    # one dot product per row, as np.linalg.norm of that row sums it
    rows = resultant[:, np.newaxis]
    resultant_norm = np.sqrt(np.matmul(rows, rows.transpose(0, 2, 1))).reshape(-1)
    with np.errstate(invalid="ignore"):  # 0 / 0 on a fully cancelling bag, replaced below
        mu_hat = resultant / resultant_norm[:, np.newaxis]
    mu_hat[resultant_norm == 0.0] = np.eye(1, d)
    raw_r_bar = resultant_norm / n
    clamped = ~((R_BAR_FLOOR <= raw_r_bar) & (raw_r_bar <= R_BAR_CEIL))
    r_bar = np.minimum(np.maximum(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    kappa_hat = inv_bessel_ratio(d, r_bar)
    a_hat, a_prime, log_c = vmf_kernels(d, kappa_hat)
    return VmfFit(
        mu_hat=mu_hat,
        theta_hat=None,
        kappa_hat=kappa_hat,
        r_bar=r_bar,
        n=n,
        max_loglik=n * (kappa_hat * r_bar - log_c),
        a_hat=a_hat,
        a_prime=a_prime,
        resultant=resultant,
        square_norm=square_norm,
        clamped=clamped,
    )


def fit_vmf(*blocks) -> VmfFit:
    """Fit each bag's mean direction by maximum likelihood and its
    concentration in closed form, the bags of every block as one batch.

    A block is an (n, d) array, one bag, or a ``SentenceBlock``, its bags in
    order, every block as wide as the first (the caller checks).  Each block
    is read as float64 in its turn and checked by one pass of row norms,
    which also gives every bag's square norm: finite unit rows (within
    1e-6), at least two per bag.  A bag's resultant is one sum over its
    rows.  The resultant length is clamped into [1e-7, 1 - 1e-7] so the
    concentration stays finite on degenerate bags (all vectors equal, or
    exactly cancelling); such fits are flagged ``clamped``.
    """
    count = sum(len(block) if isinstance(block, SentenceBlock) else 1 for block in blocks)
    if not count:
        raise ValueError("need at least one bag to fit")
    resultant, square_norm, n = None, np.empty(count), []
    for block in blocks:
        if isinstance(block, SentenceBlock):
            x = np.asarray(block.vectors, dtype=np.float64)
            starts, sizes = block.starts, block.sizes.tolist()
            views = [x[start:start + size] for start, size in zip(starts.tolist(), sizes)]
        else:
            x = np.asarray(block, dtype=np.float64)
            starts, sizes, views = _ONE_BAG, [len(x)], [x]
        square = _unit_square_norms(x)
        if min(sizes, default=2) < 2:
            raise ValueError("need at least two vectors to fit")
        if resultant is None:
            resultant = np.empty((count, x.shape[1]))
        np.add.reduceat(square, starts, out=square_norm[len(n):len(n) + len(sizes)])
        for b, view in enumerate(views, start=len(n)):
            # np.add.reduce, not .sum: on a short bag the method's Python wrapper costs as much
            np.add.reduce(view, 0, out=resultant[b])
        n += sizes
    fit = _fit_resultants(resultant, np.array(n, dtype=np.intp), square_norm)
    return replace(fit, theta_hat=to_spherical(fit.mu_hat))


def _tic_penalty(fit: VmfFit, bags) -> tuple[np.ndarray, np.ndarray]:
    """Gradient/curvature penalties tr(I J^-1) in the tangent space at the
    fits, ``mean((w . mu - A)^2) / A' + kappa mean(|w|^2 - (w . mu)^2) / R_bar``,
    and the mask of the bags where they are defined, as (B,) arrays.

    ``bags[b]`` holds fit b's unit-row blocks, unchecked and read in place as
    float64 one at a time for their dots with the fitted direction; the sum
    of |w|^2 is the fit's ``square_norm``.  An unclamped fit has
    1 - R_bar >= 1e-7, which bounds the cancellation in
    ``sum(|w|^2) - sum((w . mu)^2)`` to about 1e-9 relative.  The penalty is
    NaN on a clamped fit and where A' or kappa R_bar is below 1e-12 (e.g.
    every vector equal to the mean direction).
    """
    ok = ~fit.clamped & (np.minimum(fit.a_prime, fit.kappa_hat * fit.r_bar) >= CURVATURE_FLOOR)
    penalty = np.full(len(ok), np.nan)
    for b in np.flatnonzero(ok).tolist():
        mu, a_hat = fit.mu_hat[b], float(fit.a_hat[b])
        info_kappa, square_dots = 0.0, 0.0
        for x in bags[b]:
            dots = np.asarray(x, dtype=np.float64) @ mu
            offsets = dots - a_hat
            info_kappa += float(np.dot(offsets, offsets))
            square_dots += float(np.dot(dots, dots))
        penalty[b] = (info_kappa / fit.a_prime[b]
                      + fit.kappa_hat[b] * (fit.square_norm[b] - square_dots) / fit.r_bar[b]
                      ) / fit.n[b]
    return penalty, ok
