"""Diagonal and spherical Gaussian fits from mergeable per-bag moments.

A bag enters every fit through its moments: the count n, the mean and the
centred power sums M_k = sum_i (x_i - mean)^k, k = 2, 3, 4, per dimension
(:class:`GaussianMoments`, a batch of bags; one bag is a batch of one).
Only the diagonal gradient penalty reads M4 (as the kurtosis; M3 serves to
merge M4), so moments taken to ``order=2`` stop after M2.  The
moments of two bags pooled follow from theirs without the rows: Chan, Golub
& LeVeque (1979) merge M2, Pébay (2008, SAND2008-6212) M3 and M4
(:func:`merge_moments`).  Fits, log-likelihoods and the kurtosis penalty are
then read off the moments of a whole batch at once (:func:`moment_fit`).  The
tests pin merged moments to those of the stacked rows, and every fit and
pair score to the row-based fit of the stacked bag, at 1e-12 relative.

All moments are biased (1/n).  Variances are floored at 1e-8 so repeated-word
bags keep finite log-likelihoods; floored dimensions are counted on the fit.
The diagonal-model penalty reduces to ``d/2 + sum_i kurt_i / 2`` where
``kurt_i`` is the biased sample kurtosis per dimension; for standard normal
data it approaches the parameter count 2d as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import as_matrix, bag_rows
from .special import LOG_2PI

VAR_FLOOR = 1e-8

DIAGONAL = "diagonal"
SPHERICAL = "spherical"


@dataclass(frozen=True)
class GaussianMoments:
    """Counts and centred power sums of a batch of B bags in d dimensions.

    ``n`` has shape (B,); ``mean``, ``m2``, ``m3`` and ``m4`` have shape
    (B, d), where ``mk[b]`` is ``sum_i (x_i - mean[b])^k`` over bag b's rows.
    ``m3`` and ``m4`` are None in moments taken to order 2.
    """

    n: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    m3: np.ndarray | None = None
    m4: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n.size

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    def take(self, index) -> GaussianMoments:
        """The bags selected by ``index`` (a slice or an index array)."""
        if self.m4 is None:
            return GaussianMoments(self.n[index], self.mean[index], self.m2[index])
        return GaussianMoments(self.n[index], self.mean[index], self.m2[index],
                               self.m3[index], self.m4[index])


def moments(*bags, order: int = 4) -> GaussianMoments:
    """Moments of each bag (a SentenceSample or an (n, d) array), as one batch.

    ``order=4`` (the default) takes M2, M3 and M4; ``order=2`` stops after
    M2 and leaves ``m3`` and ``m4`` None, with n, the mean and M2 bit for
    bit those of the full moments.  Corrected two pass (Chan, Golub &
    LeVeque 1983): each bag's power sums are taken about its computed mean,
    then shifted by c, the mean of the deviations, which removes the
    first-order effect of the mean's rounding error; without it M3 loses
    about |mean| / spread ulps (1e-12 relative at a ratio of 1e3).  The
    shift runs once over the whole batch.  Each bag is read as float64 in
    its turn, so float32 bags are never copied whole.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order!r}")
    count, d = len(bags), bag_rows(bags[0]).shape[1]
    n = np.empty(count)
    mean, dev_sum, m2 = (np.empty((count, d)) for _ in range(3))
    m3, m4 = (np.empty((count, d)) for _ in range(2)) if order == 4 else (None, None)
    for b, bag in enumerate(bags):
        x = as_matrix(bag)
        if x.shape[1] != d:
            raise ValueError(f"dimension mismatch: {d} vs {x.shape[1]}")
        n[b] = len(x)
        # np.add.reduce, not .sum: on a short bag the method's Python wrapper costs as much
        dev = x - np.divide(np.add.reduce(x, 0), len(x), out=mean[b])
        np.add.reduce(dev, 0, out=dev_sum[b])
        sq = dev * dev
        np.add.reduce(sq, 0, out=m2[b])
        if m4 is None:
            continue
        dev *= sq
        np.add.reduce(dev, 0, out=m3[b])
        sq *= sq
        np.add.reduce(sq, 0, out=m4[b])
    nc = n[:, None]
    c = dev_sum / nc
    c2 = c * c
    if m4 is None:
        return GaussianMoments(n, mean + c, m2 - nc * c2)
    return GaussianMoments(n, mean + c, m2 - nc * c2, m3 - 3.0 * c * m2 + 2.0 * nc * c2 * c,
                           m4 - 4.0 * c * m3 + 6.0 * c2 * m2 - 3.0 * nc * c2 * c2)


def merge_moments(a: GaussianMoments, b: GaussianMoments) -> GaussianMoments:
    """Moments of bag a[i] and bag b[i] pooled, for every i.

    Chan, Golub & LeVeque (1979) for M2 and Pébay (2008) for M3 and M4, with
    delta = mean_b - mean_a; powers of delta are written as products.  The
    pooled moments stop after M2 when either side's do.
    """
    na, nb = a.n[:, None], b.n[:, None]
    n = na + nb
    delta = b.mean - a.mean
    dn = delta / n
    t = delta * dn * (na * nb)  # delta^2 na nb / n
    count, mean, m2 = a.n + b.n, a.mean + dn * nb, a.m2 + b.m2 + t
    if a.m4 is None or b.m4 is None:
        return GaussianMoments(count, mean, m2)
    dn2 = dn * dn
    return GaussianMoments(
        n=count,
        mean=mean,
        m2=m2,
        m3=a.m3 + b.m3 + t * dn * (na - nb) + 3.0 * dn * (na * b.m2 - nb * a.m2),
        m4=(a.m4 + b.m4 + t * dn2 * (na * na - na * nb + nb * nb)
            + 6.0 * dn2 * (na * na * b.m2 + nb * nb * a.m2)
            + 4.0 * dn * (na * b.m3 - nb * a.m3)),
    )


def moment_fit(mom: GaussianMoments, kind: str):
    """Maximum-likelihood fits of a batch: (max loglik, var, kurt, floored dims).

    The log-likelihoods and floored-dimension counts have shape (B,).  A
    diagonal fit's variances and kurtoses have shape (B, d); a spherical
    fit pools both over dimensions into shape (B, 1).  Moments taken to
    order 2 give ``kurt = None``.
    """
    if kind not in (DIAGONAL, SPHERICAL):
        raise ValueError(f"kind must be '{DIAGONAL}' or '{SPHERICAL}', got {kind!r}")
    n = mom.n
    if np.any(n < 2):
        raise ValueError("need at least two vectors to fit")
    d = mom.dim
    if kind == DIAGONAL:
        scale = n[:, None]
        raw_var = mom.m2 / scale
        var = np.maximum(raw_var, VAR_FLOOR)
        floored = np.count_nonzero(raw_var < VAR_FLOOR, axis=1)
        log_det = np.log(var).sum(axis=1)
    else:
        scale = (n * d)[:, None]
        raw_var = mom.m2.sum(axis=1, keepdims=True) / scale
        var = np.maximum(raw_var, VAR_FLOOR)
        floored = np.where(raw_var[:, 0] < VAR_FLOOR, d, 0)
        log_det = d * np.log(var[:, 0])
    kurt = None
    if mom.m4 is not None:
        fourth = mom.m4 if kind == DIAGONAL else mom.m4.sum(axis=1, keepdims=True)
        kurt = fourth / scale / (var * var)
    max_loglik = -0.5 * n * log_det - 0.5 * n * d * (LOG_2PI + 1.0)
    return max_loglik, var, kurt, floored


def radial_sq_sum(x: np.ndarray, mu: np.ndarray) -> float:
    """``sum_i (|x_i - mu|^2)^2``, the spherical penalty's radial term, over rows."""
    dev = x - mu
    q = np.einsum("ij,ij->i", dev, dev)
    return float(q @ q)


def tic_penalties(kind: str, d: int, var: np.ndarray, kurt: np.ndarray,
                  radial_sq_mean=None) -> np.ndarray:
    """Gradient/curvature penalties tr(I J^-1) of a batch of fits in d dimensions.

    ``var`` and ``kurt`` are as :func:`moment_fit` returns them.  Diagonal:
    ``d/2 + sum_i kurt_i / 2`` (the observed information in mean/precision
    coordinates is diagonal at the maximum, and the score outer products
    reduce to per-dimension kurtosis), so its moments must reach order 4.
    Spherical, marked experimental (no literature-settled closed form): the
    pooled form ``d + Var(q) / (2 d var^2)`` with ``q_i = |x_i - mu|^2``,
    from each bag's ``radial_sq_mean``, the mean of ``q_i^2``; it approaches
    the parameter count d+1 for spherical data.
    """
    if kind == DIAGONAL:
        if kurt is None:
            raise ValueError("the diagonal tic penalty reads the kurtosis: "
                             "take the moments to order 4")
        return 0.5 * d + 0.5 * kurt.sum(axis=1)
    if radial_sq_mean is None:
        raise ValueError("the spherical penalty needs each bag's radial_sq_mean")
    pool = var[:, 0]
    mean_q = d * pool
    return d + (radial_sq_mean - mean_q * mean_q) / (2.0 * d * pool * pool)
