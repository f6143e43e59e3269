"""Polar hyperspherical angles of unit vectors.

A point on the unit sphere in R^d is parametrised by d-1 angles: the first
d-2 lie in [0, pi] and the last in [0, 2pi).  Component i (1-based) is
``cos(phi_i) * prod_{k<i} sin(phi_k)`` for i < d and ``prod_{k<d} sin(phi_k)``
for i = d.  No likelihood or penalty reads these angles: the vMF penalty is
taken chart-free in the tangent space, and :func:`to_spherical` only fills
the informational ``VmfFit.theta_hat``, one call on the (B, d) directions of
each batch of single-bag fits.
"""

from __future__ import annotations

import numpy as np


def to_spherical(rows: np.ndarray) -> np.ndarray:
    """The (B, d - 1) polar angles of each unit row of a (B, d) array.

    When all components from some index on are zero the remaining angles are
    set to 0 (the convention at those measure-zero poles).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("input must be (B, d) rows of dimension >= 2")
    # one dot product per row, np.linalg.norm's own sum, without its dispatch
    norm = np.sqrt(np.matmul(rows[:, np.newaxis], rows[:, :, np.newaxis]))[:, 0]
    off = np.abs(norm - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"input must be unit-norm within 1e-6, got norm {float(norm[off][0])!r}")
    rows = rows / norm
    d = rows.shape[1]
    # tail[:, i] = sqrt(sum_{j >= i} v_j^2), computed back to front
    tail = np.sqrt((rows * rows)[:, ::-1].cumsum(axis=1)[:, ::-1])
    phi = np.empty((len(rows), d - 1))
    phi[:, : d - 2] = np.arctan2(tail[:, 1 : d - 1], rows[:, : d - 2])
    last = np.arctan2(rows[:, -1], rows[:, -2])
    phi[:, -1] = np.where(last >= 0.0, last, last + 2.0 * np.pi)
    return phi
