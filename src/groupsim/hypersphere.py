"""Polar hyperspherical angles of a unit vector.

A point on the unit sphere in R^d is parametrised by d-1 angles: the first
d-2 lie in [0, pi] and the last in [0, 2pi).  Component i (1-based) is
``cos(phi_i) * prod_{k<i} sin(phi_k)`` for i < d and ``prod_{k<d} sin(phi_k)``
for i = d.  No likelihood or penalty reads these angles: the vMF penalty is
taken chart-free in the tangent space, and :func:`to_spherical` only fills
the informational ``VmfFit.theta_hat``.
"""

from __future__ import annotations

import numpy as np


def to_spherical(w: np.ndarray) -> np.ndarray:
    """Polar angles of a unit vector.

    When all components from some index on are zero the remaining angles are
    set to 0 (the convention at those measure-zero poles).
    """
    v = np.asarray(w, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("input must be a 1-D vector of dimension >= 2")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"input must be unit-norm within 1e-6, got norm {norm!r}")
    v = v / norm
    d = v.size
    # tail[i] = sqrt(sum_{j >= i} v_j^2), computed back to front
    tail = np.sqrt(np.cumsum(v[::-1] ** 2)[::-1])
    phi = np.empty(d - 1)
    if d > 2:
        phi[: d - 2] = np.arctan2(tail[1 : d - 1], v[: d - 2])
    last = np.arctan2(v[-1], v[-2])
    phi[-1] = last if last >= 0.0 else last + 2.0 * np.pi
    return phi
