"""Independent oracles and samplers used across the test suite.

Everything here is deliberately written from first principles, separate from
the library code paths it checks: high-precision Bessel evaluation through
mpmath, the vMF kernel that telescopes every log-normaliser to order 0, the
scalar vMF kernel of one kappa, element 0 of a one-element call of the
array kernels, per-bag vMF fits and penalties, the
Newton-polished maximum-likelihood vMF concentration, dense
finite-difference information matrices, the polar-chart vMF penalty,
analytic Gaussian score/curvature matrices, the closed-form vMF and
diagonal-Gaussian "tic" pair scores, the log-density of a bag at a fit,
brute-force quadrature for marginal likelihoods, plus the dense
Normal-Wishart evidence, the multivariate log-gamma as a full sum of its
terms, the column-major low-rank evidence with full multivariate gammas, the
evidence of a stack from two float64 copies of its rows, the line-by-line embedding loader, a block of given bags, the tokenise-then-
gather block of a dataset's pairs (its bag order), Spearman rho from
scipy's average ranks, the per-pair evaluation path: sentence
by sentence lookups, row-based Gaussian fits, and one composition per pair
on a stacked joint bag, for every model, the batch composition from three
per-bag criterion calls, and corpus model selection with one fit per
candidate on full moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# high-precision Bessel references
# ---------------------------------------------------------------------------

def bessel_ratio_mp(d: int, kappa: float) -> float:
    return float(mp.besseli(d / 2.0, kappa) / mp.besseli(d / 2.0 - 1.0, kappa))


def bessel_ratio_slope_mp(d: int, kappa: float) -> float:
    """dA_d/dkappa = 1 - A^2 - (d - 1) A / kappa, in 50-digit arithmetic."""
    k = mp.mpf(kappa)
    a = mp.besseli(mp.mpf(d) / 2, k) / mp.besseli(mp.mpf(d) / 2 - 1, k)
    return float(1 - a * a - (d - 1) * a / k)


def log_vmf_normalizer_mp(d: int, kappa: float) -> float:
    v = mp.mpf(d) / 2 - 1
    return float(
        (mp.mpf(d) / 2) * mp.log(2 * mp.pi)
        + mp.log(mp.besseli(v, mp.mpf(kappa)))
        - v * mp.log(mp.mpf(kappa))
    )


def _ratio_chain_scalar(x: float, frac: float, idx: int) -> tuple[float, float]:
    """The backward ratio pass of one kappa: ``(r_idx, r_{idx+1})``."""
    top = frac + idx + 2
    start = int(math.ceil(max(top, math.sqrt(top * top + 40.0 * x)) - frac)) + 12
    nu = frac + start
    two_over_x = 2.0 / x
    r = x / (nu - 0.5 + math.hypot(nu + 0.5, x))
    for i in range(start - 1, idx + 1, -1):
        r = 1.0 / ((frac + i) * two_over_x + r)
    r_next = r = 1.0 / ((frac + idx + 1) * two_over_x + r)
    return 1.0 / ((frac + idx) * two_over_x + r), r_next


def vmf_kernels_telescoped(d: int, kappa: float) -> tuple[float, float, float]:
    """The vMF kernel that telescopes the ratio chain to order 0 or 1/2 at every d.

    ``(A_d, A_d', log C_d)`` as ``special.vmf_kernels`` computed them before
    the Debye log-normaliser: one backward ratio chain whose product below
    order d/2 is folded onto ``log I_0`` or ``log I_{1/2}``, or the Hankel
    sums at orders v, v + 1 and v + 2.  Its ratios are the kernel's, step for
    step.
    """
    from groupsim.special import LOG_2PI, _hankel_sum, _log_i0, _log_i_half, _use_asymptotic

    v = d / 2.0 - 1.0
    if _use_asymptotic(kappa, v + 3.0):
        s0, s1, s2 = (_hankel_sum(v + j, kappa) for j in range(3))
        a, r_next = s1 / s0, s2 / s1
        log_i = kappa - 0.5 * math.log(2.0 * math.pi * kappa) + math.log(s0)
    else:
        frac = 0.0 if d % 2 == 0 else 0.5
        idx = int(round(v + 1.0 - frac))
        a, r_next = _ratio_chain_scalar(kappa, frac, idx)
        two_over_x = 2.0 / kappa
        r = a
        log_i = _log_i0(kappa) if frac == 0.0 else _log_i_half(kappa)
        prod = 1.0
        for i in range(idx - 1, 0, -1):
            r = 1.0 / ((frac + i) * two_over_x + r)
            prod *= r
            if prod < 1e-150:
                log_i += math.log(prod)
                prod = 1.0
        log_i += math.log(prod)
    slope = 0.5 * ((1.0 + a * r_next) - a * ((a + 2.0 * v / kappa) + a))
    return a, slope, 0.5 * d * LOG_2PI + log_i - v * math.log(kappa)


def _debye_log_c_scalar(d: int, kappa: float) -> float:
    """log C_d(kappa) of one kappa from the seven-term Debye sum (d >= 98)."""
    from groupsim.special import _DEBYE_U, LOG_2PI

    v = 0.5 * d - 1.0
    s = math.hypot(1.0, kappa / v)
    q = 1.0 / (s * s)
    t = 1.0 / (s * v)
    tail = 0.0
    for coeffs in reversed(_DEBYE_U[1:]):
        u = 0.0
        for c in reversed(coeffs):
            u = u * q + c
        tail = t * (u + tail)
    return (0.5 * d * LOG_2PI + v * (s - math.log(v) - math.log1p(s))
            - 0.5 * math.log(2.0 * math.pi * v * s) + math.log1p(tail))


def vmf_kernels_scalar(d: int, kappa: float) -> tuple[float, float, float]:
    """``(A_d, A_d', log C_d)`` of one kappa, in Python floats.

    ``special.vmf_kernels`` as it was before its array pass: each kappa has
    its own backward ratio chain (or Hankel sums), and for d >= 98 its own
    Debye sum in ``math`` functions; below d = 98 the chain telescopes
    through ``special._telescoped_log_i``.  The array kernel must give A_d
    and A_d' bit for bit, and log C_d bit for bit below d = 98.
    """
    from groupsim.special import (
        LOG_2PI,
        _check_dim,
        _check_kappa,
        _hankel_sum,
        _telescoped_log_i,
        _use_asymptotic,
    )

    _check_dim(d)
    _check_kappa(kappa, positive=True)
    v = d / 2.0 - 1.0
    debye = v >= 48.0
    if _use_asymptotic(kappa, v + 3.0):
        s0, s1, s2 = (_hankel_sum(v + j, kappa) for j in range(3))
        a, r_next = s1 / s0, s2 / s1
        log_i = kappa - 0.5 * math.log(2.0 * math.pi * kappa) + math.log(s0)
    else:
        frac = 0.0 if d % 2 == 0 else 0.5
        idx = int(round(v + 1.0 - frac))
        a, r_next = _ratio_chain_scalar(kappa, frac, idx)
        if not debye:
            log_i = _telescoped_log_i(kappa, frac, idx, a)
    slope = 0.5 * ((1.0 + a * r_next) - a * ((a + 2.0 * v / kappa) + a))
    if not math.isfinite(slope):
        raise ValueError(f"curvature term not finite at d={d}, kappa={kappa!r}")
    if debye:
        return a, slope, _debye_log_c_scalar(d, kappa)
    return a, slope, 0.5 * d * LOG_2PI + log_i - v * math.log(kappa)


def vmf_kernels_at(d: int, kappa: float) -> tuple[float, float, float]:
    """``special.vmf_kernels`` at one kappa, as floats: element 0 of a one-element call."""
    from groupsim.special import vmf_kernels

    return tuple(float(column[0]) for column in vmf_kernels(d, np.array([kappa])))


def inv_bessel_ratio_at(d: int, r_bar: float) -> float:
    """``special.inv_bessel_ratio`` at one r_bar, as a float: element 0 of a one-element call."""
    from groupsim.special import inv_bessel_ratio

    return float(inv_bessel_ratio(d, np.array([r_bar]))[0])


# ---------------------------------------------------------------------------
# per-bag vMF fits and penalties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VmfBagFit:
    """One bag's vMF fit, with the fields of a row of ``vmf.VmfFit`` as scalars."""

    mu_hat: np.ndarray
    theta_hat: np.ndarray | None
    kappa_hat: float
    r_bar: float
    n: int
    max_loglik: float
    a_hat: float
    a_prime: float
    resultant: np.ndarray
    square_norm: float
    clamped: bool


def as_unit_matrix(data) -> np.ndarray:
    """``data`` as a 2-D float array whose rows are finite unit vectors (within
    1e-6): the per-bag check, each row's deviation taken on its own, that
    the vMF fit's one pass of row norms per block must match."""
    from groupsim.embeddings import bag_rows

    x = np.asarray(bag_rows(data), dtype=np.float64)
    deviation = np.abs(np.sqrt(np.einsum("ij,ij->i", x, x)) - 1.0)
    if not (deviation <= 1e-6).all():  # a NaN deviation fails this comparison too
        if not np.isfinite(x).all():
            raise ValueError("vectors must be finite; a row holds NaN or inf")
        worst = float(np.max(deviation))
        raise ValueError(f"vectors must be unit-norm within 1e-6 (worst deviation {worst:.2e})")
    return x


def square_norm_per_bag(x: np.ndarray) -> float:
    """The sum of |w|^2 over one block of float64 rows, in the vMF fit's
    order: each row's square norm, then their sum from row 0."""
    return float(np.add.reduceat(np.einsum("ij,ij->i", x, x), [0])[0])


def fit_resultant_per_bag(resultant: np.ndarray, n: int, square_norm: float,
                          angles: bool = False) -> VmfBagFit:
    """The fit of one bag from its resultant S, its row count n and its
    square norm, with one scalar kernel call; the direction is the first
    coordinate axis when S is exactly 0."""
    from groupsim.hypersphere import to_spherical
    from groupsim.vmf import R_BAR_CEIL, R_BAR_FLOOR

    d = resultant.size
    resultant_norm = math.sqrt(float(resultant @ resultant))
    raw_r_bar = resultant_norm / n
    clamped = not (R_BAR_FLOOR <= raw_r_bar <= R_BAR_CEIL)
    r_bar = min(max(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    if resultant_norm > 0.0:
        mu_hat = resultant / resultant_norm
    else:
        mu_hat = np.zeros(d)
        mu_hat[0] = 1.0
    kappa_hat = inv_bessel_ratio_at(d, r_bar)
    a_hat, a_prime, log_c = vmf_kernels_scalar(d, kappa_hat)
    theta_hat = to_spherical(mu_hat[np.newaxis])[0] if angles else None
    return VmfBagFit(mu_hat=mu_hat, theta_hat=theta_hat,
                     kappa_hat=kappa_hat, r_bar=r_bar, n=n,
                     max_loglik=n * (kappa_hat * r_bar - log_c), a_hat=a_hat,
                     a_prime=a_prime, resultant=resultant, square_norm=square_norm,
                     clamped=clamped)


def fit_vmf_per_bag(sample) -> VmfBagFit:
    """The fit of one bag of unit rows, checked and summed on its own."""
    x = as_unit_matrix(sample)
    if len(x) < 2:
        raise ValueError("need at least two vectors to fit")
    return fit_resultant_per_bag(np.add.reduce(x, 0), len(x), square_norm_per_bag(x),
                                 angles=True)


def tic_penalty_per_bag(fit: VmfBagFit, blocks) -> float:
    """The tangent-space "tic" penalty of one fit over its float64 unit-row
    blocks, each block's sum of |w|^2 taken by :func:`square_norm_per_bag`;
    raises ``DegenerateCurvatureError`` on a clamped fit or a curvature below
    ``vmf.CURVATURE_FLOOR``."""
    from groupsim.errors import DegenerateCurvatureError
    from groupsim.vmf import CURVATURE_FLOOR

    if fit.clamped or min(fit.a_prime, fit.kappa_hat * fit.r_bar) < CURVATURE_FLOOR:
        raise DegenerateCurvatureError("vMF curvature degenerate; penalty undefined on this bag")
    n, info_kappa, square_norms, square_dots = 0, 0.0, 0.0, 0.0
    for x in blocks:
        dots = x @ fit.mu_hat
        offsets = dots - fit.a_hat
        n += len(x)
        info_kappa += float(np.dot(offsets, offsets))
        square_norms += square_norm_per_bag(x)
        square_dots += float(np.dot(dots, dots))
    return (info_kappa / fit.a_prime
            + fit.kappa_hat * (square_norms - square_dots) / fit.r_bar) / n


def vmf_criteria_per_bag(ic: str, bags, fits, on_degenerate: str = "aic"):
    """(L, P, fallback, floored dims, clamped) of vMF bags as (B,) arrays,
    one per-bag fit and penalty at a time: ``comparison.bag_criteria`` for
    model "vmf", fit by fit."""
    from groupsim.comparison import count_penalty
    from groupsim.errors import DegenerateCurvatureError

    count, d = len(fits), fits[0].mu_hat.size
    fallback = np.zeros(count, bool)
    if ic != "tic":
        penalty = count_penalty("vmf", ic, d, [fit.n for fit in fits])
    else:
        penalty = np.empty(count)
        for b, (fit, bag) in enumerate(zip(fits, bags)):
            try:
                penalty[b] = tic_penalty_per_bag(
                    fit, tuple(np.asarray(x, dtype=np.float64) for x in bag))
            except DegenerateCurvatureError:
                if on_degenerate != "aic":
                    raise
                penalty[b], fallback[b] = d, True
    return (np.array([fit.max_loglik for fit in fits]), penalty, fallback,
            np.zeros(count, np.intp), np.array([fit.clamped for fit in fits]))


# ---------------------------------------------------------------------------
# maximum-likelihood vMF concentration
# ---------------------------------------------------------------------------

def inv_bessel_ratio_newton(d: int, r_bar: float) -> float:
    """Root of A_d(kappa) = r_bar: Newton steps from the closed-form estimate.

    Runs until |A_d(kappa) - r_bar| < 1e-8 (at most 20 steps).  A_d and its
    slope come from ``vmf_kernels``, which test_special pins to mpmath.
    """
    kappa = inv_bessel_ratio_at(d, r_bar)
    for _ in range(20):
        a, slope, _ = vmf_kernels_at(d, kappa)
        if abs(a - r_bar) < 1e-8 or slope <= 0.0:
            break
        nxt = kappa - (a - r_bar) / slope
        kappa = nxt if nxt > 0.0 else kappa / 2.0
    return kappa


# ---------------------------------------------------------------------------
# independent spherical-coordinate maps (loop implementations)
# ---------------------------------------------------------------------------

def sph_to_vec(theta: np.ndarray) -> np.ndarray:
    d = len(theta) + 1
    w = np.empty(d)
    running = 1.0
    for i in range(d - 1):
        w[i] = math.cos(theta[i]) * running
        running *= math.sin(theta[i])
    w[d - 1] = running
    return w


def vec_to_sph(w: np.ndarray) -> np.ndarray:
    d = len(w)
    theta = np.empty(d - 1)
    for i in range(d - 2):
        tail = math.sqrt(float(np.sum(w[i + 1 :] ** 2)))
        theta[i] = math.atan2(tail, w[i])
    last = math.atan2(w[-1], w[-2])
    theta[d - 2] = last if last >= 0 else last + 2 * math.pi
    return theta


# ---------------------------------------------------------------------------
# dense finite-difference penalty for the sphere model
# ---------------------------------------------------------------------------

def vmf_dense_tic_fd(x: np.ndarray, mu_hat: np.ndarray, kappa_hat: float,
                     step: float = 1e-5) -> float:
    """tr(I J^-1) with full matrices from central differences.

    Parameters are ordered (kappa, theta_1, ..., theta_{d-1}).  The
    normalizer enters only the kappa coordinate; its first and second
    differences are taken in 50-digit arithmetic so the float64 subtraction
    noise cannot pollute the curvature.
    """
    n, d = x.shape
    theta = vec_to_sph(mu_hat)
    p = d  # parameter count: 1 concentration + d-1 angles

    lz = {}
    for k in (kappa_hat - step, kappa_hat, kappa_hat + step):
        v = mp.mpf(d) / 2 - 1
        lz[k] = (mp.mpf(d) / 2) * mp.log(2 * mp.pi) + mp.log(mp.besseli(v, mp.mpf(k))) - v * mp.log(mp.mpf(k))
    dlz = float((lz[kappa_hat + step] - lz[kappa_hat - step]) / (2 * step))
    d2lz = float((lz[kappa_hat + step] - 2 * lz[kappa_hat] + lz[kappa_hat - step]) / step**2)

    def dot_mu(theta_vec: np.ndarray) -> np.ndarray:
        return x @ sph_to_vec(theta_vec)

    base = dot_mu(theta)

    # first differences of w . mu(theta) per angle
    ddot = np.empty((n, d - 1))
    d2dot = np.empty((n, d - 1))
    for a in range(d - 1):
        plus = theta.copy(); plus[a] += step
        minus = theta.copy(); minus[a] -= step
        dp, dm = dot_mu(plus), dot_mu(minus)
        ddot[:, a] = (dp - dm) / (2 * step)
        d2dot[:, a] = (dp - 2 * base + dm) / step**2

    grads = np.empty((n, p))
    grads[:, 0] = base - dlz
    grads[:, 1:] = kappa_hat * ddot

    hessians = np.zeros((n, p, p))
    hessians[:, 0, 0] = -d2lz
    for a in range(d - 1):
        hessians[:, 0, 1 + a] = ddot[:, a]  # d/dkappa of kappa * ddot is ddot
        hessians[:, 1 + a, 0] = ddot[:, a]
        hessians[:, 1 + a, 1 + a] = kappa_hat * d2dot[:, a]
    for a in range(d - 1):
        for b in range(a + 1, d - 1):
            pp = theta.copy(); pp[a] += step; pp[b] += step
            pm = theta.copy(); pm[a] += step; pm[b] -= step
            mp_ = theta.copy(); mp_[a] -= step; mp_[b] += step
            mm = theta.copy(); mm[a] -= step; mm[b] -= step
            mixed = (dot_mu(pp) - dot_mu(pm) - dot_mu(mp_) + dot_mu(mm)) / (4 * step**2)
            hessians[:, 1 + a, 1 + b] = kappa_hat * mixed
            hessians[:, 1 + b, 1 + a] = kappa_hat * mixed

    info = np.einsum("ni,nj->ij", grads, grads) / n
    curv = -hessians.mean(axis=0)
    return float(np.trace(info @ np.linalg.inv(curv)))


# ---------------------------------------------------------------------------
# polar-chart penalty for the sphere model
# ---------------------------------------------------------------------------

def _reflect_to_diagonal(x: np.ndarray, mu_hat: np.ndarray):
    """The bag and mean direction under the Householder reflection that sends
    mu_hat to the diagonal direction (1, ..., 1) / sqrt(d).

    The diagonal's polar angles lie at least atan(1 / sqrt(d - 1)) from every
    multiple of pi/2, so the chart's cot and tan stay finite there; the
    penalty is invariant under orthogonal maps of the bag and its fit.
    """
    d = mu_hat.size
    v = mu_hat - np.full(d, 1.0 / math.sqrt(d))
    vv = float(v @ v)
    if vv == 0.0:
        return x, mu_hat
    return x - np.outer(x @ v, (2.0 / vv) * v), mu_hat - (2.0 * float(mu_hat @ v) / vv) * v


def vmf_tic_penalty_polar(x: np.ndarray, mu_hat: np.ndarray, kappa_hat: float) -> float:
    """tr(I J^-1) in the polar parametrisation (kappa, theta_1..theta_{d-1}).

    The bag is first reflected so that the mean direction's polar angles are
    far from the chart's poles (:func:`_reflect_to_diagonal`).  One O(nd)
    suffix-sum pass gives every per-observation score; the curvature is
    diagonal at the maximum (mixed second derivatives vanish there), so the
    trace splits into d scalar ratios.  A_d and its slope come from mpmath.
    Raises ``ArithmeticError`` when a curvature diagonal entry falls below
    1e-12.
    """
    n, d = x.shape
    kappa = kappa_hat
    x, mu_hat = _reflect_to_diagonal(x, mu_hat)
    theta = vec_to_sph(mu_hat)
    # Re-derive the direction from the angles so the suffix sums and the
    # cot/tan factors describe the same point on the sphere.
    mu = sph_to_vec(theta)

    prods = x * mu  # (n, d)
    suffix = np.cumsum(prods[:, ::-1], axis=1)[:, ::-1]  # suffix[i, k] = sum_{j>=k} w_ij mu_j

    a = bessel_ratio_mp(d, kappa)
    grad_kappa = suffix[:, 0] - a
    info_kappa = float(np.mean(grad_kappa**2))
    curv_kappa = bessel_ratio_slope_mp(d, kappa)

    cot = np.cos(theta) / np.sin(theta)
    tan = np.sin(theta) / np.cos(theta)
    grad_theta = kappa * (cot * suffix[:, 1:] - tan * prods[:, :-1])
    info_theta = np.mean(grad_theta**2, axis=0)
    curv_theta = kappa * np.mean(suffix[:, :-1], axis=0)

    curvatures = np.concatenate(([curv_kappa], curv_theta))
    if np.any(curvatures < 1e-12):
        raise ArithmeticError("curvature diagonal below 1e-12; penalty undefined on this bag")
    return float(info_kappa / curv_kappa + np.sum(info_theta / curv_theta))


# ---------------------------------------------------------------------------
# exact dense penalty for the diagonal Gaussian (analytic scores)
# ---------------------------------------------------------------------------

def gaussian_dense_tic(x: np.ndarray) -> float:
    """tr(I J^-1) with full matrices in (mean, precision) coordinates."""
    n, d = x.shape
    mu = x.mean(axis=0)
    dev = x - mu
    var = (dev**2).mean(axis=0)

    grads = np.empty((n, 2 * d))
    grads[:, :d] = dev / var  # lambda^2 * (x - mu)
    grads[:, d:] = 0.5 * (var - dev**2)

    curv = np.zeros((2 * d, 2 * d))
    curv[np.arange(d), np.arange(d)] = 1.0 / var
    curv[np.arange(d, 2 * d), np.arange(d, 2 * d)] = 0.5 * var**2
    mean_dev = dev.mean(axis=0)  # ~0 up to roundoff; keep it honest
    curv[np.arange(d), np.arange(d, 2 * d)] = -mean_dev
    curv[np.arange(d, 2 * d), np.arange(d)] = -mean_dev

    info = grads.T @ grads / n
    return float(np.trace(info @ np.linalg.inv(curv)))


def spherical_dense_tic(x: np.ndarray) -> float:
    """Same construction for the pooled-variance model, (mu_1..mu_d, lambda^2)."""
    n, d = x.shape
    mu = x.mean(axis=0)
    dev = x - mu
    pool = float((dev**2).mean())
    lam2 = 1.0 / pool
    q = (dev**2).sum(axis=1)

    grads = np.empty((n, d + 1))
    grads[:, :d] = lam2 * dev
    grads[:, d] = 0.5 * d * pool - 0.5 * q

    curv = np.zeros((d + 1, d + 1))
    curv[np.arange(d), np.arange(d)] = lam2
    curv[d, d] = 0.5 * d * pool**2
    mean_dev = dev.mean(axis=0)
    curv[:d, d] = -mean_dev
    curv[d, :d] = -mean_dev

    info = grads.T @ grads / n
    return float(np.trace(info @ np.linalg.inv(curv)))


# ---------------------------------------------------------------------------
# closed-form "tic" pair scores (alpha = 1) and log-densities at a fit
# ---------------------------------------------------------------------------

def vmf_closed_tic(x1: np.ndarray, x2: np.ndarray) -> float:
    """Closed-form vMF score of two bags of unit rows with the gradient penalty.

    Written out from the resultants, without the fitting code: for m and l
    unit rows with resultants S_1, S_2 the joint resultant is S_1 + S_2, and
    each fit contributes ``n (kappa R_bar - log C_d(kappa))`` with
    R_bar = |S| / n (clamped as in ``fit_vmf``) and A_d(kappa) = R_bar solved
    by ``inv_bessel_ratio``.  Each penalty is the tangent-space trace
    ``mean((w . mu - A_d)^2) / A_d' + kappa (mean |w|^2 - mean (w . mu)^2) / R_bar``
    with mu = S / |S|.  The score is ``L_joint - L_1 - L_2 - P_joint + P_1 + P_2``.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    (ll_j, p_j), (ll_1, p_1), (ll_2, p_2) = (
        _vmf_closed_terms(parts) for parts in ((x1, x2), (x1,), (x2,)))
    return ll_j - ll_1 - ll_2 - p_j + p_1 + p_2


def _vmf_closed_terms(parts) -> tuple[float, float]:
    """(max loglik, tangent-space penalty) of one vMF fit to the stacked parts."""
    from groupsim.errors import DegenerateCurvatureError
    from groupsim.vmf import CURVATURE_FLOOR, R_BAR_CEIL, R_BAR_FLOOR

    n = sum(x.shape[0] for x in parts)
    d = parts[0].shape[1]
    resultant = sum(x.sum(axis=0) for x in parts)
    length = float(np.linalg.norm(resultant))
    raw_r_bar = length / n
    r_bar = min(max(raw_r_bar, R_BAR_FLOOR), R_BAR_CEIL)
    kappa = inv_bessel_ratio_at(d, r_bar)
    a, a_prime, log_c = vmf_kernels_at(d, kappa)
    loglik = n * (kappa * r_bar - log_c)
    degenerate = not (R_BAR_FLOOR <= raw_r_bar <= R_BAR_CEIL)
    if degenerate or a_prime < CURVATURE_FLOOR or kappa * r_bar < CURVATURE_FLOOR:
        raise DegenerateCurvatureError("vMF curvature degenerate; penalty undefined on this bag")
    mu = resultant / length
    dots = np.concatenate([x @ mu for x in parts])
    mean_sq_norm = sum(float(np.einsum("ij,ij->", x, x)) for x in parts) / n
    info_kappa = float(np.mean((dots - a) ** 2))
    info_tangent = kappa * (mean_sq_norm - float(np.mean(dots**2))) / r_bar
    return loglik, info_kappa / a_prime + info_tangent


def diag_closed_tic(x1: np.ndarray, x2: np.ndarray) -> float:
    """Closed-form diagonal-Gaussian score of two bags with the kurtosis penalty.

    From the rows, not from mergeable moments: with the biased per-dimension
    variance s^2 and kurtosis k of each bag (m and l rows) and of the stacked
    pair, the log-likelihoods give ``sum(-(m+l) log s_j^2 + m log s_1^2 + l log s_2^2) / 2``
    (their constants cancel) and the penalties ``d/2 + k/2`` summed over the
    dimensions give ``d/2 + sum(-k_j + k_1 + k_2) / 2``.  No variance floor:
    for bags whose variances are far above it.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    m, l, d = x1.shape[0], x2.shape[0], x1.shape[1]

    def var_kurt(x):
        sq = (x - x.mean(axis=0)) ** 2
        var = sq.mean(axis=0)
        return var, (sq**2).mean(axis=0) / var**2

    (var_j, kurt_j), (var_1, kurt_1), (var_2, kurt_2) = (
        var_kurt(x) for x in (np.vstack([x1, x2]), x1, x2))
    ll_part = 0.5 * float(np.sum(-(m + l) * np.log(var_j) + m * np.log(var_1)
                                 + l * np.log(var_2)))
    return ll_part + 0.5 * d + 0.5 * float(np.sum(-kurt_j + kurt_1 + kurt_2))


def vmf_loglik(fit, sample, b: int = 0) -> float:
    """Log-likelihood of a bag of unit vectors at the parameters of fit ``b``
    of a batch ``VmfFit``."""
    x = as_unit_matrix(sample)
    mu_hat, kappa_hat = fit.mu_hat[b], float(fit.kappa_hat[b])
    d = mu_hat.size
    if x.shape[1] != d:
        raise ValueError(f"dimension mismatch: fit has {d}, sample has {x.shape[1]}")
    dots = x @ mu_hat
    return float(kappa_hat * dots.sum() - x.shape[0] * vmf_kernels_scalar(d, kappa_hat)[2])


def gaussian_loglik(mu: np.ndarray, var: np.ndarray, sample) -> float:
    """Exact log-density of a bag under independent normals N(mu_k, var_k)."""
    x = np.asarray(sample, dtype=np.float64)
    d = mu.size
    if x.shape[1] != d:
        raise ValueError(f"dimension mismatch: fit has {d}, sample has {x.shape[1]}")
    var = np.broadcast_to(var, (d,))
    dev = x - mu
    quad = float((dev**2 / var).sum())
    n = x.shape[0]
    return -0.5 * (n * float(np.log(var).sum()) + n * d * math.log(2.0 * math.pi) + quad)


# ---------------------------------------------------------------------------
# brute-force marginal likelihood, d = 1
# ---------------------------------------------------------------------------

def nw_log_evidence_quadrature(x: np.ndarray, mu0: float, kappa0: float,
                               nu0: float, t0: float) -> float:
    """2-D quadrature of the Normal likelihood against its conjugate prior."""
    from scipy import integrate

    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    xbar = float(x.mean())
    spread = max(1.0, float(x.std()), abs(xbar - mu0))

    log_gamma_norm = 0.5 * nu0 * math.log(t0 / 2.0) - math.lgamma(nu0 / 2.0)

    def integrand(mu: float, lam: float) -> float:
        loglik = 0.5 * n * math.log(lam / (2 * math.pi)) - 0.5 * lam * float(
            np.sum((x - mu) ** 2)
        )
        log_mu_prior = 0.5 * math.log(kappa0 * lam / (2 * math.pi)) - 0.5 * kappa0 * lam * (
            mu - mu0
        ) ** 2
        log_lam_prior = log_gamma_norm + (0.5 * nu0 - 1.0) * math.log(lam) - 0.5 * t0 * lam
        return math.exp(loglik + log_mu_prior + log_lam_prior)

    # The location integrand is a single bump whose width shrinks like
    # 1/sqrt(lam); keep the window just wide enough that the truncated tail
    # mass is negligible, or the adaptive rule wastes its subdivisions.
    def mu_lo(lam: float) -> float:
        width = 8.0 * spread / math.sqrt(max(lam, 1e-3) * min(n, 4))
        return min(xbar, mu0) - max(width, 0.5 * spread)

    def mu_hi(lam: float) -> float:
        width = 8.0 * spread / math.sqrt(max(lam, 1e-3) * min(n, 4))
        return max(xbar, mu0) + max(width, 0.5 * spread)

    value, _ = integrate.dblquad(
        integrand, 1e-10, 80.0, mu_lo, mu_hi, epsabs=1e-13, epsrel=1e-11
    )
    return math.log(value)


def log_gamma_ratio_mp(d: int, a: float, n: int) -> float:
    """log Gamma_d(a + n/2) - log Gamma_d(a) as two full d-term sums in
    50-digit arithmetic, with no cancelled terms left out."""
    a = mp.mpf(a)
    return float(mp.fsum(mp.loggamma(a + mp.mpf(n - j) / 2) - mp.loggamma(a - mp.mpf(j) / 2)
                         for j in range(d)))


def log_multivariate_gamma(d: int, a: float) -> float:
    """log of the d-dimensional gamma function at a, for a > (d - 1) / 2, as
    the full sum of its d ``math.lgamma`` terms."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d!r}")
    if not a > (d - 1) / 2.0:
        raise ValueError(f"argument must exceed (d-1)/2 = {(d - 1) / 2}, got {a!r}")
    log_gammas = sum([math.lgamma(a - 0.5 * j) for j in range(d)])
    return 0.25 * d * (d - 1) * math.log(math.pi) + log_gammas


# ---------------------------------------------------------------------------
# dense marginal likelihood, any d
# ---------------------------------------------------------------------------

def nw_log_evidence_dense(x: np.ndarray, prior) -> float:
    """Normal-Wishart log evidence from the dense d x d posterior scale.

    Takes the prior's mean mu0 = 0 and scale T_0 = I, forms
    T_n = T_0 + scatter + (n kappa0 / kappa_n) (xbar - mu0)(xbar - mu0)^T
    and factors it, with log|T_0| and the multivariate gammas recomputed
    here, so nothing is shared with the library's low-rank path.
    """
    from scipy.special import multigammaln

    x = np.asarray(x, dtype=float)
    n, d = x.shape
    mu0, t0 = np.zeros(d), np.eye(d)
    nu_n = prior.nu0 + n
    kappa_n = prior.kappa0 + n
    xbar = x.mean(axis=0)
    dev = x - xbar
    diff = xbar - mu0
    t_n = t0 + dev.T @ dev + (n * prior.kappa0 / kappa_n) * np.outer(diff, diff)
    log_det_t0 = 2.0 * float(np.log(np.diag(np.linalg.cholesky(t0))).sum())
    log_det_tn = 2.0 * float(np.log(np.diag(np.linalg.cholesky(t_n))).sum())
    return (
        -0.5 * n * d * math.log(math.pi)
        + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n))
        + 0.5 * (prior.nu0 * log_det_t0 - nu_n * log_det_tn)
        + float(multigammaln(nu_n / 2.0, d))
        - float(multigammaln(prior.nu0 / 2.0, d))
    )


def nw_log_evidence_mp(x: np.ndarray, prior, dps: int = 60) -> float:
    """Normal-Wishart log evidence in ``dps``-digit arithmetic: T_n formed
    densely from the exact rows (mu0 = 0, T0 = I) and its log determinant
    taken from mpmath's Cholesky factor, with both multivariate gammas as
    full d-term sums."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    with mp.workdps(dps):
        rows = [[mp.mpf(float(v)) for v in row] for row in x]
        xbar = [mp.fsum(row[j] for row in rows) / n for j in range(d)]
        kappa0, nu0 = mp.mpf(prior.kappa0), mp.mpf(prior.nu0)
        shrink = n * kappa0 / (kappa0 + n)
        t_n = mp.eye(d)
        for i in range(d):
            for j in range(i + 1):
                v = (mp.fsum((row[i] - xbar[i]) * (row[j] - xbar[j]) for row in rows)
                     + shrink * xbar[i] * xbar[j])
                t_n[i, j] += v
                if i != j:
                    t_n[j, i] += v
        chol = mp.cholesky(t_n)
        log_det_tn = 2 * mp.fsum(mp.log(chol[i, i]) for i in range(d))
        log_gamma = mp.fsum(mp.loggamma((nu0 + n - j) / 2) - mp.loggamma((nu0 - j) / 2)
                            for j in range(d))
        return float(log_gamma - mp.mpf(n * d) / 2 * mp.log(mp.pi)
                     - (nu0 + n) / 2 * log_det_tn
                     + mp.mpf(d) / 2 * (mp.log(kappa0) - mp.log(kappa0 + n)))


def nw_log_evidence_columns(data, prior) -> float:
    """The low-rank evidence before the row-major Gram: the reference for
    ``groupsim.comparison.nw_log_evidence``.

    Writes U as a transposed (d, n + 1) copy (centred rows, then
    sqrt(n kappa0 / kappa_n) xbar), takes the Gram on its smaller side, and
    takes both multivariate gammas as full d-term sums through
    :func:`log_multivariate_gamma`.
    """
    from groupsim.embeddings import bag_rows

    x = np.asarray(bag_rows(data), dtype=np.float64)
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
    chol = np.linalg.cholesky(gram)
    log_det_tn = 2.0 * float(np.log(np.diag(chol)).sum())
    return (
        -0.5 * n * d * math.log(math.pi)
        + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n))
        - 0.5 * nu_n * log_det_tn
        + log_multivariate_gamma(d, nu_n / 2.0)
        - log_multivariate_gamma(d, prior.nu0 / 2.0)
    )


def nw_log_evidence_stack(data, prior) -> float | np.ndarray:
    """The evidence of one (n, d) bag, a float, or of a (k, n, d) stack, a
    (k,) array, as it was before each bag's rows were written once into a
    buffer centred in place: the bit-for-bit reference for
    ``groupsim.comparison.nw_log_evidence``.

    Copies the data to float64, scans every entry for finiteness, takes the
    means with ``np.mean`` and writes the centred rows (and, for n + 1 < d,
    sqrt(c) xbar) into a second array; the Gram, the Cholesky factor (with
    its overflow and rounding errors) and the telescoped log-Gamma sum are
    the library's, written out here.
    """
    from groupsim.embeddings import bag_rows

    def factor_identity_plus(gram):
        m = gram.shape[-1]
        if not np.isfinite(gram).all():
            raise ValueError(f"posterior scale overflows: its {m} x {m} Gram is not finite")
        gram.reshape(-1, m * m)[:, ::m + 1] += 1.0
        try:
            return np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"posterior scale matrix ({m} x {m}) not positive definite after "
                             f"rounding: the rows are too far from 0 to resolve their spread") from exc

    single = np.ndim(data) != 3
    x = np.asarray(bag_rows(data)[np.newaxis] if single else data, dtype=np.float64)
    _, n, d = x.shape
    if d != prior.dim:
        raise ValueError(f"dimension mismatch: prior has {prior.dim}, data has {d}")
    if n < 1:
        raise ValueError("need at least one observation")
    if not np.isfinite(x).all():
        raise ValueError("bag contains non-finite values (NaN or inf)")
    nu_n, kappa_n = prior.nu0 + n, prior.kappa0 + n
    shrink = n * prior.kappa0 / kappa_n
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = x.mean(axis=1)
        if n + 1 < d:
            update = np.empty((len(x), n + 1, d))
            np.subtract(x, xbar[:, np.newaxis], out=update[:, :n])
            np.multiply(xbar, math.sqrt(shrink), out=update[:, n])
            chol = factor_identity_plus(update @ update.transpose(0, 2, 1))
            log_det_tn = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        else:
            scale = np.maximum(1.0, np.abs(xbar).max(axis=1))
            border = xbar / scale[:, np.newaxis]
            dev = x - xbar[:, np.newaxis]
            gram = np.empty((len(x), d + 1, d + 1))
            np.matmul(dev.transpose(0, 2, 1), dev, out=gram[:, :d, :d])
            gram[:, d, :d] = gram[:, :d, d] = border
            gram[:, d, d] = np.einsum("ij,ij->i", border, border)
            chol = factor_identity_plus(gram)
            solved = scale * np.linalg.norm(chol[:, d, :d], axis=1)
            log_det_tn = (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)[:, :d]).sum(axis=1)
                          + np.log1p(shrink * solved * solved))
    finite = np.isfinite(log_det_tn)
    if not finite.all():
        raise ValueError(f"posterior scale overflows: log|T_n| = {log_det_tn[finite.argmin()]} "
                         f"(n={n}, d={d})")
    top, bottom = 0.5 * nu_n, 0.5 * (prior.nu0 - d + 1)
    log_gamma = sum([math.lgamma(top - 0.5 * i) - math.lgamma(bottom + 0.5 * i)
                     for i in range(min(n, d))])
    evidence = (log_gamma - 0.5 * n * d * math.log(math.pi) - 0.5 * nu_n * log_det_tn
                + 0.5 * d * (math.log(prior.kappa0) - math.log(kappa_n)))
    return float(evidence[0]) if single else evidence


# ---------------------------------------------------------------------------
# corpus model selection, one fit per candidate
# ---------------------------------------------------------------------------

def corpus_model_selection_per_candidate(corpus, candidates, on_degenerate: str = "error"):
    """Corpus model selection as it was before each model was fitted once:
    every candidate reads its own criterion, a Gaussian one from moments
    taken to M4 and a vMF one from its own fit, and the rows are sorted by
    mean criterion."""
    from groupsim.comparison import (
        IC_KINDS,
        MODELS,
        VMF,
        ModelCandidateScore,
        _criteria,
    )
    from groupsim.embeddings import bag_rows
    from groupsim.gaussian import moment_fit, moments
    from groupsim.vmf import fit_vmf

    bags = [(np.asarray(bag_rows(b), dtype=np.float64),) for b in corpus]
    if not bags:
        raise ValueError("corpus must contain at least one bag")
    mom = moments(*(x for x, in bags))
    rows = []
    for model, ic in candidates:
        if model not in MODELS or ic not in IC_KINDS:
            raise ValueError(f"unsupported candidate ({model!r}, {ic!r})")
        fit = fit_vmf(*(x for x, in bags)) if model == VMF else moment_fit(mom, model)
        ll, pen, *_ = _criteria(model, ic, bags, (mom, {model: fit}), on_degenerate, None)
        rows.append(ModelCandidateScore(model, ic, mean_ic=float(np.mean(-2.0 * (ll - pen)))))
    rows.sort(key=lambda r: r.mean_ic)
    return rows


# ---------------------------------------------------------------------------
# line-by-line embedding loader
# ---------------------------------------------------------------------------

def load_embeddings_per_line(path, normalize: bool = False):
    """The loader before chunked parsing: one ``np.array`` per row.

    Returns the same store, or raises the same ``EmbeddingFormatError``
    message, that ``groupsim.embeddings.load_embeddings`` must.
    """
    from groupsim.embeddings import EmbeddingStore, _looks_like_header
    from groupsim.errors import EmbeddingFormatError

    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    duplicates = 0
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and _looks_like_header(parts):
                continue
            token = parts[0]
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}:{lineno}: unparsable number ({exc})") from None
            if vec.size == 0:
                raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} components, found {vec.size}"
                )
            if token in vocab:
                duplicates += 1
                continue
            if normalize:
                with np.errstate(over="ignore"):  # a square norm beyond float64: scale first
                    norm = float(np.linalg.norm(vec))
                if math.isinf(norm):
                    vec = vec / np.abs(vec).max()
                    norm = float(np.linalg.norm(vec))
                if norm == 0.0:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: zero vector cannot be normalized"
                    )
                vec = vec / norm
            with np.errstate(over="ignore"):
                vec = vec.astype(np.float32)
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"{path}:{lineno}: component beyond float32's range")
            vocab[token] = len(rows)
            rows.append(vec)
    if not rows:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    return EmbeddingStore(dim=int(dim), vocab=vocab, matrix=np.vstack(rows),
                          duplicate_count=duplicates)


# ---------------------------------------------------------------------------
# per-pair evaluation path: row-based fits, stacked joint bags, one lookup
# per sentence and per method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowFit:
    """A Gaussian fit from the rows.  A spherical fit replicates its pooled
    variance and kurtosis across dimensions and keeps ``radial_sq_mean``,
    the mean over rows of ``(|x - mu|^2)^2``."""

    kind: str
    mu_hat: np.ndarray
    var_hat: np.ndarray
    kurt_hat: np.ndarray
    n: int
    max_loglik: float
    floored_dims: int = 0
    radial_sq_mean: float | None = None


def fit_gaussian_rows(x: np.ndarray, kind: str = "diag") -> RowFit:
    """The Gaussian fit computed from the rows, before per-bag moments.

    Each row's deviation is taken about the computed mean and then less c,
    the mean of those deviations, so the mean's rounding error (about
    1e-16 of |mean|) does not enter the deviations: a plain two-pass
    kurtosis loses about |mean| / spread ulps, 1e-12 relative once two
    rows of a column differ by 1e-4 of its mean.
    """
    from groupsim.gaussian import VAR_FLOOR
    from groupsim.special import LOG_2PI

    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    rough = x.mean(axis=0)
    c = (x - rough).mean(axis=0)
    mu = rough + c
    dev = (x - rough) - c
    sq = dev**2
    radial_sq_mean = None
    if kind == "diag":
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
    return RowFit(kind=kind, mu_hat=mu, var_hat=var, kurt_hat=kurt, n=n,
                  max_loglik=max_loglik, floored_dims=floored, radial_sq_mean=radial_sq_mean)


def criterion_rows(x: np.ndarray, model: str, ic: str, on_degenerate: str, prior):
    """(L, P, fallback, floored dims) of one bag from its rows.

    Gaussian bags through :func:`fit_gaussian_rows`, vMF bags through one
    :func:`fit_vmf_per_bag` and one :func:`tic_penalty_per_bag` (the parameter count in place of
    a degenerate "tic" penalty when ``on_degenerate="aic"``), "bayes" bags
    through one ``nw_log_evidence``.
    """
    from groupsim.comparison import nw_log_evidence
    from groupsim.errors import DegenerateCurvatureError

    n, d = x.shape
    if model == "bayes":
        return nw_log_evidence(x, prior), 0.0, False, 0
    k = {"vmf": d, "diag": 2 * d, "spherical": d + 1}[model]
    count_penalty = float(k) if ic == "aic" else 0.5 * k * math.log(n)
    if model == "vmf":
        fit = fit_vmf_per_bag(x)
        if ic != "tic":
            return fit.max_loglik, count_penalty, False, 0
        try:
            return fit.max_loglik, tic_penalty_per_bag(fit, (x,)), False, 0
        except DegenerateCurvatureError:
            if on_degenerate != "aic":
                raise
            return fit.max_loglik, float(k), True, 0
    fit = fit_gaussian_rows(x, model)
    if ic != "tic":
        penalty = count_penalty
    elif model == "diag":
        penalty = 0.5 * d + 0.5 * float(fit.kurt_hat.sum())
    else:
        pool = float(fit.var_hat[0])
        var_q = fit.radial_sq_mean - (d * pool) ** 2
        penalty = d + var_q / (2.0 * d * pool**2)
    return fit.max_loglik, penalty, False, fit.floored_dims


def pair_score_rows(x1, x2, model: str, ic: str | None = None, on_degenerate: str = "aic",
                    prior=None):
    """The per-pair composition: (SimilarityScore, floored dims of its three fits).

    ``np.vstack`` of the pair and three per-bag criteria
    (:func:`criterion_rows`) on the stacked pair and on each bag, composed
    as ``alpha (L_j - L_1 - L_2 - P_j + P_1 + P_2)`` with alpha = 2, or 1
    and the default prior for ``model="bayes"``.
    """
    from groupsim.comparison import ScoreBreakdown, SimilarityScore, default_prior

    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if model == "bayes" and prior is None:
        prior = default_prior(x1.shape[1])
    (ll_j, p_j, fb_j, f_j), (ll_1, p_1, fb_1, f_1), (ll_2, p_2, fb_2, f_2) = (
        criterion_rows(x, model, ic, on_degenerate, prior) for x in (np.vstack([x1, x2]), x1, x2))
    alpha = 1.0 if model == "bayes" else 2.0
    score = SimilarityScore(
        value=alpha * (ll_j - ll_1 - ll_2 - p_j + p_1 + p_2),
        method="bayes_factor" if model == "bayes" else f"{model}_{ic}",
        breakdown=ScoreBreakdown(ll_j, ll_1, ll_2, p_j, p_1, p_2, alpha=alpha),
        fallback=fb_j or fb_1 or fb_2,
    )
    return score, f_j + f_1 + f_2


def pair_terms_three_calls(model: str, ic: str | None, first, second,
                           on_degenerate: str = "aic", prior=None):
    """(terms, fallback, floored dims, degenerate fits) of a batch of pairs
    from three per-bag criterion calls, on the joint, first and second bags.

    The batch composition before its single bags were swept in one call:
    Gaussian bags read their moments (the joint bags' merged), vMF bags
    their per-bag fits and penalties (:func:`vmf_criteria_per_bag`; the joint
    bags' fits from summed resultants), and "bayes" bags take one
    :func:`nw_log_evidence_stack` each, the joint bag on the stacked pair.
    """
    from groupsim import comparison
    from groupsim.gaussian import merge_moments, moment_fit, moments

    half = len(first)
    bags = (list(zip(first, second)), [(x,) for x in first], [(x,) for x in second])
    if model == "bayes":
        prior = comparison.default_prior(first[0].shape[1]) if prior is None else prior
        out = []
        for group in bags:
            loglik = np.array([nw_log_evidence_stack(np.vstack(bag), prior) for bag in group])
            zeros = np.zeros(half)
            out.append((loglik, zeros, zeros.astype(bool), zeros.astype(int), zeros.astype(bool)))
    elif model == "vmf":
        f1, f2 = [fit_vmf_per_bag(x) for x in first], [fit_vmf_per_bag(x) for x in second]
        joint = [fit_resultant_per_bag(a.resultant + b.resultant, a.n + b.n,
                                       a.square_norm + b.square_norm)
                 for a, b in zip(f1, f2)]
        out = [vmf_criteria_per_bag(ic, b, f, on_degenerate)
               for b, f in zip(bags, (joint, f1, f2))]
    else:
        order = 4 if (model, ic) == ("diag", "tic") else 2
        mom = moments(*first, *second, order=order)
        m1, m2 = mom.take(slice(0, half)), mom.take(slice(half, 2 * half))
        out = [comparison._criteria(model, ic, b, (m, {model: moment_fit(m, model)}),
                                    on_degenerate, None)
               for b, m in zip(bags, (merge_moments(m1, m2), m1, m2))]
    (ll_j, p_j, f_j, d_j, g_j), (ll_1, p_1, f_1, d_1, g_1), (ll_2, p_2, f_2, d_2, g_2) = out
    terms = np.column_stack([ll_j, ll_1, ll_2, p_j, p_1, p_2])
    return (terms, f_j | f_1 | f_2, int(d_j.sum() + d_1.sum() + d_2.sum()),
            int(g_j.sum() + g_1.sum() + g_2.sum()))


def _summand_scales(x: np.ndarray, model: str, ic: str, prior) -> tuple[float, float]:
    """Magnitudes of the summands one bag's (L, P) are built from.

    A rounding error in L or P is a fraction of these, not of L or P, which
    can sum to near 0: a spherical Gaussian L = -(n d / 2)(log 2 pi s^2 + 1)
    vanishes at s^2 = 1 / (2 pi e).
    """
    from groupsim.special import LOG_2PI

    n, d = x.shape
    loglik, penalty, _, _ = criterion_rows(x, model, ic, "aic", prior)
    if model == "bayes":
        nu_n = prior.nu0 + n
        return (abs(loglik) + 0.5 * n * d * math.log(math.pi)
                + abs(log_multivariate_gamma(d, prior.nu0 / 2.0))
                + abs(log_multivariate_gamma(d, nu_n / 2.0)), 0.0)
    if model == "vmf":
        fit = fit_vmf_per_bag(x)
        log_c = vmf_kernels_scalar(d, fit.kappa_hat)[2]
        return n * (fit.kappa_hat * fit.r_bar + abs(log_c)), abs(penalty)
    fit = fit_gaussian_rows(x, model)
    l_scale = 0.5 * n * (float(np.abs(np.log(fit.var_hat)).sum()) + d * (LOG_2PI + 1.0))
    if model == "spherical" and ic == "tic":
        pool = float(fit.var_hat[0])
        return l_scale, d + (fit.radial_sq_mean + (d * pool) ** 2) / (2.0 * d * pool**2)
    return l_scale, abs(penalty)


def term_scales(x1, x2, model: str, ic: str | None = None, prior=None) -> tuple[float, ...]:
    """The summand magnitudes behind a pair's breakdown terms, in the order
    (L_joint, L_1, L_2, P_joint, P_1, P_2); see :func:`_summand_scales`."""
    from groupsim.comparison import default_prior

    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if model == "bayes" and prior is None:
        prior = default_prior(x1.shape[1])
    (l_j, p_j), (l_1, p_1), (l_2, p_2) = (
        _summand_scales(x, model, ic, prior) for x in (np.vstack([x1, x2]), x1, x2))
    return l_j, l_1, l_2, p_j, p_1, p_2


def spearman_rankdata(xs, ys) -> float:
    """Spearman rho from ``scipy.stats.rankdata`` average ranks, for inputs
    that ``evaluation.spearman`` accepts and that are not constant."""
    from scipy.stats import rankdata

    rx = rankdata(np.asarray(xs, dtype=float))
    ry = rankdata(np.asarray(ys, dtype=float))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(np.dot(rx, ry) / math.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def pair_rows_per_pair(method: str, pairs, store, pad_token: str):
    """Each pair's two bags as the per-pair path scores them: one lookup per
    sentence, and rows normalised bag by bag for the vMF methods."""
    rows = []
    for a, b, _ in pairs:
        sa, sb = (lookup_sentence_per_token(store, text, pad_token) for text in (a, b))
        if method.startswith("vmf"):
            rows.append((unit_rows_per_bag(sa), unit_rows_per_bag(sb)))
        else:
            rows.append((sa.vectors, sb.vectors))
    return rows


def block_of(*arrays, tokens=None):
    """A block of the given (n, d) bags, in order, with ``tokens[i]`` (empty
    lists by default) as bag i's tokens and no out-of-vocabulary count."""
    from groupsim.embeddings import SentenceBlock

    tokens = [[] for _ in arrays] if tokens is None else [list(t) for t in tokens]
    return SentenceBlock(np.vstack(arrays), np.array([len(x) for x in arrays], dtype=np.intp),
                         tuple(tokens), (0,) * len(arrays))


def store_vector(store, token: str) -> np.ndarray:
    """The float64 row of ``token`` in ``store``."""
    return store.matrix[store.vocab[token]].astype(np.float64)


def pair_block(store, pairs, pad_token: str):
    """The bags of a dataset's pairs in one block, tokenised then gathered:
    first every sentence a, then every sentence b.  The bag order oracle of
    ``ScoredPairSet.tokens`` and of the two sides the harness gathers."""
    from groupsim.embeddings import lookup_sentences

    return lookup_sentences(store, [a for a, _, _ in pairs] + [b for _, b, _ in pairs], pad_token)


def lookup_sentence_per_token(store, text: str, pad_token: str):
    """The sentence lookup before dataset blocks: a block of one bag per call."""
    from groupsim.embeddings import SentenceBlock, tokenize

    if pad_token not in store:
        raise KeyError(f"pad token {pad_token!r} not in vocabulary")
    tokens = tokenize(text)
    retained = [t for t in tokens if t in store]
    pad_vec = store_vector(store, pad_token)
    if retained:
        idx = [store.vocab[t] for t in retained]
        body = store.matrix[idx].astype(np.float64)
        vectors = np.vstack([body, pad_vec])
    else:
        vectors = np.vstack([pad_vec, pad_vec])
    return SentenceBlock(vectors, np.array([len(vectors)], dtype=np.intp), (retained,),
                         (len(tokens) - len(retained),))


def unit_rows_per_bag(sample) -> np.ndarray:
    """Row-normalised copy of one bag, as the evaluation harness made it per pair."""
    x = sample.vectors
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero vector cannot be projected to the sphere")
    return x / norms


def sif_embed_per_token(tokens, store, freqs, a: float) -> np.ndarray:
    """SIF sentence vector accumulated one token vector at a time."""
    retained = [t for t in tokens if t in store]
    out = np.zeros(store.dim)
    for token in retained:
        p = freqs.probability(token) if freqs is not None else 0.0
        out += (a / (a + p)) * store_vector(store, token)
    return out / len(retained)


def embedding_scores_per_sentence(method, samples_a, samples_b, store, options) -> list[float]:
    """Baseline cosines with one sentence vector and one cosine call at a time."""
    from groupsim.baselines import remove_first_pc

    def sentence_vector(sample):
        if method == "mwv" or not sample.tokens[0]:
            return sample.vectors.mean(axis=0)
        return sif_embed_per_token(sample.tokens[0], store, options.freqs, options.sif_a)

    va = np.vstack([sentence_vector(s) for s in samples_a])
    vb = np.vstack([sentence_vector(s) for s in samples_b])
    if method == "sif_pca":
        deflated = remove_first_pc(np.vstack([va, vb]), seed=options.seed)
        va, vb = deflated[: va.shape[0]], deflated[va.shape[0]:]
    return [scalar_cosine(u, v) for u, v in zip(va, vb)]


def scalar_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two vectors, 0.0 when either is zero."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def pair_scores_per_pair(method: str, pairs, store, options, pad_token: str):
    """Every pair's SimilarityScore and the floored dims summed over all fits,
    scored one pair at a time as the evaluation harness did before dataset
    batches."""
    from groupsim.comparison import SimilarityScore

    if method in ("mwv", "sif", "sif_pca"):
        samples_a = [lookup_sentence_per_token(store, a, pad_token) for a, _, _ in pairs]
        samples_b = [lookup_sentence_per_token(store, b, pad_token) for _, b, _ in pairs]
        values = embedding_scores_per_sentence(method, samples_a, samples_b, store, options)
        return [SimilarityScore(value=v, method=method) for v in values], 0
    model, _, ic = method.partition("_")
    scores, floored = [], 0
    for rows in pair_rows_per_pair(method, pairs, store, pad_token):
        score, dims = pair_score_rows(*rows, model, ic, prior=options.prior)
        scores.append(score)
        floored += dims
    return scores, floored


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_vmf(rng: np.random.Generator, mu: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Rejection sampler for the sphere model (Wood's scheme)."""
    mu = np.asarray(mu, dtype=float)
    mu = mu / np.linalg.norm(mu)
    d = mu.size
    b = (d - 1) / (math.sqrt(4 * kappa**2 + (d - 1) ** 2) + 2 * kappa)
    x0 = (1 - b) / (1 + b)
    c = kappa * x0 + (d - 1) * math.log(1 - x0**2)
    out = np.empty((n, d))
    for i in range(n):
        while True:
            z = rng.beta((d - 1) / 2.0, (d - 1) / 2.0)
            w = (1 - (1 + b) * z) / (1 - (1 - b) * z)
            u = rng.uniform()
            if kappa * w + (d - 1) * math.log(1 - x0 * w) - c >= math.log(u):
                break
        v = rng.standard_normal(d)
        v -= v.dot(mu) * mu
        v /= np.linalg.norm(v)
        out[i] = v * math.sqrt(max(0.0, 1 - w**2)) + w * mu
    return out


def uniform_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))
