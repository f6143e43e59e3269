"""Modified-Bessel ratios, log-normalizers, and the multivariate log-gamma.

Everything runs in ratio/log space.  Ratios ``I_nu(x) / I_{nu-1}(x)`` lie in
``[0, 1)`` for ``nu >= 1/2``, so chains of them combine safely under logs even
at dimension ~2000 and concentration ~1e10, where raw Bessel values leave the
float64 range by hundreds of orders of magnitude.

Supported domain: d integer in [2, 2048] and kappa in [0, 1e16]; out-of-range
inputs raise rather than silently degrade.  Two complementary evaluation
strategies cover it:

* a backward ratio recurrence ``r_nu = 1 / (2 nu / x + r_{nu+1})`` started from
  an Amos-type approximation well above the largest order of interest (the
  downward pass contracts the start error below machine precision), and
* the large-argument Hankel expansion, used once ``x`` dominates the square of
  the largest order, where the recurrence would need O(sqrt(x)) steps.

The downward pass also yields every intermediate ratio, so ``log I_nu(x)``
telescopes from a base order in {0, 1/2} with closed-form logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

LOG_2PI = math.log(2.0 * math.pi)

MIN_DIM = 2
MAX_DIM = 2048
MAX_KAPPA = 1e16

# Hankel expansion kicks in when x >= max(_ASYM_MIN_X, 100 * top_order^2);
# below that the recurrence needs at most ~sqrt(order^2 + 40x) steps.
_ASYM_MIN_X = 1e4


@dataclass(frozen=True)
class BesselRatioTable:
    """Ratios of modified Bessel functions at three consecutive orders.

    ``r0 = I_order / I_{order-1}``, ``r1`` and ``r2`` shift the order up by
    one and two.  ``log_i`` is ``log I_order(kappa)``.
    """

    order: float
    kappa: float
    r0: float
    r1: float
    r2: float
    log_i: float


def _check_dim(d: int) -> None:
    try:
        ok = not isinstance(d, bool) and int(d) == d and MIN_DIM <= d <= MAX_DIM
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"dimension must be an integer in [{MIN_DIM}, {MAX_DIM}], got {d!r}")


def _check_kappa(kappa: float, positive: bool = False) -> None:
    if not math.isfinite(kappa):
        raise ValueError(f"concentration must be finite, got {kappa!r}")
    if kappa > MAX_KAPPA:
        raise ValueError(f"concentration {kappa!r} above supported maximum {MAX_KAPPA:g}")
    if positive:
        if kappa <= 0.0:
            raise ValueError(f"concentration must be > 0, got {kappa!r}")
    elif kappa < 0.0:
        raise ValueError(f"concentration must be >= 0, got {kappa!r}")


def _use_asymptotic(x: float, top_order: float) -> bool:
    return x >= _ASYM_MIN_X and x >= 100.0 * top_order * top_order


def _hankel_sum(nu: float, x: float) -> float:
    """Partial sum of the large-argument expansion of e^{-x} sqrt(2 pi x) I_nu(x)."""
    t = 1.0
    s = 1.0
    four_nu2 = 4.0 * nu * nu
    for k in range(1, 40):
        t *= -(four_nu2 - (2 * k - 1) ** 2) / (8.0 * x * k)
        s += t
        if abs(t) < 1e-18 * abs(s):
            break
    return s


def _hankel_log_i(nu: float, x: float) -> float:
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(_hankel_sum(nu, x))


def _ratio_chain(x: float, frac: float, length: int) -> list[float]:
    """Backward recurrence for ratios r[i] = I_{frac+i}(x) / I_{frac+i-1}(x).

    Returns a list indexed 1..length (index 0 unused).  The start order is
    chosen so the Amos-type seed error contracts below 1e-30 before the first
    collected ratio.
    """
    top = frac + length
    start = int(math.ceil(max(top, math.sqrt(top * top + 40.0 * x)) - frac)) + 12
    nu = frac + start
    r = x / (nu - 0.5 + math.hypot(nu + 0.5, x))
    out = [0.0] * (length + 1)
    for i in range(start - 1, 0, -1):
        r = 1.0 / (2.0 * (frac + i) / x + r)
        if i <= length:
            out[i] = r
    return out


def _log_i0(x: float) -> float:
    if x > 40.0:
        return _hankel_log_i(0.0, x)
    t = 1.0
    s = 1.0
    q = 0.25 * x * x
    for k in range(1, 400):
        t *= q / (k * k)
        s += t
        if t < 1e-18 * s:
            break
    return math.log(s)


def _log_i_half(x: float) -> float:
    # I_{1/2}(x) = sqrt(2 / (pi x)) sinh(x); log sinh written overflow-free.
    log_sinh = x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
    return 0.5 * (math.log(2.0) - math.log(math.pi) - math.log(x)) + log_sinh


def _log_base(frac: float, x: float) -> float:
    return _log_i0(x) if frac == 0.0 else _log_i_half(x)


def _frac_and_index(d: int, order: float) -> tuple[float, int]:
    frac = 0.0 if d % 2 == 0 else 0.5
    return frac, int(round(order - frac))


def bessel_ratio(d: int, kappa: float) -> float:
    """Mean-resultant-length function A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Strictly increasing in kappa, with values in [0, 1).
    """
    _check_dim(d)
    _check_kappa(kappa)
    if kappa == 0.0:
        return 0.0
    order = d / 2.0
    if _use_asymptotic(kappa, order):
        return _hankel_sum(order, kappa) / _hankel_sum(order - 1.0, kappa)
    frac, idx = _frac_and_index(d, order)
    return _ratio_chain(kappa, frac, idx)[idx]


def bessel_ratio_table(d: int, kappa: float) -> BesselRatioTable:
    """Ratios at orders d/2, d/2+1, d/2+2 plus log I_{d/2}(kappa), in one pass."""
    _check_dim(d)
    _check_kappa(kappa, positive=True)
    order = d / 2.0
    top = order + 2.0
    if _use_asymptotic(kappa, top):
        sums = [_hankel_sum(order - 1.0 + j, kappa) for j in range(4)]
        return BesselRatioTable(
            order=order,
            kappa=kappa,
            r0=sums[1] / sums[0],
            r1=sums[2] / sums[1],
            r2=sums[3] / sums[2],
            log_i=_hankel_log_i(order, kappa),
        )
    frac, idx = _frac_and_index(d, order)
    chain = _ratio_chain(kappa, frac, idx + 2)
    log_i = _log_base(frac, kappa) + sum(math.log(chain[i]) for i in range(1, idx + 1))
    return BesselRatioTable(
        order=order,
        kappa=kappa,
        r0=chain[idx],
        r1=chain[idx + 1],
        r2=chain[idx + 2],
        log_i=log_i,
    )


def inv_bessel_ratio(d: int, r_bar: float, refine: bool = False) -> float:
    """Concentration estimate solving A_d(kappa) = r_bar.

    Uses the closed rational approximation ``r_bar (d - r_bar^2) / (1 - r_bar^2)``;
    with ``refine`` a Newton polish runs until |A_d(kappa) - r_bar| < 1e-8
    (at most 20 steps).  ``r_bar`` must lie strictly inside (0, 1); callers
    clamp before calling.
    """
    _check_dim(d)
    if not (0.0 < r_bar < 1.0):
        raise ValueError(f"resultant length must be in (0, 1), got {r_bar!r}")
    kappa = r_bar * (d - r_bar * r_bar) / (1.0 - r_bar * r_bar)
    if not refine:
        return kappa
    for _ in range(20):
        a = bessel_ratio(d, kappa)
        if abs(a - r_bar) < 1e-8:
            break
        # dA/dkappa = 1 - A^2 - (d-1) A / kappa
        slope = 1.0 - a * a - (d - 1.0) * a / kappa
        if not math.isfinite(slope) or slope <= 0.0:
            break
        step = (a - r_bar) / slope
        nxt = kappa - step
        if nxt <= 0.0:
            nxt = kappa / 2.0
        kappa = nxt
    return kappa


def log_vmf_normalizer(d: int, kappa: float) -> float:
    """log Z(kappa) = (d/2) log 2pi + log I_{d/2-1}(kappa) - (d/2-1) log kappa."""
    _check_dim(d)
    _check_kappa(kappa, positive=True)
    order = d / 2.0 - 1.0
    if _use_asymptotic(kappa, order):
        log_i = _hankel_log_i(order, kappa)
    else:
        frac, idx = _frac_and_index(d, order)
        if idx == 0:
            log_i = _log_base(frac, kappa)
        else:
            chain = _ratio_chain(kappa, frac, idx)
            log_i = _log_base(frac, kappa) + sum(math.log(chain[i]) for i in range(1, idx + 1))
    return 0.5 * d * LOG_2PI + log_i - order * math.log(kappa)


def log_multivariate_gamma(d: int, a: float) -> float:
    """log of the d-dimensional gamma function at a, for a > (d - 1) / 2."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d!r}")
    if not a > (d - 1) / 2.0:
        raise ValueError(f"argument must exceed (d-1)/2 = {(d - 1) / 2}, got {a!r}")
    terms = gammaln(a - 0.5 * np.arange(d))
    return 0.25 * d * (d - 1) * math.log(math.pi) + float(terms.sum())


def bessel_second_derivative_term(d: int, kappa: float) -> float:
    """Second derivative of the concentration log-likelihood per observation.

    Writing v = d/2 - 1, this is
    ``[I_{v+1} (I_{v-1} + I_{v+1}) - I_v (I_v + I_{v+2})] / (2 I_v^2)``
    assembled purely from ratios so no unscaled Bessel value is ever formed.
    Equals -dA_d/dkappa and is therefore always negative.
    """
    _check_dim(d)
    _check_kappa(kappa, positive=True)
    table = bessel_ratio_table(d, kappa)
    a = table.r0  # I_{v+1} / I_v with v = d/2 - 1
    r1 = table.r1  # I_{v+2} / I_{v+1}
    v = d / 2.0 - 1.0
    # Three-term recurrence at order v: I_{v-1} = I_{v+1} + (2v/kappa) I_v,
    # so I_{v-1}/I_v = a + 2v/kappa.
    ratio_down = a + 2.0 * v / kappa
    value = 0.5 * (a * (ratio_down + a) - (1.0 + a * r1))
    if not math.isfinite(value):
        raise ValueError(
            f"curvature term not finite at d={d}, kappa={kappa!r}; inputs out of supported range"
        )
    return value
