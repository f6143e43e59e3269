"""Modified-Bessel ratios, log-normalizers, and the multivariate log-gamma.

Everything runs in ratio/log space.  Ratios ``I_nu(x) / I_{nu-1}(x)`` lie in
``[0, 1)`` for ``nu >= 1/2``, so chains of them combine safely under logs even
at dimension ~2000 and concentration ~1e10, where raw Bessel values leave the
float64 range by hundreds of orders of magnitude.

Supported domain: d integer in [2, 2048] and kappa in [0, 1e16]; out-of-range
inputs raise rather than silently degrade.  One kernel, :func:`vmf_kernels`,
returns everything the von Mises-Fisher model needs at (d, kappa) from a
single evaluation, by one of two complementary strategies:

* a backward ratio recurrence ``r_nu = 1 / (2 nu / x + r_{nu+1})`` started from
  an Amos-type approximation well above the largest order of interest (the
  downward pass contracts the start error below machine precision), and
* the large-argument Hankel expansion, used once ``x`` dominates the square of
  the largest order, where the recurrence would need O(sqrt(x)) steps.

The downward pass runs through every order below the ones it returns, so
``log I_nu(x)`` telescopes from a base order in {0, 1/2} with closed-form
logs.  ``bessel_ratio`` and ``log_vmf_normalizer`` are views of the
kernel's first and last outputs; its middle output, the slope A_d', is read
from the kernel directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

LOG_2PI = math.log(2.0 * math.pi)

MIN_DIM = 2
MAX_DIM = 2048
MAX_KAPPA = 1e16

# Hankel expansion kicks in when x >= max(_ASYM_MIN_X, 100 * top_order^2);
# below that the recurrence needs at most ~sqrt(order^2 + 40x) steps.
_ASYM_MIN_X = 1e4

# The telescoped product of ratios is folded into its log whenever it drops
# below this, so it never underflows while each ratio exceeds ~1e-150.
_RESCALE_BELOW = 1e-150


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
    # I_{1/2}(x) = sqrt(2 / (pi x)) sinh(x); log sinh written overflow-free, and
    # through expm1 so 1 - e^{-2x} keeps full precision (and stays > 0) as x -> 0.
    log_sinh = x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)
    return 0.5 * (math.log(2.0) - math.log(math.pi) - math.log(x)) + log_sinh


def _ratio_chain(x: float, frac: float, idx: int) -> tuple[float, float, float]:
    """One backward pass for the ratios r_i = I_{frac+i}(x) / I_{frac+i-1}(x).

    Returns ``(r_idx, r_{idx+1}, log I_{frac+idx-1}(x))``.  The start order
    sits far enough above ``idx + 2`` that the Amos-type seed error contracts
    below 1e-30 before the first returned ratio; below ``idx`` the pass keeps
    only the running product of the ratios, which telescopes onto the base
    order ``frac``.
    """
    top = frac + idx + 2
    start = int(math.ceil(max(top, math.sqrt(top * top + 40.0 * x)) - frac)) + 12
    nu = frac + start
    two_over_x = 2.0 / x
    r = x / (nu - 0.5 + math.hypot(nu + 0.5, x))
    for i in range(start - 1, idx + 1, -1):
        r = 1.0 / ((frac + i) * two_over_x + r)
    r_next = r = 1.0 / ((frac + idx + 1) * two_over_x + r)
    r_idx = r = 1.0 / ((frac + idx) * two_over_x + r)
    log_i = _log_i0(x) if frac == 0.0 else _log_i_half(x)
    prod = 1.0
    for i in range(idx - 1, 0, -1):
        r = 1.0 / ((frac + i) * two_over_x + r)
        prod *= r
        if prod < _RESCALE_BELOW:
            log_i += math.log(prod)
            prod = 1.0
    return r_idx, r_next, log_i + math.log(prod)


def vmf_kernels(d: int, kappa: float) -> tuple[float, float, float]:
    """``(A_d(kappa), A_d'(kappa), log C_d(kappa))`` from one Bessel evaluation.

    With v = d/2 - 1:

    * ``A_d = I_{v+1} / I_v`` is the mean resultant length, in (0, 1);
    * ``A_d' = 1 - A_d^2 - (d-1) A_d / kappa`` is its slope, assembled from
      the ratios at orders v+1 and v+2 so no unscaled Bessel value is formed;
      it is the per-observation curvature of the concentration
      log-likelihood, positive in exact arithmetic, and cancellation leaves
      it a relative error of about 1e-16 / A_d' once kappa >> d;
    * ``log C_d = (d/2) log 2pi + log I_v(kappa) - v log kappa`` is the log of
      the normalizer Z(kappa) of the density ``exp(kappa mu . w) / Z``.

    The recurrence branch runs one backward ratio chain; the Hankel branch
    sums the expansion at orders v, v+1 and v+2.
    """
    _check_dim(d)
    _check_kappa(kappa, positive=True)
    v = d / 2.0 - 1.0
    if _use_asymptotic(kappa, v + 3.0):
        s0, s1, s2 = (_hankel_sum(v + j, kappa) for j in range(3))
        a, r_next = s1 / s0, s2 / s1
        log_i = kappa - 0.5 * math.log(2.0 * math.pi * kappa) + math.log(s0)
    else:
        frac = 0.0 if d % 2 == 0 else 0.5
        a, r_next, log_i = _ratio_chain(kappa, frac, int(round(v + 1.0 - frac)))
    # Three-term recurrence at order v: I_{v-1} / I_v = a + 2v / kappa.
    slope = 0.5 * ((1.0 + a * r_next) - a * ((a + 2.0 * v / kappa) + a))
    if not math.isfinite(slope):
        raise ValueError(
            f"curvature term not finite at d={d}, kappa={kappa!r}; inputs out of supported range"
        )
    return a, slope, 0.5 * d * LOG_2PI + log_i - v * math.log(kappa)


def bessel_ratio(d: int, kappa: float) -> float:
    """Mean-resultant-length function A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Strictly increasing in kappa, with values in [0, 1).
    """
    _check_dim(d)
    _check_kappa(kappa)
    if kappa == 0.0:
        return 0.0
    return vmf_kernels(d, kappa)[0]


def inv_bessel_ratio(d: int, r_bar: float) -> float:
    """Concentration estimate for A_d(kappa) = r_bar (Banerjee et al., JMLR 2005).

    The closed rational approximation ``r_bar (d - r_bar^2) / (1 - r_bar^2)``,
    not the exact root: for r_bar in [0.1, 0.99] it is within 6e-4 relative
    of the root at d = 300 and within 4e-2 at d = 4.  ``r_bar`` must lie
    strictly inside (0, 1); callers clamp before calling.
    """
    _check_dim(d)
    if not (0.0 < r_bar < 1.0):
        raise ValueError(f"resultant length must be in (0, 1), got {r_bar!r}")
    return r_bar * (d - r_bar * r_bar) / (1.0 - r_bar * r_bar)


def log_vmf_normalizer(d: int, kappa: float) -> float:
    """log Z(kappa) = (d/2) log 2pi + log I_{d/2-1}(kappa) - (d/2-1) log kappa."""
    return vmf_kernels(d, kappa)[2]


def log_multivariate_gamma(d: int, a: float) -> float:
    """log of the d-dimensional gamma function at a, for a > (d - 1) / 2."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d!r}")
    if not a > (d - 1) / 2.0:
        raise ValueError(f"argument must exceed (d-1)/2 = {(d - 1) / 2}, got {a!r}")
    terms = gammaln(a - 0.5 * np.arange(d))
    return 0.25 * d * (d - 1) * math.log(math.pi) + float(terms.sum())
