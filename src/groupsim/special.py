"""Modified-Bessel ratios and log-normalizers.

Everything runs in ratio/log space.  Ratios ``I_nu(x) / I_{nu-1}(x)`` lie in
``[0, 1)`` for ``nu >= 1/2``, so chains of them combine safely under logs even
at dimension ~2000 and concentration ~1e10, where raw Bessel values leave the
float64 range by hundreds of orders of magnitude.

Supported domain: d integer in [2, 2048] and kappa in [0, 1e16]; out-of-range
inputs raise rather than silently degrade.  One kernel, :func:`vmf_kernels`,
returns everything the von Mises-Fisher model needs at (d, kappa) from a
single evaluation.  With v = d/2 - 1, the ratios A_d and A_d' come from one
of two complementary strategies:

* a backward ratio recurrence ``r_nu = 1 / (2 nu / x + r_{nu+1})`` started from
  an Amos-type approximation well above the largest order of interest (the
  downward pass contracts the start error below machine precision), and
* the large-argument Hankel expansion at orders v, v+1 and v+2, used once
  ``x >= max(1e4, 100 (v+3)^2)``, where the recurrence would need
  O(sqrt(x)) steps.

The log-normalizer log C_d needs ``log I_v(x)`` itself:

* for v >= 48 (d >= 98), at every kappa, from the uniform (Debye) expansion
  of DLMF 10.41.3 with seven terms, so the recurrence stops at order v + 1;
* below that, the recurrence runs on through every lower order and
  ``log I_v(x)`` telescopes from a base order in {0, 1/2} with closed-form
  logs, or in the Hankel regime it is the log of the order-v sum.

``bessel_ratio`` is a view of the kernel's first output; its other outputs,
the slope A_d' and log C_d, are read from the kernel directly.

The module needs only the standard library, so importing it loads neither
numpy nor scipy.
"""

from __future__ import annotations

import math

LOG_2PI = math.log(2.0 * math.pi)

MIN_DIM = 2
MAX_DIM = 2048
MAX_KAPPA = 1e16

# Hankel expansion kicks in when x >= max(_ASYM_MIN_X, 100 * top_order^2);
# below that the recurrence needs at most ~sqrt(order^2 + 40x) steps.
_ASYM_MIN_X = 1e4

# From this order v = d/2 - 1 up, log C_d comes from the Debye sum and the
# recurrence stops at order v + 1 instead of telescoping down to order 0.
_DEBYE_MIN_ORDER = 48.0

# Coefficients of the Debye polynomials of DLMF 10.41.10, rounded from exact
# rationals: u_k(p) = p^k * sum_j _DEBYE_U[k][j] p^(2j), k = 0..6.
_DEBYE_U = (
    (1.0,),
    (0.125, -0.20833333333333334),
    (0.0703125, -0.4010416666666667, 0.3342013888888889),
    (0.0732421875, -0.8912109375, 1.8464626736111112, -1.0258125964506173),
    (0.112152099609375, -2.3640869140625, 8.78912353515625, -11.207002616222994,
     4.669584423426247),
    (0.22710800170898438, -7.368794359479632, 42.53499874538846, -91.81824154324002,
     84.63621767460073, -28.212072558200244),
    (0.5725014209747314, -26.491430486951554, 218.1905117442116, -699.5796273761325,
     1059.9904525279999, -765.2524681411817, 212.57013003921713),
)

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


def _ratio_chain(x: float, frac: float, idx: int) -> tuple[float, float]:
    """One backward pass for the ratios r_i = I_{frac+i}(x) / I_{frac+i-1}(x).

    Returns ``(r_idx, r_{idx+1})``.  The start order sits far enough above
    ``idx + 2`` that the Amos-type seed error contracts below 1e-30 before
    the first returned ratio.
    """
    top = frac + idx + 2
    start = int(math.ceil(max(top, math.sqrt(top * top + 40.0 * x)) - frac)) + 12
    nu = frac + start
    two_over_x = 2.0 / x
    r = x / (nu - 0.5 + math.hypot(nu + 0.5, x))
    for i in range(start - 1, idx + 1, -1):
        r = 1.0 / ((frac + i) * two_over_x + r)
    r_next = r = 1.0 / ((frac + idx + 1) * two_over_x + r)
    return 1.0 / ((frac + idx) * two_over_x + r), r_next


def _telescoped_log_i(x: float, frac: float, idx: int, r_idx: float) -> float:
    """``log I_{frac+idx-1}(x)``: the pass of :func:`_ratio_chain` continued
    from ``r_idx`` down to order 1, keeping only the running product of the
    ratios, which telescopes onto the base order ``frac``."""
    two_over_x = 2.0 / x
    r = r_idx
    log_i = _log_i0(x) if frac == 0.0 else _log_i_half(x)
    prod = 1.0
    for i in range(idx - 1, 0, -1):
        r = 1.0 / ((frac + i) * two_over_x + r)
        prod *= r
        if prod < _RESCALE_BELOW:
            log_i += math.log(prod)
            prod = 1.0
    return log_i + math.log(prod)


def _debye_log_c(d: int, kappa: float) -> float:
    """log C_d(kappa) from the uniform expansion of I_v(v z), v = d/2 - 1, z = kappa / v.

    DLMF 10.41.3 gives ``I_v(v z) ~ e^{v eta} / sqrt(2 pi v s) sum_k u_k(1/s) / v^k``
    with ``s = sqrt(1 + z^2)`` and ``eta = s + log(z / (1 + s))``; the
    ``v log kappa`` inside ``v eta`` cancels the normaliser's exactly, so no
    large terms are subtracted.  The first omitted term, u_7(1/s) / v^7, is
    at most 1.2e-13 over all kappa at v = 48 and falls as v^-7 (4e-17 at
    d = 300).
    """
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

    A_d and A_d' come from one backward ratio chain that stops at order
    v + 1, or from the Hankel sums at orders v, v+1 and v+2 for large kappa.
    log C_d comes from the Debye sum for d >= 98, at any kappa, so its cost
    does not grow with d; below d = 98 the chain runs on down to order 0 or
    1/2 and the log telescopes from there (the Hankel regime takes the log
    of the order-v sum).
    """
    _check_dim(d)
    _check_kappa(kappa, positive=True)
    v = d / 2.0 - 1.0
    debye = v >= _DEBYE_MIN_ORDER
    if _use_asymptotic(kappa, v + 3.0):
        s0, s1, s2 = (_hankel_sum(v + j, kappa) for j in range(3))
        a, r_next = s1 / s0, s2 / s1
        if not debye:
            log_i = kappa - 0.5 * math.log(2.0 * math.pi * kappa) + math.log(s0)
    else:
        frac = 0.0 if d % 2 == 0 else 0.5
        idx = int(round(v + 1.0 - frac))
        a, r_next = _ratio_chain(kappa, frac, idx)
        if not debye:
            log_i = _telescoped_log_i(kappa, frac, idx, a)
    # Three-term recurrence at order v: I_{v-1} / I_v = a + 2v / kappa.
    slope = 0.5 * ((1.0 + a * r_next) - a * ((a + 2.0 * v / kappa) + a))
    if not math.isfinite(slope):
        raise ValueError(
            f"curvature term not finite at d={d}, kappa={kappa!r}; inputs out of supported range"
        )
    if debye:
        return a, slope, _debye_log_c(d, kappa)
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

