"""Modified-Bessel ratios and log-normalizers.

Everything runs in ratio/log space.  Ratios ``I_nu(x) / I_{nu-1}(x)`` lie in
``[0, 1)`` for ``nu >= 1/2``, so chains of them combine safely under logs even
at dimension ~2000 and concentration ~1e10, where raw Bessel values leave the
float64 range by hundreds of orders of magnitude.

Supported domain: d integer in [2, 2048] and kappa in [0, 1e16]; out-of-range
inputs raise rather than silently degrade.  One kernel, :func:`vmf_kernels`,
returns everything the von Mises-Fisher model needs at (d, kappa) from a
single evaluation, of a 1-D array of kappa in one pass.  With v = d/2 - 1,
the ratios A_d and A_d' come from one of two strategies:

* a backward ratio recurrence ``r_nu = 1 / (2 nu / x + r_{nu+1})`` started from
  an Amos-type approximation well above the largest order of interest (the
  downward pass contracts the start error below machine precision), one
  pass from the largest start order that each kappa joins at its own, and
* the large-argument Hankel expansion at orders v, v+1 and v+2, used once
  ``x >= max(1e4, 100 (v+3)^2)``, where the recurrence would need
  O(sqrt(x)) steps; it runs kappa by kappa.

The log-normalizer log C_d needs ``log I_v(x)`` itself:

* for v >= 48 (d >= 98), at every kappa, from the uniform (Debye) expansion
  of DLMF 10.41.3 with seven terms, so the recurrence stops at order v + 1;
* below that, kappa by kappa, the recurrence runs on through every lower
  order and ``log I_v(x)`` telescopes from a base order in {0, 1/2} with
  closed-form logs, or in the Hankel regime it is the log of the order-v sum.

``bessel_ratio`` is element 0 of a one-element kernel call, as a float;
the slope A_d' and log C_d are read from the kernel directly.  The module
needs numpy for the array pass and nothing else.
"""

from __future__ import annotations

import math

import numpy as np

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


def _first_bad(values: np.ndarray, ok: np.ndarray) -> tuple[float, str]:
    """The first value ``ok`` rejects, and `` at element i`` if ``values`` is an array."""
    i = int(np.argmin(ok.reshape(-1)))
    return float(values.reshape(-1)[i]), "" if values.ndim == 0 else f" at element {i}"


def _check_kappa(kappa, positive: bool = False) -> None:
    """Raise on a concentration, or the first element of an array, outside the domain."""
    k = np.asarray(kappa, dtype=np.float64)
    ok = (k > 0.0 if positive else k >= 0.0) & (k <= MAX_KAPPA)  # NaN fails both
    if not ok.all():
        value, where = _first_bad(k, ok)
        raise ValueError(f"concentration must be finite and in {'(0' if positive else '[0'}, "
                         f"{MAX_KAPPA:g}], got {value!r}{where}")


def _use_asymptotic(x, top_order: float):
    """Whether the Hankel sums take argument ``x`` (a float or an array) at ``top_order``."""
    return (x >= _ASYM_MIN_X) & (x >= 100.0 * top_order * top_order)


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


def _ratio_chain(x: np.ndarray, frac: float, idx: int) -> tuple[np.ndarray, np.ndarray]:
    """One backward pass for the ratios r_i = I_{frac+i}(x) / I_{frac+i-1}(x)
    at every element of an array ``x``.

    Returns ``(r_idx, r_{idx+1})``.  Each x starts far enough above
    ``idx + 2`` that the Amos-type seed error contracts below 1e-30 before
    the first returned ratio.  Sorted by start order, the elements still
    running are a prefix, so each joins the pass at its own start and goes
    through the operations of a pass of its own.
    """
    top = frac + idx + 2
    start = np.ceil(np.maximum(top, np.sqrt(top * top + 40.0 * x)) - frac).astype(np.intp) + 12
    order = np.argsort(-start, kind="stable")
    x, start = x[order], start[order]
    nu = frac + start
    r = x / (nu - 0.5 + np.hypot(nu + 0.5, x))
    two_over_x = 2.0 / x
    scratch = np.empty_like(x)
    starts, running = start.tolist(), 0
    for i in range(max(starts, default=0) - 1, idx + 1, -1):
        if running < len(starts) and starts[running] > i:  # elements join the pass here
            while running < len(starts) and starts[running] > i:
                running += 1
            head, tox, tmp = r[:running], two_over_x[:running], scratch[:running]
        np.multiply(tox, frac + i, out=tmp)
        tmp += head
        np.divide(1.0, tmp, out=head)
    r_next = 1.0 / ((frac + idx + 1) * two_over_x + r)
    r_idx = 1.0 / ((frac + idx) * two_over_x + r_next)
    ratios = np.empty((2, x.size))
    ratios[0, order], ratios[1, order] = r_idx, r_next
    return ratios[0], ratios[1]


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


def _debye_log_c(d: int, kappa: np.ndarray) -> np.ndarray:
    """log C_d(kappa) from the uniform expansion of I_v(v z), v = d/2 - 1, z = kappa / v,
    at every element of ``kappa``.

    DLMF 10.41.3 gives ``I_v(v z) ~ e^{v eta} / sqrt(2 pi v s) sum_k u_k(1/s) / v^k``
    with ``s = sqrt(1 + z^2)`` and ``eta = s + log(z / (1 + s))``; the
    ``v log kappa`` inside ``v eta`` cancels the normaliser's exactly, so no
    large terms are subtracted.  The first omitted term, u_7(1/s) / v^7, is
    at most 1.2e-13 over all kappa at v = 48 and falls as v^-7 (4e-17 at
    d = 300).
    """
    v = 0.5 * d - 1.0
    s = np.hypot(1.0, kappa / v)
    q = 1.0 / (s * s)
    t = 1.0 / (s * v)
    tail = 0.0
    for coeffs in reversed(_DEBYE_U[1:]):
        u = 0.0
        for c in reversed(coeffs):
            u = u * q + c
        tail = t * (u + tail)
    return (0.5 * d * LOG_2PI + v * (s - math.log(v) - np.log1p(s))
            - 0.5 * np.log(2.0 * math.pi * v * s) + np.log1p(tail))


def vmf_kernels(d: int, kappa):
    """``(A_d(kappa), A_d'(kappa), log C_d(kappa))`` from one Bessel evaluation.

    ``kappa`` is a 1-D array, and each output an array of its shape from
    one pass, each element as a one-element call would give it.  With
    v = d/2 - 1:

    * ``A_d = I_{v+1} / I_v`` is the mean resultant length, in (0, 1);
    * ``A_d' = 1 - A_d^2 - (d-1) A_d / kappa`` is its slope, assembled from
      the ratios at orders v+1 and v+2 so no unscaled Bessel value is formed;
      it is the per-observation curvature of the concentration
      log-likelihood, positive in exact arithmetic, and cancellation leaves
      it a relative error of about 1e-16 / A_d' once kappa >> d;
    * ``log C_d = (d/2) log 2pi + log I_v(kappa) - v log kappa`` is the log of
      the normalizer Z(kappa) of the density ``exp(kappa mu . w) / Z``.

    A_d and A_d' come from one backward ratio chain that stops at order
    v + 1, or from the Hankel sums at orders v, v+1 and v+2 for large kappa.  log C_d comes from the Debye sum
    for d >= 98, at any kappa, so its cost does not grow with d; below
    d = 98 the chain runs on down to order 0 or 1/2 and the log telescopes
    from there (the Hankel regime takes the log of the order-v sum).
    """
    _check_dim(d)
    x = np.asarray(kappa, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"concentration must be a 1-D array, got {x.ndim} dimensions")
    _check_kappa(x, positive=True)
    v = d / 2.0 - 1.0
    debye = v >= _DEBYE_MIN_ORDER
    frac = 0.0 if d % 2 == 0 else 0.5
    idx = int(round(v + 1.0 - frac))
    hankel = _use_asymptotic(x, v + 3.0)
    chain = ~hankel
    a, r_next, log_i = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    a[chain], r_next[chain] = _ratio_chain(x[chain], frac, idx)
    for i in np.flatnonzero(hankel).tolist():
        k = float(x[i])
        s0, s1, s2 = (_hankel_sum(v + j, k) for j in range(3))
        a[i], r_next[i] = s1 / s0, s2 / s1
        log_i[i] = k - 0.5 * math.log(2.0 * math.pi * k) + math.log(s0)
    # Three-term recurrence at order v: I_{v-1} / I_v = a + 2v / kappa.
    slope = 0.5 * ((1.0 + a * r_next) - a * ((a + 2.0 * v / x) + a))
    finite = np.isfinite(slope)
    if not finite.all():
        raise ValueError(f"curvature term not finite at d={d}, kappa={_first_bad(x, finite)[0]!r}; "
                         f"inputs out of supported range")
    if debye:
        log_c = _debye_log_c(d, x)
    else:  # kappa by kappa: the Hankel log, or the chain telescoped to order 0 or 1/2
        log_c = np.array([
            0.5 * d * LOG_2PI + (log_h if h else _telescoped_log_i(k, frac, idx, a_k))
            - v * math.log(k)
            for k, a_k, log_h, h in zip(x.tolist(), a.tolist(), log_i.tolist(), hankel.tolist())])
    return a, slope, log_c


def bessel_ratio(d: int, kappa: float) -> float:
    """Mean-resultant-length function A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Strictly increasing in kappa, with values in [0, 1).
    """
    _check_dim(d)
    _check_kappa(kappa)
    if kappa == 0.0:
        return 0.0
    return float(vmf_kernels(d, np.array([kappa], dtype=np.float64))[0][0])


def inv_bessel_ratio(d: int, r_bar):
    """Concentration estimate for A_d(kappa) = r_bar (Banerjee et al., JMLR 2005).

    The closed rational approximation ``r_bar (d - r_bar^2) / (1 - r_bar^2)``,
    not the exact root: for r_bar in [0.1, 0.99] it is within 6e-4 relative
    of the root at d = 300 and within 4e-2 at d = 4.  ``r_bar``, a 1-D
    array, must lie strictly inside (0, 1); callers clamp before calling.
    """
    _check_dim(d)
    r = np.asarray(r_bar, dtype=np.float64)
    if r.ndim != 1:
        raise ValueError(f"resultant length must be a 1-D array, got {r.ndim} dimensions")
    ok = (0.0 < r) & (r < 1.0)
    if not ok.all():
        value, where = _first_bad(r, ok)
        raise ValueError(f"resultant length must be in (0, 1), got {value!r}{where}")
    return r * (d - r * r) / (1.0 - r * r)
