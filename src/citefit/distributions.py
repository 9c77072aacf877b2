"""The two competing count models on shifted support n = 1, 2, 3, ...

Hooked (offset) power law, the discrete Lomax analogue::

    h(n) = (B + n)**(-alpha) / sum_{k=1..N} (B + k)**(-alpha)

with exponent ``alpha``, head offset ``B`` and a normalization of length ``N``,
or to infinity, ``zeta(alpha, B + 1)``, where the record sets its
``tail_correction`` flag and ``alpha > 1`` (the support still ends at N).  The
normalization is an exact log-domain sum over at most the first 125 or so
terms plus an Euler-Maclaurin remainder for the rest, so its cost does not
grow with ``N`` and it agrees with the term-by-term sum to about 1e-15
relative.  Log masses are formed relative to the first term,
``-alpha ln((B + n) / (B + 1))`` less the normalization over that term, so
they keep their digits where ``alpha ln(B + 1)`` reaches 1e5.  Both come
from one pass: a single buffer holds the head's ``k`` and the points'
``n - 1``, takes ``-alpha ln(1 + x / (B + 1))`` once, and its head slice is
summed in place into the normalization that the point slice is then reduced
by.  The normalization alone and the CDF table go through the same pass.
The exact gradient and Hessian of a log-likelihood in ``(ln alpha,
ln(B + 1))`` take one more pass of the same kind: with ``t = ln(1 + k /
(B + 1))`` they are weighted moments of ``t`` and ``k / (B + 1 + k)`` under
the head's terms ``exp(-alpha t)``, with the remainder differentiated in
closed form.

Discretised lognormal: the continuous lognormal density ``c(x)`` integrated
over unit intervals and renormalized to the support above one half::

    d(n) = integral_{n-0.5}^{n+0.5} c(x) dx / integral_{0.5}^{inf} c(x) dx

All mass-function evaluations happen in the log domain; cumulative values
are returned in probability space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .errors import DomainError, SupportRangeError
from .numerics import LOG_ZERO, log_ndtr, std_normal_log_cdf

DEFAULT_TRUNCATION = 10000
DEFAULT_ALPHA_CAP = 10000.0
SIGMA_MIN = 1e-3

_LN_HALF = math.log(0.5)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Model(str, Enum):
    """The two model families; each parameter record names its own as
    ``model``, the tag its persisted form carries as ``"kind"``."""

    LOGNORMAL = "lognormal"
    HOOKED = "hooked"


@dataclass(frozen=True, slots=True)
class HookedPowerLawParams:
    """Exponent, head offset and support length of the hooked model, and
    whether its normalization runs on to infinity (for ``alpha > 1``).

    ``alpha <= alpha_cap`` (default 10000) is enforced at fitting time, where
    the cap is configurable; construction only requires admissible values.
    """

    model: ClassVar[Model] = Model.HOOKED
    alpha: float
    offset: float
    truncation: int = DEFAULT_TRUNCATION
    tail_correction: bool = False

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.offset >= 0 and math.isfinite(self.offset)):
            raise DomainError(f"offset must be non-negative and finite, got {self.offset!r}")
        if self.truncation < 1:
            raise DomainError(f"truncation must be >= 1, got {self.truncation!r}")


@dataclass(frozen=True, slots=True)
class DiscretisedLognormalParams:
    """Location and scale of the underlying normal of log counts.

    ``sigma`` is floored at ``SIGMA_MIN`` so degenerate datasets (all counts
    equal) cannot drive the scale to zero.
    """

    model: ClassVar[Model] = Model.LOGNORMAL
    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not (self.sigma >= SIGMA_MIN and math.isfinite(self.sigma)):
            raise DomainError(
                f"sigma must be finite and >= {SIGMA_MIN}, got {self.sigma!r}"
            )


# ---------------------------------------------------------------------------
# hooked power law
# ---------------------------------------------------------------------------


# Euler-Maclaurin correction coefficients B_2j / (2j)!, j = 1..6
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)
# The exact head of the normalization sum runs to n = max(_HEAD_MIN, 2 alpha - B),
# where the Euler-Maclaurin remainder takes over ...
_HEAD_MIN = 64
# ... unless a term falls below exp(-_HEAD_DROP) / N of the first before that:
# the at most N terms still to come then cannot reach the last bit of the sum.
# Nor can the infinite tail of the untruncated sum: past the drop point K it
# is at most f(K) (1 + (B + K) / (alpha - 1)), and the drop only comes before
# max(64, 2 alpha - B), where that is under 89 e**-45 / N of the first term
_HEAD_DROP = 45.0
# exp stays in the normal double range (about 1e-304) at and above this
_EXP_FLOOR = -700.0
# the longest hooked CDF table: its float64 entries and the evaluation buffer
# beside them must stay within what numpy can address
_MAX_TABLE = np.iinfo(np.intp).max // 16


def _hooked_head(alpha: float, offset: float, truncation: int,
                 untruncated: bool = False) -> tuple[int, float, float]:
    """Length ``K`` of the exact head of the normalization sum; the last
    ``n`` of the Euler-Maclaurin remainder over ``n = K+1..`` that follows it,
    ``N``, infinity for the ``untruncated`` sum, or 0 where none follows; and
    the log of the unit the sum is counted in, over its first term."""
    # once B + n >= 2 alpha and n > 64, each Euler-Maclaurin order is smaller
    # than the one before by (alpha + 2j)**2 / (2 pi (B + n))**2 < 1/50, so six
    # orders leave the remainder exact to double precision
    end = math.inf if untruncated else truncation
    reach = 2.0 * alpha - offset  # compared as a float: it may be infinite
    head = min(max(end if reach >= end else math.ceil(reach), _HEAD_MIN), end)
    x = (_HEAD_DROP + math.log(truncation)) / alpha
    drop = (offset + 1.0) * math.expm1(x if x < 700.0 else 700.0) + 2.0
    if head >= drop:
        return int(drop), 0, 0.0
    if end < math.inf:
        return head, end if head < end else 0, 0.0
    # the remainder to infinity, about (B + K) f(K) / (alpha - 1), or its
    # derivatives (1e32 times more) could overflow; in units e**500 below it, not
    unit = (math.log(offset + (head + 1)) - alpha * math.log1p(head / (offset + 1.0))
            - math.log(alpha - 1.0) - 500.0)
    return head, end, max(unit, 0.0)


def _hooked_remainder(alpha: float, offset: float, head: int, end: float,
                      unit: float = 0.0) -> float:
    """Euler-Maclaurin value of the terms ``f(x) = ((B + x) / (B + 1))**-alpha``
    for ``x = head+1..end`` (``end`` infinite for ``alpha > 1``) in units of
    ``e**unit``; :func:`_hooked_remainder_derivatives` differentiates it."""
    b1 = float(offset) + 1.0
    a, b = head + 1, end
    xa, xb = offset + a, offset + b
    fa = math.exp(-alpha * math.log1p((a - 1) / b1) - unit)
    fb = math.exp(-alpha * math.log1p((b - 1) / b1) - unit)  # 0 at infinity, with db
    if b == math.inf:
        rem = xa * fa / (alpha - 1.0) + 0.5 * fa
    else:
        # integral_a^b f = (B + a) f(a) (1 - ((B + b) / (B + a))**(1 - alpha)) / (alpha - 1),
        # through expm1 so alpha -> 1 tends to the logarithm without cancelling
        u = math.log1p((b - a) / xa)
        s = (1.0 - alpha) * u
        rem = xa * fa * u * (math.expm1(s) / s if s else 1.0) + 0.5 * (fa + fb)
    # f^(m)(x) = (-1)**m (alpha)_m f(x) / (B + x)**m; da, db carry the magnitudes
    da, db = fa, fb
    rise = alpha
    for coeff in _EM_COEFFS:
        da *= rise / xa
        db *= rise / xb
        rise += 1.0
        rem += coeff * (da - db)
        da *= rise / xa
        db *= rise / xb
        rise += 1.0
    return rem


def _hooked_log_total(terms: np.ndarray, alpha: float, offset: float, end: float,
                      unit: float) -> float:
    """Log of the normalization over its first term ``(B + 1)**-alpha``, from
    the head's exponents ``terms = -alpha ln(1 + k / (B + 1))``, k = 0..K-1,
    which it overwrites with their exponentials in units of ``e**unit``, and
    the remainder to ``end`` (none where it is 0).

    The terms fall with k, and the head ends at most one term past
    ``exp(-_HEAD_DROP) / N`` of the first, so only the last can drop below
    ``exp(_EXP_FLOOR)``.  Raising it there keeps ``exp`` from underflowing
    (which would trip a caller's ``np.seterr(under="raise")``) and leaves the
    sum as it was: the term is first added to a partial sum that holds an
    earlier term, so it stays below half of that sum's last bit either way.
    (In a unit above 1 any term may drop there, and the remainder, over
    ``e**500``, then dwarfs them all.)
    The result stays between 0 and about ln N, where the normalization itself
    can reach 1.6e5 in size, so log masses formed from it keep their digits
    when a fit multiplies them by thousands of articles.
    """
    if unit:
        terms -= unit
    if terms[-1] < _EXP_FLOOR:
        np.maximum(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    total = float(np.add.reduce(terms))
    if end:
        total += _hooked_remainder(alpha, offset, terms.size, end, unit)
    return unit + math.log(total)


def _hooked_log_masses(ns: np.ndarray, params: HookedPowerLawParams) -> tuple[np.ndarray, float]:
    """Log masses at the support points ``ns`` and the log of the
    normalization over its first term, from one pass over one buffer.

    The buffer holds the head's ``k = 0..K-1`` followed by the points'
    ``n - 1``; it is divided by ``B + 1``, passed through ``log1p`` and
    multiplied by ``-alpha`` once.  The head slice is then summed in place
    into the normalization, and the point slice, less its logarithm, is
    returned: ``-alpha ln((B + n) / (B + 1)) - ln(Z / (B + 1)**-alpha)``, the
    same as ``-alpha ln(B + n) - ln Z`` without cancelling two numbers near
    1e5.  ``ns`` is only read.
    """
    b1 = float(params.offset) + 1.0
    if b1 < 1e300 and 1e-300 * b1 < params.alpha < 1e300:
        return _hooked_pass(ns, params)
    # k / (B + 1), or alpha times its logarithm, could underflow; or, for an
    # exponent near the float maximum, overflow to the -inf that is its value
    with np.errstate(under="ignore", over="ignore"):
        return _hooked_pass(ns, params)


def _hooked_pass(ns, params):
    """:func:`_hooked_log_masses` under the caller's floating-point error state."""
    alpha, offset = params.alpha, params.offset
    head, end, unit = _hooked_head(alpha, offset, params.truncation,
                                   params.tail_correction and alpha > 1)
    buf = np.arange(head + ns.size, dtype=np.float64)
    points = buf[head:]
    np.subtract(ns, 1.0, out=points)
    buf /= float(offset) + 1.0
    np.log1p(buf, out=buf)
    buf *= -alpha
    log_norm = _hooked_log_total(buf[:head], alpha, offset, end, unit)
    points -= log_norm
    return points, log_norm


def hooked_log_norm(params: HookedPowerLawParams) -> float:
    """Log of the hooked normalization sum ``sum_{n=1..N} (B + n)**(-alpha)``.

    Computed in the log domain with the leading term factored out, so it
    stays finite for any admissible parameters (including ``alpha = 10000``)
    where direct summation in doubles returns zero.  The first
    ``K = max(64, ceil(2 alpha - B))`` terms are summed exactly (fewer when
    the rest cannot reach the last bit) and terms ``K+1..N`` come from an
    Euler-Maclaurin expansion with six Bernoulli corrections, so the cost is
    independent of ``N`` while the result stays the truncated sum, within
    about 1e-15 relative (absolute log error ~3e-11 at ``|alpha ln(B + 1)|``
    near 1.6e5, the rounding of the leading term itself).  Where the record
    sets ``tail_correction`` and ``alpha > 1`` the remainder runs to infinity
    instead, and the result is ``ln zeta(alpha, B + 1)`` to the same
    precision, whatever ``N`` is.
    """
    b1 = float(params.offset) + 1.0  # a Python float overflows to inf without a warning
    return -params.alpha * math.log(b1) + _hooked_log_masses(np.empty(0), params)[1]


def _exp_moments(s: float) -> tuple[float, float, float]:
    """``E_i(s) = integral_0^1 v**i e**(s v) dv`` for ``i = 0, 1, 2``.

    Upward, ``E_i = (e**s - i E_{i-1}) / s`` from ``E_0 = expm1(s) / s``,
    where ``|s| >= 1``; below that, ``E_2`` from its series and the same
    recurrence run downward, which cancels nothing there."""
    es = math.exp(s)
    if abs(s) >= 1.0:
        e0 = math.expm1(s) / s
        e1 = (es - e0) / s
        return e0, e1, (es - 2.0 * e1) / s
    # E_2 = sum_k s**k / (k! (k + 3)), to the last bit
    term, e2, k = 1.0, 1.0 / 3.0, 0
    while True:
        k += 1
        term *= s / k
        step = term / (k + 3)
        e2 += step
        if abs(step) <= 1e-17 * e2:
            break
    e1 = 0.5 * (es - s * e2)
    return es - s * e1, e1, e2


def _hooked_remainder_derivatives(alpha: float, offset: float, head: int, end: float,
                                  unit: float = 0.0):
    """Gradient ``(r0, r1)`` and Hessian ``(r00, r01, r11)`` in ``ln alpha``
    and ``ln(B + 1)`` of :func:`_hooked_remainder`, differentiated
    analytically term by term (no differences).

    With ``tau = ln((B + x) / (B + 1))`` the integral over ``[a, b]`` is
    ``(B + 1) int e**((1 - alpha) tau) dtau`` between ``t(a)`` and ``t(b)``:
    in ``alpha`` its derivatives weight the integrand by ``-tau`` and
    ``tau**2`` (closed forms through :func:`_exp_moments`), and in
    ``ln(B + 1)`` only its limits move, which adds ``(a - 1) f(a) - (b - 1) f(b)``.
    Each endpoint term ``c (alpha)_m f(x) / (B + x)**m`` (``m = 0`` for the
    halves of ``f``) is differentiated through its logarithm: with
    ``t = ln((B + x) / (B + 1))``, ``q = (x - 1) / (B + x)`` and
    ``r = 1 - q``, that has gradient ``(P1 - alpha t, alpha q - m r)`` and
    Hessian ``(P2 - alpha t, alpha q, -(alpha + m) r q)``, where ``P1`` and
    ``P2`` sum ``alpha / (alpha + i)`` and ``alpha i / (alpha + i)**2`` over
    the factorial's factors.

    To infinity (``alpha > 1``), with ``c = alpha - 1``, the moments become
    ``int_0^inf tau**i e**(-c tau) dtau = i! / c**(i + 1)`` and every term
    at the upper end vanishes, so ``b`` has no endpoint terms.
    """
    b1 = float(offset) + 1.0
    a, b = head + 1, end
    ends = []
    for n in (a, b) if b < math.inf else (a,):
        x = offset + n
        t = math.log1p((n - 1) / b1)
        ends.append((x, t, (n - 1) / x, b1 / x, math.exp(-alpha * t - unit)))
    xa, ta, qa, _, fa = ends[0]
    if b < math.inf:
        _, tb, qb, _, fb = ends[1]
        u = math.log1p((b - a) / xa)
        e0, e1, e2 = _exp_moments((1.0 - alpha) * u)
        base = xa * fa * u
        k0 = base * e0  # (B + 1) int e**((1 - alpha) tau) dtau
        k1 = base * (ta * e0 + u * e1)  # (B + 1) int tau e**((1 - alpha) tau) dtau
        k2 = base * (ta * ta * e0 + u * (2.0 * ta * e1 + u * e2))
        wb = (b - 1) * fb
    else:
        c = alpha - 1.0
        k0 = xa * fa / c
        k1 = k0 * (ta + 1.0 / c)
        k2 = k0 * (ta * ta + 2.0 * (ta + 1.0 / c) / c)
        wb = tb = qb = 0.0
    wa = (a - 1) * fa
    g0 = -alpha * k1
    g1 = k0 + wa - wb
    h00 = g0 + alpha * alpha * k2
    h01 = g0 - alpha * (wa * ta - wb * tb)
    h11 = g1 + alpha * (wa * qa - wb * qb)
    for (x, t, q, r, f), sign in zip(ends, (1.0, -1.0)):
        terms = [(0.5 * f, 0.0, 0.0, 0)]  # (weight, P1, P2, m)
        d, p1, p2 = sign * f, 0.0, 0.0
        for i in range(2 * len(_EM_COEFFS) - 1):  # the factors alpha + i of (alpha)_11
            rise = alpha + i
            d *= rise / x
            p1 += alpha / rise
            p2 += alpha * i / rise / rise
            if i % 2 == 0:
                weight = _EM_COEFFS[i // 2] * d
                # B + x > 2 alpha and x > 64 make each order under a 50th of
                # the one before, so the rest cannot reach the last bit
                if abs(weight) < 1e-17 * f:
                    break
                terms.append((weight, p1, p2, i + 1))
        at, aq = alpha * t, alpha * q
        for weight, p1, p2, m in terms:
            c0, c1 = p1 - at, aq - m * r
            g0 += weight * c0
            g1 += weight * c1
            h00 += weight * (p2 - at + c0 * c0)
            h01 += weight * (aq + c0 * c1)
            h11 += weight * (c1 * c1 - (alpha + m) * r * q)
    return (g0, g1), (h00, h01, h11)


def _hooked_ll_derivatives(ns: np.ndarray, mult: np.ndarray, params: HookedPowerLawParams):
    """Gradient ``(d_a, d_b)`` and Hessian ``(h_aa, h_ab, h_bb)`` in ``ln alpha``
    and ``ln(B + 1)`` of ``sum(mult * log_mass)`` over the points ``ns``, from
    one pass over one buffer that holds the normalization head and the
    points.  The head's exponents are those of the mass pass, so summing
    them by :func:`_hooked_log_total` gives the normalization the log masses
    were scored with.

    With ``t_k = ln(1 + k / (B + 1))``, ``q_k = k / (B + 1 + k)`` and
    ``r_k = 1 - q_k = exp(-t_k)``, each exponent ``-alpha t`` has gradient
    ``(-alpha t, alpha q)`` and Hessian ``(-alpha t, alpha q, -alpha r q)``.
    The log-normalization's gradient is the mean of the first under the
    weights ``w_k = exp(-alpha t_k)``, and its Hessian the mean of the second
    plus the covariance of the first: minus the w-weighted mean of ``t`` and
    its variance in ``alpha``, moments of ``q`` and ``r`` in ``B``.  The
    points' part is the same closed form at ``n - 1``.  The Euler-Maclaurin
    remainder (:func:`_hooked_remainder_derivatives`) enters the weighted
    sums in closed form.
    """
    alpha, offset = params.alpha, params.offset
    b1 = float(offset) + 1.0
    head, end, unit = _hooked_head(alpha, offset, params.truncation,
                                   params.tail_correction and alpha > 1)
    ns = np.asarray(ns, dtype=np.float64)
    # rows t, q and r q over the head's k and the points' n - 1; tiny or huge
    # weights underflow to 0 or overflow to inf quietly, as in the masses
    with np.errstate(under="ignore", over="ignore"):
        k = np.arange(head + ns.size, dtype=np.float64)
        np.subtract(ns, 1.0, out=k[head:])
        rows = np.empty((3, k.size))
        t, q, rq = rows
        np.add(k, b1, out=rq)
        np.divide(k, rq, out=q)
        np.divide(b1, rq, out=rq)
        rq *= q
        np.divide(k, b1, out=t)
        np.log1p(t, out=t)
        w = t[:head] * -alpha
        log_norm = _hooked_log_total(w, alpha, offset, end, unit)
        s_t, s_q, s_rq = (rows[:, :head] @ w).tolist()
        # the second moments as vector products: a matrix product would have
        # the BLAS library set up its work buffers, a quarter of a megabyte
        th, qh = t[:head], q[:head]
        wt = w * th
        s_tt, s_tq, s_qq = float(wt @ th), float(wt @ qh), float((w * qh) @ qh)
        p_t, p_q, p_rq = (rows[:, head:] @ mult).tolist()
    # derivatives of the normalization over its first term, head and remainder
    a2 = alpha * alpha
    z0, z1 = -alpha * s_t, alpha * s_q
    z00, z01, z11 = z0 + a2 * s_tt, z1 - a2 * s_tq, a2 * s_qq - alpha * s_rq
    if end:
        (r0, r1), (r00, r01, r11) = _hooked_remainder_derivatives(alpha, offset, head, end, unit)
        z0, z1, z00, z01, z11 = z0 + r0, z1 + r1, z00 + r00, z01 + r01, z11 + r11
    scale = math.exp(unit - log_norm)
    l0, l1, l00, l01, l11 = z0 * scale, z1 * scale, z00 * scale, z01 * scale, z11 * scale
    n = float(np.add.reduce(mult))
    return ((-alpha * p_t - n * l0, alpha * p_q - n * l1),
            (-alpha * p_t - n * (l00 - l0 * l0), alpha * p_q - n * (l01 - l0 * l1),
             -alpha * p_rq - n * (l11 - l1 * l1)))


# ---------------------------------------------------------------------------
# discretised lognormal
# ---------------------------------------------------------------------------


def _log_phi_diff(zlo: np.ndarray, zhi: np.ndarray) -> np.ndarray:
    """log(Phi(zhi) - Phi(zlo)) for zhi > zlo, cancellation-safe.

    Pairs right of centre are reflected first, Phi(zhi) - Phi(zlo) =
    Phi(-zlo) - Phi(-zhi), so that the larger CDF value never sits in the
    upper tail where its log would lose the difference; the two log-CDFs,
    from one :func:`log_ndtr` pass, are then differenced in the log domain.
    A difference that underflows entirely comes back as LOG_ZERO, never a
    negative mass.
    """
    # lo = min(zlo, -zhi) and hi = -max(zlo, -zhi), the latter built in place
    zlo = np.ravel(zlo)
    hi = np.negative(np.ravel(zhi))
    lo = np.minimum(zlo, hi)
    np.maximum(zlo, hi, out=hi)
    np.negative(hi, out=hi)
    logs = log_ndtr(np.concatenate((hi, lo)))
    return _log_diff_exp(logs[:hi.size], logs[hi.size:]).reshape(np.shape(zhi))


def _log_diff_exp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) - exp(b)) for a >= b, LOG_ZERO when indistinguishable."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.subtract(b, a)
        np.expm1(out, out=out)
        np.negative(out, out=out)
        np.log(out, out=out)  # NaN where rounding put b above a
    out += a
    return np.fmax(out, LOG_ZERO, out=out)


def _dln_log_pmf_array(ns: np.ndarray, params: DiscretisedLognormalParams) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.float64)
    zlo = (np.log(ns - 0.5) - params.mu) / params.sigma
    zhi = (np.log(ns + 0.5) - params.mu) / params.sigma
    z0 = (_LN_HALF - params.mu) / params.sigma
    return _log_phi_diff(zlo, zhi) - std_normal_log_cdf(-z0)  # less log(1 - Phi(z0))


def _dln_ll_derivatives(ns: np.ndarray, mult: np.ndarray, params: DiscretisedLognormalParams,
                        log_mass: np.ndarray):
    """Gradient ``(d_mu, d_s)`` and Hessian ``(h_mu_mu, h_mu_s, h_s_s)`` in
    ``mu`` and ``s = ln sigma`` of ``sum(mult * log_mass)``, from one pass
    over ``log_mass``, the log masses at ``ns`` under ``params``.

    With ``D = Phi(zhi) - Phi(zlo)`` and ``r = phi(z) / D`` at either end of a
    cell, ``ln D`` has first derivatives ``f_mu = (rlo - rhi) / sigma`` and
    ``f_s = zlo rlo - zhi rhi``, and second derivatives::

        f_mu_mu = f_s / sigma**2 - f_mu**2
        f_mu_s  = (zlo**2 rlo - zhi**2 rhi) / sigma - f_mu - f_mu f_s
        f_s_s   = zlo**3 rlo - zhi**3 rhi - f_s - f_s**2

    The renormalization ``-ln Phi(-z0)``, with ``r0 = phi(z0) / Phi(-z0)`` and
    ``k = r0 (r0 - z0)``, adds ``-r0 / sigma`` and ``-z0 r0`` to the gradient
    and ``k / sigma**2``, ``(k z0 + r0) / sigma`` and ``k z0**2 + r0 z0`` to the
    Hessian, once per article.  Each ratio ``phi(z) / D`` is formed in the log
    domain from the log masses, so it stays finite wherever the mass
    itself is nonzero.  A Hessian entry can be a difference of terms some
    ``z**2`` times its size, so where the data lie hundreds of scales from
    ``mu`` it keeps fewer digits than the gradient (about 6e-6 relative at
    z = 200); the search only takes its step directions from it.
    """
    ns = np.asarray(ns, dtype=np.float64)
    sigma = params.sigma
    zlo = (np.log(ns - 0.5) - params.mu) / sigma
    zhi = (np.log(ns + 0.5) - params.mu) / sigma
    z0 = (_LN_HALF - params.mu) / sigma
    log_sf0 = std_normal_log_cdf(-z0)
    log_den = log_mass + (log_sf0 + _LN_SQRT_2PI)
    # a cell whose mass underflows to zero has infinite ratios at both ends
    # and NaN derivatives; numpy's warning for inf - inf adds nothing to them
    with np.errstate(invalid="ignore"):
        rlo = np.exp(-0.5 * zlo * zlo - log_den)
        rhi = np.exp(-0.5 * zhi * zhi - log_den)
        f_mu = (rlo - rhi) / sigma
        # rlo and rhi become z r, z**2 r and z**3 r in turn
        rlo *= zlo
        rhi *= zhi
        f_s = rlo - rhi
        rlo *= zlo
        rhi *= zhi
        z2r = rlo - rhi
        rlo *= zlo
        rhi *= zhi
        z3r = rlo - rhi
        s_mu, s_s, s_mu_mu, s_mu_s, s_s_s, s_z2r, s_z3r = (
            np.stack((f_mu, f_s, f_mu * f_mu, f_mu * f_s, f_s * f_s, z2r, z3r)) @ mult).tolist()
    n = float(np.add.reduce(mult))
    r0 = math.exp(-0.5 * z0 * z0 - _LN_SQRT_2PI - log_sf0)
    k = r0 * (r0 - z0)
    return ((s_mu - n * r0 / sigma, s_s - n * z0 * r0),
            (s_s / (sigma * sigma) - s_mu_mu + n * k / (sigma * sigma),
             s_z2r / sigma - s_mu - s_mu_s + n * (k * z0 + r0) / sigma,
             s_z3r - s_s - s_s_s + n * (k * z0 * z0 + r0 * z0)))


def _dln_cdf_array(ns: np.ndarray, params: DiscretisedLognormalParams) -> np.ndarray:
    # [Phi(zhi) - Phi(z0)] / [1 - Phi(z0)] = 1 - Phic(zhi)/Phic(z0), evaluated
    # through log survival values so neither far tail cancels
    ns = np.asarray(ns, dtype=np.float64)
    zhi = (np.log(ns + 0.5) - params.mu) / params.sigma
    z0 = (_LN_HALF - params.mu) / params.sigma
    log_ratio = log_ndtr(-zhi) - std_normal_log_cdf(-z0)
    cdf = -np.expm1(np.minimum(log_ratio, 0.0))
    return np.clip(cdf, 0.0, 1.0)


def dln_quantile(params: DiscretisedLognormalParams, q: float) -> int:
    """Smallest support point with cumulative mass >= q.

    Found by bisection on ``n``: the smallest ``n`` with ``ln Phi(-z(n + 1/2))
    - ln Phi(-z0) <= ln(1 - q)``, each side finite in the log domain however
    far the mass sits in either tail, so levels like 1 - 1e-12 keep full
    precision.  Above about 1e13, ``z(n + 1/2)`` cannot separate neighbouring
    integers in double precision, so the point is resolved to a few units.

    Raises
    ------
    DomainError
        If ``q`` is outside (0, 1) or the point lies beyond float range.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {q!r}")
    z0 = (_LN_HALF - params.mu) / params.sigma
    log_level = math.log1p(-q) + std_normal_log_cdf(-z0)

    def reached(n: int) -> bool:
        z = (math.log(n + 0.5) - params.mu) / params.sigma
        return float(log_ndtr(-z)) <= log_level

    # the first of 2**0 .. 2**1020 reached in one vectorized test; the scalar
    # test then moves the bracket to where a doubling from 1 would close it
    hit = log_ndtr((params.mu - np.log(2.0 ** np.arange(1021) + 0.5)) / params.sigma) <= log_level
    hi = 1 << int(hit.argmax() if hit.any() else 1020)
    lo = hi >> 1  # reached(hi) once the bracket closes; never reached(lo)
    while not reached(hi):
        lo, hi = hi, 2 * hi
        if hi > 2**1020:
            raise DomainError(f"quantile level {q!r} of {params} is beyond float range")
    while lo and reached(lo):
        lo, hi = lo >> 1, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

ModelParams = HookedPowerLawParams | DiscretisedLognormalParams


def _support(params: ModelParams, ns) -> np.ndarray:
    """``ns`` as an array, once its points are checked to lie on the support
    of ``params``: from 1, and up to N for the hooked model.

    The extremes are found by position: ``argmin`` and ``argmax`` skip the
    reduction machinery that dominates ``min()`` and ``max()`` on arrays of
    a few hundred points, and pick the same values, NaN included.
    """
    ns = np.asarray(ns)
    if ns.size:
        if ns.item(ns.argmin()) < 1:
            raise DomainError("support starts at 1")
        if (isinstance(params, HookedPowerLawParams)
                and ns.item(ns.argmax()) > params.truncation):
            raise SupportRangeError(f"support point exceeds truncation N={params.truncation}")
    return ns


def log_pmf_values(params: ModelParams, ns: np.ndarray) -> np.ndarray:
    """Vectorized log PMF for either model over integer support points.

    ``ns`` is only read: the result is always a new array."""
    ns = _support(params, ns)
    if isinstance(params, HookedPowerLawParams):
        ns = ns.astype(np.float64, copy=False)
        if ns.ndim == 1:
            return _hooked_log_masses(ns, params)[0]
        # the pass works on one flat buffer; a 0-d ns gives a scalar
        flat, _ = _hooked_log_masses(ns.reshape(-1), params)
        return flat.reshape(ns.shape)[()]
    if isinstance(params, DiscretisedLognormalParams):
        return _dln_log_pmf_array(ns, params)
    raise TypeError(f"unknown parameter type {type(params)!r}")


def cdf_values(params: ModelParams, ns: np.ndarray) -> np.ndarray:
    """Vectorized CDF for either model over integer support points."""
    ns = _support(params, ns)
    if isinstance(params, HookedPowerLawParams):
        # the running sum of the fits' own log masses, up to the largest point
        # asked for; np.cumsum adds in order, so each entry is the same
        # however far the sum runs
        top = int(ns.max()) if ns.size else 0
        if top > _MAX_TABLE:
            raise MemoryError(f"a hooked CDF table of {top} entries is beyond "
                              "addressable memory")
        with np.errstate(under="ignore"):
            table, _ = _hooked_log_masses(np.arange(1, top + 1, dtype=np.float64), params)
            np.exp(table, out=table)
        np.cumsum(table, out=table)
        np.minimum(table, 1.0, out=table)  # cumsum dust may poke above 1
        return table[ns.astype(np.int64) - 1]
    if isinstance(params, DiscretisedLognormalParams):
        return _dln_cdf_array(ns, params)
    raise TypeError(f"unknown parameter type {type(params)!r}")
