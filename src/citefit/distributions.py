"""The two competing count models on shifted support n = 1, 2, 3, ...

Hooked (offset) power law, the discrete Lomax analogue::

    h(n) = (B + n)**(-alpha) / sum_{k=1..N} (B + k)**(-alpha)

with exponent ``alpha``, head offset ``B`` and a truncated normalization of
length ``N`` (optionally completed by an integral tail bound).  The
normalization is an exact log-domain sum over at most the first 125 or so
terms plus an Euler-Maclaurin remainder for the rest, so its cost does not
grow with ``N`` and it agrees with the term-by-term sum to about 1e-15
relative.

Discretised lognormal: the continuous lognormal density ``c(x)`` integrated
over unit intervals and renormalized to the support above one half::

    d(n) = integral_{n-0.5}^{n+0.5} c(x) dx / integral_{0.5}^{inf} c(x) dx

All mass-function evaluations happen in the log domain; cumulative values
are returned in probability space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DomainError, SupportRangeError
from .numerics import LOG_ZERO

DEFAULT_TRUNCATION = 10000
DEFAULT_ALPHA_CAP = 10000.0
SIGMA_MIN = 1e-3

# |z| beyond which a CDF difference is evaluated through the complementary
# branch: both arguments in the same far tail would otherwise cancel.
_TAIL_Z = 6.0

_LN_HALF = math.log(0.5)


@dataclass(frozen=True)
class HookedPowerLawParams:
    """Exponent, head offset and normalization length of the hooked model.

    ``alpha <= alpha_cap`` (default 10000) is enforced at fitting time, where
    the cap is configurable; construction only requires admissible values.
    """

    alpha: float
    offset: float
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.offset >= 0 and math.isfinite(self.offset)):
            raise DomainError(f"offset must be non-negative and finite, got {self.offset!r}")
        if self.truncation < 1:
            raise DomainError(f"truncation must be >= 1, got {self.truncation!r}")


@dataclass(frozen=True)
class DiscretisedLognormalParams:
    """Location and scale of the underlying normal of log counts.

    ``sigma`` is floored at ``SIGMA_MIN`` so degenerate datasets (all counts
    equal) cannot drive the scale to zero.
    """

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
# the at most N terms still to come then cannot reach the last bit of the sum
_HEAD_DROP = 45.0


def _hooked_log_norm(alpha: float, offset: float, truncation: int,
                     tail_correction: bool) -> float:
    b1 = float(offset) + 1.0  # a Python float overflows to inf without a warning
    # once B + n >= 2 alpha and n > 64, each Euler-Maclaurin order is smaller
    # than the one before by (alpha + 2j)**2 / (2 pi (B + n))**2 < 1/50, so six
    # orders leave the remainder exact to double precision
    head = min(truncation, max(_HEAD_MIN, math.ceil(2.0 * alpha - offset)))
    drop = b1 * math.expm1(min((_HEAD_DROP + math.log(truncation)) / alpha, 700.0)) + 2.0
    rest = head < truncation and head < drop
    if not rest:
        head = int(min(head, drop))
    # terms relative to the first, (B + n)**-alpha / (B + 1)**-alpha
    with np.errstate(under="ignore"):
        total = float(np.exp(-alpha * np.log1p(np.arange(head) / b1)).sum())
    if rest:
        total += _hooked_em_remainder(alpha, offset, head + 1, truncation)
    total = -alpha * math.log(b1) + math.log(total)
    if tail_correction and alpha > 1:
        total = float(np.logaddexp(total, _hooked_log_tail(alpha, offset, truncation)))
    return total


def _hooked_em_remainder(alpha: float, offset: float, a: int, b: int) -> float:
    """Euler-Maclaurin value of ``sum_{n=a..b} f(n)`` for the relative terms
    ``f(x) = ((B + x) / (B + 1))**-alpha``, requiring ``a <= b``."""
    b1 = offset + 1.0
    xa, xb = offset + a, offset + b
    fa = math.exp(-alpha * math.log1p((a - 1) / b1))
    fb = math.exp(-alpha * math.log1p((b - 1) / b1))
    # integral_a^b f = (B + a) f(a) (1 - ((B + b) / (B + a))**(1 - alpha)) / (alpha - 1),
    # through expm1 so alpha -> 1 tends to the logarithm without cancelling
    u = math.log1p((b - a) / xa)
    s = (1.0 - alpha) * u
    total = xa * fa * u * (math.expm1(s) / s if s else 1.0) + 0.5 * (fa + fb)
    # f^(m)(x) = (-1)**m (alpha)_m f(x) / (B + x)**m; da, db carry the magnitudes
    da, db = fa, fb
    rise = alpha
    for coeff in _EM_COEFFS:
        da *= rise / xa
        db *= rise / xb
        rise += 1.0
        total += coeff * (da - db)
        da *= rise / xa
        db *= rise / xb
        rise += 1.0
    return total


def _hooked_log_tail(alpha: float, offset: float, truncation: int) -> float:
    # integral bound on the dropped tail: (B + N + 0.5)**(1-alpha) / (alpha-1)
    return (1.0 - alpha) * math.log(offset + truncation + 0.5) - math.log(alpha - 1.0)


def hooked_log_norm(params: HookedPowerLawParams, tail_correction: bool = False) -> float:
    """Log of the hooked normalization sum ``sum_{n=1..N} (B + n)**(-alpha)``.

    Computed in the log domain with the leading term factored out, so it
    stays finite for any admissible parameters (including ``alpha = 10000``)
    where direct summation in doubles returns zero.  The first
    ``K = max(64, ceil(2 alpha - B))`` terms are summed exactly (fewer when
    the rest cannot reach the last bit) and terms ``K+1..N`` come from an
    Euler-Maclaurin expansion with six Bernoulli corrections, so the cost is
    independent of ``N`` while the result stays the truncated sum, within
    about 1e-15 relative (absolute log error ~3e-11 at ``|alpha ln(B + 1)|``
    near 1.6e5, the rounding of the leading term itself).  With
    ``tail_correction`` and ``alpha > 1`` the integral bound on the dropped
    tail is added, making the normalization effectively untruncated.
    """
    return _hooked_log_norm(params.alpha, params.offset, params.truncation,
                            bool(tail_correction))


def hooked_log_tail_mass(params: HookedPowerLawParams) -> float:
    """Log of the integral bound on the tail beyond the truncation length.

    Raises
    ------
    DomainError
        If ``alpha <= 1`` (the tail integral diverges).
    """
    if params.alpha <= 1:
        raise DomainError("tail bound requires alpha > 1")
    return _hooked_log_tail(params.alpha, params.offset, params.truncation)


def _hooked_log_pmf_array(ns: np.ndarray, params: HookedPowerLawParams,
                          tail_correction: bool) -> np.ndarray:
    log_norm = _hooked_log_norm(params.alpha, params.offset, params.truncation,
                                bool(tail_correction))
    return -params.alpha * np.log(params.offset + ns) - log_norm


def _check_hooked_support(n: int, params: HookedPowerLawParams) -> None:
    if n < 1:
        raise DomainError(f"support starts at 1, got n={n!r}")
    if n > params.truncation:
        raise SupportRangeError(
            f"n={n} exceeds truncation N={params.truncation}; "
            "re-evaluate with a larger truncation"
        )


def hooked_log_pmf(n: int, params: HookedPowerLawParams,
                   tail_correction: bool = False) -> float:
    """Log probability mass ``-alpha*ln(B + n) - ln(normalization)``."""
    _check_hooked_support(n, params)
    return float(_hooked_log_pmf_array(np.float64(n), params, tail_correction))


@lru_cache(maxsize=64)
def _hooked_prefix(alpha: float, offset: float, truncation: int,
                   tail_correction: bool) -> np.ndarray:
    ns = np.arange(1, truncation + 1, dtype=np.float64)
    log_norm = _hooked_log_norm(alpha, offset, truncation, tail_correction)
    with np.errstate(under="ignore"):
        table = np.cumsum(np.exp(-alpha * np.log(offset + ns) - log_norm))
    np.minimum(table, 1.0, out=table)  # cumsum dust may poke above 1
    table.setflags(write=False)
    return table


def hooked_cdf(n: int, params: HookedPowerLawParams,
               tail_correction: bool = False) -> float:
    """Cumulative mass ``sum_{k=1..n} h(k)``, from a cached prefix table.

    With the default truncated normalization the table reaches 1 at ``n = N``;
    with ``tail_correction`` the analytic tail mass remains above ``N``.
    """
    _check_hooked_support(n, params)
    table = _hooked_prefix(params.alpha, params.offset, params.truncation,
                           bool(tail_correction))
    return float(table[n - 1])


def hooked_quantile(params: HookedPowerLawParams, q: float,
                    tail_correction: bool = False) -> int:
    """Smallest support point with cumulative mass >= q (capped at N)."""
    if not 0.0 < q < 1.0 + 1e-15:
        raise DomainError(f"quantile level must be in (0, 1), got {q!r}")
    table = _hooked_prefix(params.alpha, params.offset, params.truncation,
                           bool(tail_correction))
    idx = int(np.searchsorted(table, q, side="left"))
    return min(idx, params.truncation - 1) + 1


# ---------------------------------------------------------------------------
# discretised lognormal
# ---------------------------------------------------------------------------


def _log_phi_diff(zlo: np.ndarray, zhi: np.ndarray) -> np.ndarray:
    """log(Phi(zhi) - Phi(zlo)) for zhi > zlo, cancellation-safe.

    Central pairs difference plain CDF values, reflected to the left of
    centre first; pairs deep in one tail go through the log-CDF of that tail
    so nothing cancels.  A difference that underflows entirely comes back as
    LOG_ZERO, never a negative mass.
    """
    zlo = np.asarray(zlo, dtype=np.float64)
    zhi = np.asarray(zhi, dtype=np.float64)
    out = np.full(zlo.shape, LOG_ZERO)

    right = zlo > _TAIL_Z
    left = zhi < -_TAIL_Z
    mid = ~(right | left)

    if np.any(mid):
        # reflect pairs right of centre, Phi(zhi) - Phi(zlo) = Phi(-zlo) - Phi(-zhi),
        # so neither CDF value sits near 1 where their difference would cancel:
        # lo = min(zlo, -zhi) and hi = -max(zlo, -zhi), the latter built in place
        zl, hi = zlo[mid], -zhi[mid]
        lo = np.minimum(zl, hi)
        np.maximum(zl, hi, out=hi)
        np.negative(hi, out=hi)
        with np.errstate(divide="ignore"):
            out[mid] = np.log(np.maximum(ndtr(hi) - ndtr(lo), 0.0))  # log(0) = LOG_ZERO
    if np.any(right):
        # Phi(zhi)-Phi(zlo) = Phic(zlo) - Phic(zhi), both tiny
        a = log_ndtr(-zlo[right])
        b = log_ndtr(-zhi[right])
        out[right] = _log_diff_exp(a, b)
    if np.any(left):
        a = log_ndtr(zhi[left])
        b = log_ndtr(zlo[left])
        out[left] = _log_diff_exp(a, b)
    return out


def _log_diff_exp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) - exp(b)) for a >= b, LOG_ZERO when indistinguishable."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = b - a
        res = a + np.log1p(-np.exp(d))
    return np.where(d < 0.0, res, LOG_ZERO)


def _dln_log_pmf_array(ns: np.ndarray, params: DiscretisedLognormalParams) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.float64)
    zlo = (np.log(ns - 0.5) - params.mu) / params.sigma
    zhi = (np.log(ns + 0.5) - params.mu) / params.sigma
    z0 = (_LN_HALF - params.mu) / params.sigma
    log_den = float(log_ndtr(-z0))  # log(1 - Phi(z0))
    return _log_phi_diff(zlo, zhi) - log_den


def dln_log_pmf(n: int, params: DiscretisedLognormalParams) -> float:
    """Log mass of the discretised lognormal at n.

    Returns ``LOG_ZERO`` when both interval endpoints are so deep in the same
    tail that the renormalized mass underflows; never NaN or a positive log.
    """
    if n < 1:
        raise DomainError(f"support starts at 1, got n={n!r}")
    return float(_dln_log_pmf_array(np.asarray([n]), params)[0])


def _dln_cdf_array(ns: np.ndarray, params: DiscretisedLognormalParams) -> np.ndarray:
    # [Phi(zhi) - Phi(z0)] / [1 - Phi(z0)] = 1 - Phic(zhi)/Phic(z0), evaluated
    # through log survival values so neither far tail cancels
    ns = np.asarray(ns, dtype=np.float64)
    zhi = (np.log(ns + 0.5) - params.mu) / params.sigma
    z0 = (_LN_HALF - params.mu) / params.sigma
    log_ratio = log_ndtr(-zhi) - float(log_ndtr(-z0))
    cdf = -np.expm1(np.minimum(log_ratio, 0.0))
    return np.clip(cdf, 0.0, 1.0)


def dln_cdf(n: int, params: DiscretisedLognormalParams) -> float:
    """Cumulative mass of the discretised lognormal, telescoped closed form:
    ``[Phi(z(n + 0.5)) - Phi(z(0.5))] / [1 - Phi(z(0.5))]``.
    """
    if n < 1:
        raise DomainError(f"support starts at 1, got n={n!r}")
    return float(_dln_cdf_array(np.asarray([n]), params)[0])


def dln_quantile(params: DiscretisedLognormalParams, q: float) -> int:
    """Smallest support point with cumulative mass >= q.

    Inverts the closed form through the complementary normal quantile so
    levels like 1 - 1e-12 keep full precision.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {q!r}")
    z0 = (_LN_HALF - params.mu) / params.sigma
    sf_target = (1.0 - q) * float(ndtr(-z0))
    if sf_target <= 0.0:
        raise DomainError(f"quantile level {q!r} is beyond float resolution")
    z = -float(ndtri(sf_target))
    x = math.exp(params.mu + params.sigma * z)
    return max(1, math.ceil(x - 0.5))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

ModelParams = HookedPowerLawParams | DiscretisedLognormalParams


def log_pmf_values(params: ModelParams, ns: np.ndarray,
                   tail_correction: bool = False) -> np.ndarray:
    """Vectorized log PMF for either model over integer support points."""
    ns = np.asarray(ns)
    if np.any(ns < 1):
        raise DomainError("support starts at 1")
    if isinstance(params, HookedPowerLawParams):
        if np.any(ns > params.truncation):
            raise SupportRangeError(
                f"support point exceeds truncation N={params.truncation}"
            )
        return _hooked_log_pmf_array(ns.astype(np.float64), params, tail_correction)
    if isinstance(params, DiscretisedLognormalParams):
        return _dln_log_pmf_array(ns, params)
    raise TypeError(f"unknown parameter type {type(params)!r}")


def cdf_values(params: ModelParams, ns: np.ndarray,
               tail_correction: bool = False) -> np.ndarray:
    """Vectorized CDF for either model over integer support points."""
    ns = np.asarray(ns)
    if np.any(ns < 1):
        raise DomainError("support starts at 1")
    if isinstance(params, HookedPowerLawParams):
        if np.any(ns > params.truncation):
            raise SupportRangeError(
                f"support point exceeds truncation N={params.truncation}"
            )
        table = _hooked_prefix(params.alpha, params.offset, params.truncation,
                               bool(tail_correction))
        return table[ns.astype(np.int64) - 1]
    if isinstance(params, DiscretisedLognormalParams):
        return _dln_cdf_array(ns, params)
    raise TypeError(f"unknown parameter type {type(params)!r}")
