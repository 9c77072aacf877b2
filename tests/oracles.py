"""Slow independent oracles used to pin expected values in tests.

Everything here stays deliberately independent of the fast library paths it
validates.  The lognormal masses come from mpmath quadrature of the
continuous density, not from normal-CDF differences; the hooked
normalization reference sums every term in doubles, not through the
library's Euler-Maclaurin remainder, and ``extended_sum_oracle`` sums it in
mpmath arithmetic.  ``log_sum_exp`` and ``predict_underflow`` document, as
tested code, why the library works in the log domain.  The dense diagnostics
evaluate the library's model CDFs at every integer: what they check is the
choice of evaluation points, not the CDFs themselves.

Quadrature caveat: these integrands can decay by hundreds of orders of
magnitude across one interval (a boundary layer at the edge nearest the
density mode).  A single tanh-sinh pass silently loses several digits there,
so intervals are subdivided with points clustered around the mode, doubling
outward, before integrating piece by piece.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import mpmath as mp
import numpy as np

from citefit.distributions import cdf_values
from citefit.errors import CitefitError, DomainError
from citefit.numerics import LOG_ZERO, LogValue


def lognormal_density(x, mu, sigma):
    """Continuous lognormal pdf c(x) in mpmath arithmetic."""
    return (1 / (x * sigma * mp.sqrt(2 * mp.pi))
            * mp.e ** (-(mp.ln(x) - mu) ** 2 / (2 * sigma ** 2)))


def _z_subdivision(z_lo, z_hi):
    """Points in standard-normal space: dense near the density peak inside
    [z_lo, z_hi], steps doubling outward."""
    z_star = min(max(0.0, z_lo), z_hi)
    points = {z_lo, z_hi, z_star}
    for direction in (+1.0, -1.0):
        step = 0.25 / max(1.0, abs(z_star))
        z = z_star
        while (z < z_hi if direction > 0 else z > z_lo):
            z += direction * step
            step *= 2.0
            points.add(min(max(z, z_lo), z_hi))
    return sorted(points)


def lognormal_interval_mass(a, b, mu, sigma, dps=50):
    """integral of c(x) over [a, b] (b may be math.inf) by subdivided
    quadrature."""
    with mp.workdps(dps):
        mu_m, sigma_m = mp.mpf(mu), mp.mpf(sigma)
        z_lo = float((mp.ln(a) - mu_m) / sigma_m)
        if math.isinf(b):
            z_hi = max(z_lo, 0.0) + 45.0
        else:
            z_hi = float((mp.ln(b) - mu_m) / sigma_m)
        xs = [mp.e ** (mu_m + sigma_m * z) for z in _z_subdivision(z_lo, z_hi)]
        xs[0] = mp.mpf(a)
        if math.isinf(b):
            xs.append(mp.inf)
        else:
            xs[-1] = mp.mpf(b)
        return mp.quad(lambda x: lognormal_density(x, mu_m, sigma_m), xs)


def dln_pmf_oracle(n, mu, sigma, dps=50):
    """Discretised lognormal mass at n by quadrature of the density."""
    num = lognormal_interval_mass(n - 0.5, n + 0.5, mu, sigma, dps)
    den = lognormal_interval_mass(0.5, math.inf, mu, sigma, dps)
    return float(num / den)


def dln_cdf_oracle(n, mu, sigma, dps=50):
    num = lognormal_interval_mass(0.5, n + 0.5, mu, sigma, dps)
    den = lognormal_interval_mass(0.5, math.inf, mu, sigma, dps)
    return float(num / den)


def normal_cdf_oracle(x, dps=50):
    """Standard normal CDF by quadrature of the density."""
    with mp.workdps(dps):
        c = 1 / mp.sqrt(2 * mp.pi)
        half = mp.mpf("0.5")
        if x >= 0:
            return float(half + mp.quad(lambda t: c * mp.e ** (-t * t / 2), [0, x]))
        return float(half - mp.quad(lambda t: c * mp.e ** (-t * t / 2), [x, 0]))


def erfcx_oracle(x, dps=40):
    """Scaled complementary error function ``exp(x**2) erfc(x)`` for
    ``x >= 0``, as an mpmath number.  Beyond x = 1000, where mpmath's own erfc
    gives up on huge arguments, the asymptotic series
    ``sum_n (-1)**n (2n - 1)!! / (2 x**2)**n / (x sqrt(pi))`` is summed until
    its terms fall below 1e-45."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        if x < 1000:
            return +(mp.erfc(x) * mp.exp(x * x))
        total = term = mp.mpf(1)
        n = 0
        while abs(term) > mp.mpf(10) ** -45:
            n += 1
            term *= -(2 * n - 1) / (2 * x * x)
            total += term
        return total / (x * mp.sqrt(mp.pi))


def log_ndtr_oracle(z, dps=40):
    """``ln Phi(z)`` as an mpmath number, through erfc of the smaller tail."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        tail = mp.erfc(abs(z) / mp.sqrt(2)) / 2
        return mp.log(tail) if z <= 0 else mp.log1p(-tail)


def log_sum_exp_oracle(terms, dps=60):
    """ln(sum(exp(t))) in extended precision."""
    with mp.workdps(dps):
        return float(mp.ln(mp.fsum(mp.e ** mp.mpf(t) for t in terms)))


def direct_log_norm(alpha, offset, N):
    """ln sum_{n=1..N} (offset + n)**(-alpha), every term summed in doubles
    relative to the leading one, which keeps the sum finite for any
    admissible parameters.  O(N) time and memory."""
    ns = np.arange(1, N + 1, dtype=np.float64)
    terms = -alpha * np.log(offset + ns)
    top = terms[0]  # terms decrease strictly in n
    with np.errstate(under="ignore"):
        return float(top + math.log(float(np.exp(terms - top).sum())))


def hooked_cdf_oracle(alpha, offset, N, dps=40):
    """Every prefix sum ``sum_{k=1..n} (offset + k)**(-alpha)`` over the
    normalization, n = 1..N, in mpmath arithmetic; only the ratios are
    rounded to doubles.  O(N) mpmath powers."""
    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(offset)
        terms = [(b + k) ** -a for k in range(1, N + 1)]
        norm = mp.fsum(terms)
        prefix, out = mp.mpf(0), []
        for t in terms:
            prefix += t
            out.append(float(prefix / norm))
    return np.array(out)


def dense_empirical_cdf(counts):
    """``#(counts <= x) / n`` at every integer x from 1 to the largest of the
    shifted ``counts``, from a per-integer frequency table.  O(max) memory."""
    counts = np.asarray(counts)
    freq = np.bincount(counts, minlength=int(counts.max()) + 1)[1:]
    return np.cumsum(freq) / len(counts)


def dense_segment_differences(ds, params, segments, tail_correction=False):
    """The signed maximum empirical-minus-model CDF difference of each
    segment, evaluated at every integer of the segment (the per-integer
    algorithm that the knot evaluation replaced); empty segments give 0."""
    emp = dense_empirical_cdf(ds.counts)
    diffs = []
    for seg in segments:
        if seg.empty:
            diffs.append(0.0)
            continue
        xs = np.arange(seg.start, seg.end + 1, dtype=np.int64)
        d = emp[xs - 1] - cdf_values(params, xs, tail_correction)
        diffs.append(float(d[np.argmax(np.abs(d))]))
    return tuple(diffs)


def dense_plot_table(ds, models, tail_correction=False):
    """Plot rows at every integer x from 1 to the largest count: row
    ``x - 1`` holds the empirical CDF and then each model's CDF at x."""
    xs = np.arange(1, int(ds.counts.max()) + 1, dtype=np.int64)
    columns = [dense_empirical_cdf(ds.counts)]
    columns += [cdf_values(params, xs, tail_correction) for params in models]
    return np.column_stack(columns)


class OracleTimeoutError(CitefitError, RuntimeError):
    """The slow arbitrary-precision oracle exceeded its resource limit."""


# IEEE 754 binary64 thresholds as base-10 exponents: below 1e-308 positive
# values lose significant digits (subnormal range), below 1e-324 they round
# to zero.
LOG10_SMALLEST_NORMAL = -308
LOG10_SMALLEST_SUBNORMAL = -324


class UnderflowRisk(Enum):
    """Outcome classes for naive direct summation in 64-bit floats."""

    SAFE = "safe"
    REDUCED_ACCURACY = "reduced_accuracy"
    TOTAL_UNDERFLOW = "total_underflow"


@dataclass(frozen=True)
class UnderflowReport:
    """Prediction of how a naive power-sum evaluation degrades in doubles.

    ``smallest_term_log10`` is the base-10 log of the smallest term of
    ``sum((offset + n) ** -alpha for n in 1..truncation)``, i.e. the last one.
    """

    alpha: float
    offset: float
    truncation: int
    smallest_term_log10: float
    risk: UnderflowRisk


def log_sum_exp(terms: Sequence[LogValue]) -> LogValue:
    """Return ``ln(sum(exp(t) for t in terms))`` without under/overflow.

    The maximum term is factored out before exponentiation and the mantissa
    sum is compensated (``math.fsum``), so the result is correct to a few
    units in the last place even for sequences of 10**6 terms spanning
    thousands of orders of magnitude.

    Parameters
    ----------
    terms : sequence of float
        Each entry must be finite or the ``LOG_ZERO`` sentinel.

    Raises
    ------
    DomainError
        If ``terms`` is empty, or contains NaN or +inf.
    """
    if len(terms) == 0:
        raise DomainError("log_sum_exp requires at least one term")
    m = LOG_ZERO
    for t in terms:
        if math.isnan(t) or t == math.inf:
            raise DomainError(f"log_sum_exp term must be finite or LOG_ZERO, got {t!r}")
        if t > m:
            m = t
    if m == LOG_ZERO:
        return LOG_ZERO
    total = math.fsum(math.exp(t - m) for t in terms)
    return m + math.log(total)


def predict_underflow(alpha: float, offset: float, truncation: int) -> UnderflowReport:
    """Classify whether the naive double-precision power sum degrades.

    The smallest term of ``sum_{n=1..N} (B + n)**(-alpha)`` is the last one,
    ``(B + N)**(-alpha)``; once its base-10 exponent drops below -308 the
    term is stored at reduced accuracy, and below -324 it rounds to exactly
    zero, which is what makes the naive route unusable for large ``alpha``.

    Raises
    ------
    DomainError
        If ``alpha <= 0``, ``offset < 0`` or ``truncation < 1``.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    if not (offset >= 0 and math.isfinite(offset)):
        raise DomainError(f"offset must be non-negative and finite, got {offset!r}")
    if truncation < 1:
        raise DomainError(f"truncation must be >= 1, got {truncation!r}")
    smallest = -alpha * math.log10(offset + truncation)
    if smallest < LOG10_SMALLEST_SUBNORMAL:
        risk = UnderflowRisk.TOTAL_UNDERFLOW
    elif smallest < LOG10_SMALLEST_NORMAL:
        risk = UnderflowRisk.REDUCED_ACCURACY
    else:
        risk = UnderflowRisk.SAFE
    return UnderflowReport(alpha, offset, truncation, smallest, risk)


_ORACLE_MAX_TRUNCATION = 10**5


def extended_sum_oracle(
    alpha: float,
    offset: float,
    truncation: int,
    decimal_digits: int = 50,
) -> LogValue:
    """``ln sum_{n=1..truncation} (offset + n)**(-alpha)`` in software
    arbitrary-precision arithmetic.

    This is the slow reference route: every term is computed at
    ``decimal_digits`` significant decimal digits (mpmath), summed exactly,
    and only the final log is rounded back to a double.  It exists to
    validate the fast log-domain path in tests; do not use it in fitting.

    Raises
    ------
    DomainError
        On invalid parameters or ``decimal_digits < 50``.
    OracleTimeoutError
        If ``truncation`` exceeds the oracle's deliberate size limit (1e5).
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    if not (offset >= 0 and math.isfinite(offset)):
        raise DomainError(f"offset must be non-negative and finite, got {offset!r}")
    if truncation < 1:
        raise DomainError(f"truncation must be >= 1, got {truncation!r}")
    if decimal_digits < 50:
        raise DomainError(f"decimal_digits must be >= 50, got {decimal_digits!r}")
    if truncation > _ORACLE_MAX_TRUNCATION:
        raise OracleTimeoutError(
            f"oracle resource limit: truncation {truncation} exceeds "
            f"{_ORACLE_MAX_TRUNCATION}; use the fast log-domain path instead"
        )
    with mp.workdps(decimal_digits):
        a = mp.mpf(alpha)
        b = mp.mpf(offset)
        total = mp.fsum((b + n) ** (-a) for n in range(1, truncation + 1))
        return float(mp.ln(total))
