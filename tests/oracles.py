"""Slow independent oracles used to pin expected values in tests.

Everything here stays deliberately independent of the fast library paths it
validates.  The lognormal masses come from mpmath quadrature of the
continuous density, not from normal-CDF differences, and their gradient
differences the normal CDF in mpmath arithmetic, not in the log domain; the
hooked normalization reference sums every term in doubles, not through the
library's Euler-Maclaurin remainder, ``extended_sum_oracle`` sums it in
mpmath arithmetic, and its derivatives come from mpmath differentiating the
Hurwitz zeta function, not from weighted moments.  ``log_sum_exp`` and ``predict_underflow`` document, as
tested code, why the library works in the log domain.  The dense diagnostics
evaluate the library's model CDFs at every integer: what they check is the
choice of evaluation points, not the CDFs themselves.

The ``reference_*`` functions are the plainer forms that the hooked log
masses, the hooked normalization and the count parser once had: one numpy
expression per quantity, each normalization summed on its own and one split
per row.  The library's faster forms must agree with them
exactly, bit for bit and error for error.

Quadrature caveat: these integrands can decay by hundreds of orders of
magnitude across one interval (a boundary layer at the edge nearest the
density mode).  A single tanh-sinh pass silently loses several digits there,
so intervals are subdivided with points clustered around the mode, doubling
outward, before integrating piece by piece.
"""

import io
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import mpmath as mp
import numpy as np

from citefit.distributions import cdf_values
from citefit.errors import CitefitError, DomainError, ParseError
from citefit.fitting import CitationDataset
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


def _normal_sf(z):
    """``Phi(-z)`` as an mpmath number at the working precision, through
    :func:`erfcx_oracle`, so it keeps its digits however far out ``z`` is."""
    if z < 0:
        return 1 - _normal_sf(-z)
    x = z / mp.sqrt(2)
    return erfcx_oracle(x, mp.mp.dps) * mp.exp(-x * x) / 2


def dln_ll_gradient_oracle(values, mult, mu, sigma, dps=40):
    """Gradient of ``sum(mult * ln d(values))`` for the discretised
    lognormal in ``mu`` and ``ln sigma``, from normal CDF differences in
    mpmath arithmetic.  Each cell's mass ``D`` is taken in the tail that
    holds it; its log has derivatives ``(phi(zlo) - phi(zhi)) / (sigma D)``
    and ``(zlo phi(zlo) - zhi phi(zhi)) / D``, and the renormalization
    ``-ln Phi(-z0)`` adds ``-phi(z0) / (sigma Phi(-z0))`` and
    ``-z0 phi(z0) / Phi(-z0)`` per article."""
    with mp.workdps(dps):
        mu_m, sigma_m = mp.mpf(mu), mp.mpf(sigma)

        def z(x):
            return (mp.ln(x) - mu_m) / sigma_m

        def pdf(t):
            return mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi)

        d_mu = d_s = mp.mpf(0)
        for n, k in zip(values, mult):
            zlo, zhi = z(mp.mpf(n) - mp.mpf("0.5")), z(mp.mpf(n) + mp.mpf("0.5"))
            if zlo >= 0:
                mass = _normal_sf(zlo) - _normal_sf(zhi)
            elif zhi <= 0:
                mass = _normal_sf(-zhi) - _normal_sf(-zlo)
            else:
                mass = 1 - _normal_sf(-zlo) - _normal_sf(zhi)
            d_mu += k * (pdf(zlo) - pdf(zhi)) / (sigma_m * mass)
            d_s += k * (zlo * pdf(zlo) - zhi * pdf(zhi)) / mass
        z0 = z(mp.mpf("0.5"))
        ratio = sum(mult) * pdf(z0) / _normal_sf(z0)
        return float(d_mu - ratio / sigma_m), float(d_s - z0 * ratio)


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


def dense_segment_differences(ds, params, segments):
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
        d = emp[xs - 1] - cdf_values(params, xs)
        diffs.append(float(d[np.argmax(np.abs(d))]))
    return tuple(diffs)


def dense_plot_table(ds, models):
    """Plot rows at every integer x from 1 to the largest count: row
    ``x - 1`` holds the empirical CDF and then each model's CDF at x."""
    xs = np.arange(1, int(ds.counts.max()) + 1, dtype=np.int64)
    columns = [dense_empirical_cdf(ds.counts)]
    columns += [cdf_values(params, xs) for params in models]
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


def hurwitz_zeta(s, a):
    """``zeta(s, a) = sum_{k >= 0} (a + k)**-s`` from mpmath at the working
    precision, once the same evaluation at 20 more digits agrees with it to
    1e-30 relative, or to 10 digits short of the working precision where that
    is finer (as the stencils of ``mp.diff`` need).

    ``mp.zeta`` ends its Euler-Maclaurin series at the first term below
    ``2**-prec`` in absolute size, so where the sum lies far below 1 it stops
    too early: ln zeta(20, 176.4) comes out 9e-12 off at 40 digits, and ln
    zeta(100, 1001) 2e-14 off even at 80.  Where its two evaluations
    disagree, :func:`_relative_zeta` is checked the same way instead.

    Raises
    ------
    ArithmeticError
        If neither route agrees with itself.
    """
    s, a = mp.mpf(s), mp.mpf(a)
    tolerance = min(mp.mpf(10) ** -30, mp.mpf(10) ** (10 - mp.mp.dps))
    for evaluate in (mp.zeta, _relative_zeta):
        value = evaluate(s, a)
        with mp.extradps(20):
            check = evaluate(s, a)
        if abs(value - check) <= tolerance * abs(check):
            return value
    raise ArithmeticError(f"zeta({mp.nstr(s, 17)}, {mp.nstr(a, 17)}) keeps too few digits")


def _relative_zeta(s, a):
    """Hurwitz zeta as the terms up to ``x = a + m >= s + dps``, one by one,
    then the Euler-Maclaurin remainder ``x**(1 - s) / (s - 1) + x**-s / 2 +
    sum_j B_2j / (2j)! (s)_(2j-1) x**(1 - s - 2j)``, its corrections summed
    until one falls below ``10**-dps`` of the sum: beyond ``s + dps`` each is
    under a 39th of the one before for the first ``dps / 2`` or so."""
    m = max(0, int(mp.ceil(s + mp.mp.dps - a)))
    x = a + m
    total = mp.fsum((a + k) ** -s for k in range(m)) + x ** (1 - s) / (s - 1) + x ** -s / 2
    for j in range(1, 4 * mp.mp.dps):
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1) * x ** (1 - s - 2 * j)
        total += term
        if abs(term) < mp.mpf(10) ** -mp.mp.dps * abs(total):
            return total
    raise ArithmeticError(f"the Euler-Maclaurin series of zeta({s}, {a}) did not converge")


def hooked_ll_derivatives_oracle(values, mult, alpha, offset, truncation,
                                  tail_correction=False, dps=60):
    """Gradient and Hessian ``(h00, h01, h11)`` of the hooked log-likelihood
    ``sum(mult * log_mass)`` in ``(ln alpha, ln(B + 1))``, by mpmath's own
    differentiation of a normalization written through the Hurwitz zeta
    function, ``sum_{n=1..N} (B + n)**-alpha = zeta(alpha, B + 1) -
    zeta(alpha, B + N + 1)``, or ``zeta(alpha, B + 1)`` alone where the
    correction is asked and ``alpha > 1``: no head, no Euler-Maclaurin
    remainder and no moments."""
    with mp.workdps(dps):
        total = mp.fsum(mult)

        def loglik(x0, y):
            a, b1 = mp.exp(x0), mp.exp(y)
            z = hurwitz_zeta(a, b1)
            if not (tail_correction and a > 1):
                z -= hurwitz_zeta(a, b1 + truncation)
            return (-a * mp.fsum(m * mp.log(b1 - 1 + n) for n, m in zip(values, mult))
                    - total * mp.log(z))

        x = (mp.log(mp.mpf(alpha)), mp.log(mp.mpf(offset) + 1))
        grad = [float(mp.diff(loglik, x, order)) for order in ((1, 0), (0, 1))]
        hess = [float(mp.diff(loglik, x, order)) for order in ((2, 0), (1, 1), (0, 2))]
    return grad, hess


# ---------------------------------------------------------------------------
# bit-exact references for the hooked evaluation and the parser
# ---------------------------------------------------------------------------

_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)


def _reference_em_remainder(alpha, offset, a, b, unit):
    b1 = offset + 1.0
    xa, xb = offset + a, offset + b
    fa = math.exp(-alpha * math.log1p((a - 1) / b1) - unit)
    fb = math.exp(-alpha * math.log1p((b - 1) / b1) - unit)
    if b == math.inf:
        total = xa * fa / (alpha - 1.0) + 0.5 * fa
    else:
        u = math.log1p((b - a) / xa)
        s = (1.0 - alpha) * u
        total = xa * fa * u * (math.expm1(s) / s if s else 1.0) + 0.5 * (fa + fb)
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


def _reference_log_rel_norm(alpha, offset, truncation, tail_correction):
    """``ln sum_{n=1..N} ((B + n) / (B + 1))**-alpha``, or the sum to infinity
    where corrected and ``alpha > 1``: an exact head of at least 64 terms in
    one numpy expression, then the Euler-Maclaurin rest.  A remainder to
    infinity past ``e**500`` has the head and itself counted in units of that
    size below it."""
    b1 = float(offset) + 1.0
    end = math.inf if tail_correction and alpha > 1 else truncation
    head = min(end, max(64, math.ceil(2.0 * alpha - offset)))
    drop = b1 * math.expm1(min((45.0 + math.log(truncation)) / alpha, 700.0)) + 2.0
    rest = head < end and head < drop
    if not rest:
        head = int(min(head, drop))
    unit = 0.0
    if rest and end == math.inf:
        unit = max(0.0, math.log(offset + (head + 1)) - alpha * math.log1p(head / b1)
                   - math.log(alpha - 1.0) - 500.0)
    with np.errstate(under="ignore"):
        total = float(np.exp(-alpha * np.log1p(np.arange(head) / b1) - unit).sum())
    if rest:
        total += _reference_em_remainder(alpha, offset, head + 1, end, unit)
    return unit + math.log(total)


def reference_hooked_log_norm(alpha, offset, truncation, tail_correction=False):
    """``ln sum_{n=1..N} (B + n)**-alpha``, or ``ln zeta(alpha, B + 1)``
    where corrected and ``alpha > 1``."""
    return -alpha * math.log(float(offset) + 1.0) + _reference_log_rel_norm(
        alpha, offset, truncation, bool(tail_correction))


def reference_hooked_log_pmf(ns, alpha, offset, truncation, tail_correction=False):
    """Hooked log masses at the support points ``ns`` in one expression."""
    log_norm = _reference_log_rel_norm(alpha, offset, truncation, bool(tail_correction))
    ns = np.asarray(ns).astype(np.float64)
    return -alpha * np.log1p((ns - 1.0) / (offset + 1.0)) - log_norm


def reference_hooked_cdf(ns, alpha, offset, truncation, tail_correction=False):
    """Hooked CDF at ``ns``: the running sum of the reference log masses'
    exponentials up to the largest point, capped at 1."""
    ns = np.asarray(ns).astype(np.int64)
    with np.errstate(under="ignore"):
        table = np.cumsum(np.exp(reference_hooked_log_pmf(
            np.arange(1, int(ns.max()) + 1), alpha, offset, truncation, tail_correction)))
    return np.minimum(table, 1.0)[ns - 1]


def _reference_parse_count(text, line_no):
    token = text.strip()
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"count is not an integer: {token!r}", line_no) from None
    if value < 0:
        raise ParseError(f"count must be non-negative, got {value}", line_no)
    if value > 2**63 - 2:  # its shift must stay in int64
        raise ParseError(f"count exceeds the largest supported count, {2**63 - 2}", line_no)
    return value


def reference_parse_counts(source, format="auto", label=""):
    """``data_io.parse_counts`` with every row stripped, split and looked up
    on its own, and each count read shifted by one in Python integers."""
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = enumerate(source, start=1)
    if format == "auto":
        first = next(((n, line) for n, line in lines if line.strip()), (0, ""))
        format = "labeled" if "," in first[1] else "one-per-line"
        lines = itertools.chain([first], lines)
    if format == "one-per-line":
        counts = []
        for line_no, line in lines:
            if not line.strip():
                continue
            counts.append(_reference_parse_count(line, line_no))
        if not counts:
            raise ParseError("no counts found in input")
        return [CitationDataset(label, [c + 1 for c in counts])]
    if format == "labeled":
        groups = {}
        rows = 0
        for line_no, line in lines:
            row = line.rstrip("\r\n")
            if not row.strip():
                continue
            rows += 1
            if "," not in row:
                raise ParseError("expected 'journal,citations'", line_no)
            name, count_text = row.rsplit(",", 1)
            if rows == 1 and not count_text.strip().lstrip("+-").isdigit():
                continue  # header row
            value = _reference_parse_count(count_text, line_no)
            groups.setdefault(name, []).append(value)
        if not groups:
            raise ParseError("no data rows found in input")
        return [CitationDataset(name, [c + 1 for c in counts])
                for name, counts in groups.items()]
    raise ParseError(f"unknown input format {format!r}")
