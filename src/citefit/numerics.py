"""Numerically stable scalar primitives and the package's precision policy.

Every probability-space sum in this package is carried out in the natural-log
domain with the maximum term factored out, so quantities far below the
smallest positive normal double (1e-308) remain exactly representable as
finite log values.  This replaces the escalation to extended-precision
arithmetic that a naive direct summation of terms like ``(B + n)**(-alpha)``
would force for large exponents, at a fraction of the cost.
"""

from __future__ import annotations

import math

from scipy.special import log_ndtr

from .errors import DomainError

#: Exact representation of ln(0).  A legitimate value for probabilities that
#: underflow in probability space, never the silent result of an invalid
#: operation (those raise :class:`~citefit.errors.DomainError`).
LOG_ZERO = float("-inf")

#: A ``LogValue`` is a plain float holding the natural log of a non-negative
#: quantity; ``LOG_ZERO`` is the distinguished log-of-zero sentinel.
LogValue = float

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF ``Phi(x)``, absolute error below 1e-14.

    Evaluated through the complementary error function so the far tails do
    not cancel: ``Phi(x) = erfc(-x / sqrt(2)) / 2``.

    Raises
    ------
    DomainError
        If ``x`` is not finite.
    """
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_log_cdf(x: float) -> LogValue:
    """``ln Phi(x)``, finite and accurate arbitrarily far into the left tail.

    Companion evaluation contract to :func:`std_normal_cdf` for the log
    domain; e.g. ``std_normal_log_cdf(-40.0)`` is about -804.6 where
    ``Phi(-40)`` itself is far below the subnormal range.
    """
    if not math.isfinite(x):
        raise DomainError(f"std_normal_log_cdf requires finite x, got {x!r}")
    return float(log_ndtr(x))
