"""Numerically stable primitives and the package's precision policy.

Every probability-space sum in this package is carried out in the natural-log
domain with the maximum term factored out, so quantities far below the
smallest positive normal double (1e-308) remain exactly representable as
finite log values.  This replaces the escalation to extended-precision
arithmetic that a naive direct summation of terms like ``(B + n)**(-alpha)``
would force for large exponents, at a fraction of the cost.

The normal distribution's tails come from one vectorized scaled
complementary error function, :func:`erfcx`, a piecewise polynomial in
``y = 4 / (4 + x)`` (S. G. Johnson's substitution in the Faddeeva package)
whose coefficients ``tests/gen_erfcx_table.py`` generates in mpmath
arithmetic.  It is accurate to about 1e-15 relative, and
``ln Phi(-x) = ln(erfcx(x / sqrt 2) / 2) - x**2 / 2`` never cancels.
Scalars go through :func:`math.erfc` where it does not underflow.
"""

from __future__ import annotations

import math

import numpy as np

from ._erfcx_table import COEFFS, INTERVALS
from .errors import DomainError

#: Exact representation of ln(0).  A legitimate value for probabilities that
#: underflow in probability space, never the silent result of an invalid
#: operation (those raise :class:`~citefit.errors.DomainError`).
LOG_ZERO = float("-inf")

#: A ``LogValue`` is a plain float holding the natural log of a non-negative
#: quantity; ``LOG_ZERO`` is the distinguished log-of-zero sentinel.
LogValue = float

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_COEFFS = tuple(np.array(column) for column in COEFFS)
# below this z, erfc(-z / sqrt 2) leaves the normal double range
_SCALAR_TAIL_Z = -37.0


def erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function ``exp(x**2) erfc(x)`` for
    ``x >= 0`` (``inf`` gives 0), within about 1e-15 relative.

    With ``t = INTERVALS * 4 / (4 + x)``, interval ``i = floor(t)`` holds a
    polynomial in ``v = t - i`` for ``erfcx(x) / t``.
    """
    t = (4.0 * INTERVALS) / (4.0 + np.asarray(x, dtype=np.float64))
    i = t.astype(np.intp)
    v = t - i
    # a NaN's index is clipped into the table, and the last factor t is NaN
    p = _COEFFS[-1].take(i, mode="clip")
    for column in _COEFFS[-2::-1]:
        p *= v
        p += column.take(i, mode="clip")
    p *= t
    return p


def log_ndtr(z: np.ndarray) -> np.ndarray:
    """``ln Phi(z)`` elementwise for finite ``z`` of any shape, within about
    2e-15 of ``max(1, |ln Phi(z)|)``.

    The lower tail is ``ln(erfcx(|z| / sqrt 2) / 2) - z**2 / 2``, so it stays
    finite far below the subnormal range; above zero the result is
    ``log1p(-Phi(-z))`` of the same tail.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0:  # the steps below work in place, on arrays
        return log_ndtr(z.reshape(1)).reshape(())
    x = np.abs(z)
    x *= _SQRT_HALF
    out = erfcx(x)
    out *= 0.5
    np.log(out, out=out)
    out -= x * x
    upper = z > 0.0
    if np.count_nonzero(upper):
        out[upper] = np.log1p(-np.exp(out[upper]))
    return out


def std_normal_log_cdf(x: float) -> LogValue:
    """``ln Phi(x)`` of the standard normal CDF ``Phi(x) = erfc(-x / sqrt 2) / 2``,
    finite and accurate arbitrarily far into the left tail.

    Accurate to that of :func:`log_ndtr`; e.g. ``std_normal_log_cdf(-40.0)``
    is about -804.6 where ``Phi(-40)`` itself is far below the subnormal
    range.  :func:`math.erfc` serves wherever it stays in the normal double
    range.
    """
    if not math.isfinite(x):
        raise DomainError(f"std_normal_log_cdf requires finite x, got {x!r}")
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x > _SCALAR_TAIL_Z:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    return float(log_ndtr(x))
