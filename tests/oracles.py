"""Slow independent oracles used to pin expected values in tests.

Everything here stays deliberately independent of the fast library paths it
validates.  The lognormal masses come from mpmath quadrature of the
continuous density, not from normal-CDF differences; the hooked
normalization reference sums every term in doubles, not through the
library's Euler-Maclaurin remainder.

Quadrature caveat: these integrands can decay by hundreds of orders of
magnitude across one interval (a boundary layer at the edge nearest the
density mode).  A single tanh-sinh pass silently loses several digits there,
so intervals are subdivided with points clustered around the mode, doubling
outward, before integrating piece by piece.
"""

import math

import mpmath as mp
import numpy as np


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
