"""Model comparison: log-likelihood totals, the Vuong test and the
L / L* / H / H* winner labels.

The Vuong statistic is oriented so that positive z favors the hooked power
law and negative z the discretised lognormal; a star marks |z| beyond the
significance threshold (default 1.96, two-sided 5%).
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import ModelParams, log_pmf_values
from .errors import DomainError
from .fitting import CitationDataset, _compressed

DEFAULT_Z_THRESHOLD = 1.96


class Winner(Enum):
    L = "L"
    L_STAR = "L*"
    H = "H"
    H_STAR = "H*"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class ComparisonResult:
    """Paired fit comparison; ``vuong_z`` and ``p_two_sided`` are NaN when the
    pointwise variance of the log-likelihood ratios is zero or undefined."""

    ll_lognormal: float
    ll_hooked: float
    vuong_z: float
    p_two_sided: float
    winner: Winner
    n_articles: int


def total_log_likelihood(ds: CitationDataset, params: ModelParams) -> float:
    """Sum of per-article log probabilities, taken as the fits take it.

    The model is evaluated once per distinct count and each term weighted by
    its multiplicity, so the cost follows the number of distinct counts, not
    of articles.  The total is ``-inf`` (with a warning naming the offending
    counts) when some count has underflowed to the log-of-zero sentinel under
    the model.
    """
    values, mult = _compressed(ds)
    terms = log_pmf_values(params, values)
    zero = np.isneginf(terms)
    if zero.any():
        _warnings.warn(
            f"{ds.label}: zero model probability at counts "
            f"{ds.distinct[0][zero].tolist()}; total log-likelihood is -inf",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(mult @ terms)


def classify_winner(z: float, significant_threshold: float = DEFAULT_Z_THRESHOLD) -> Winner:
    """Label the better-fitting model from the Vuong z statistic.

    Beyond the threshold the win is starred; inside it the label follows the
    sign alone, with z = 0 (and exactly-threshold values) counted as an
    unstarred lognormal tie.
    """
    if not significant_threshold > 0:
        raise DomainError(
            f"significance threshold must be positive, got {significant_threshold!r}"
        )
    if not math.isfinite(z):
        return Winner.UNDEFINED
    if z < -significant_threshold:
        return Winner.L_STAR
    if z > significant_threshold:
        return Winner.H_STAR
    return Winner.H if z > 0 else Winner.L


def vuong_test(
    ds: CitationDataset,
    hooked_params: ModelParams,
    lognormal_params: ModelParams,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> ComparisonResult:
    """Non-nested model comparison via pointwise log-likelihood ratios.

    With ``m_i`` the per-article log-likelihood difference (hooked minus
    lognormal), ``z = sum(m) / (sqrt(n) * sd(m))`` using the sample standard
    deviation.  Both models carry two free parameters, so no degrees-of-
    freedom correction is applied.  The numerator is the difference of the
    two total log-likelihoods, summed as the fits sum them, so at fitted
    parameters the reported totals are the fits' own and ``sign(z)`` follows
    them exactly.

    If the models are pointwise indistinguishable on the data (zero variance),
    or there are fewer than 2 articles, the winner is ``UNDEFINED`` and no z
    is reported.

    Each model is evaluated once per distinct count, and the totals and the
    variance weight each distinct count by its multiplicity.
    """
    n = len(ds)
    values, mult = _compressed(ds)
    lp_h = log_pmf_values(hooked_params, values)
    lp_l = log_pmf_values(lognormal_params, values)
    ll_h = float(mult @ lp_h)
    ll_l = float(mult @ lp_l)
    m = lp_h - lp_l
    if n < 2 or not np.all(np.isfinite(m)):
        return ComparisonResult(ll_l, ll_h, float("nan"), float("nan"),
                                Winner.UNDEFINED, n)
    # measured from the first difference, so equal differences (one distinct
    # count, or models that agree pointwise) give exactly zero variance
    dev = m - m[0]
    dev -= float(mult @ dev) / n
    s_m = math.sqrt(float(mult @ (dev * dev)) / (n - 1))
    if s_m == 0.0:
        return ComparisonResult(ll_l, ll_h, float("nan"), float("nan"),
                                Winner.UNDEFINED, n)
    z = (ll_h - ll_l) / (math.sqrt(n) * s_m)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return ComparisonResult(ll_l, ll_h, z, p, classify_winner(z, z_threshold), n)
