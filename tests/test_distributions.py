"""Tests for the hooked power law and discretised lognormal evaluations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit.distributions import (
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    cdf_values,
    dln_cdf,
    dln_log_pmf,
    dln_quantile,
    hooked_cdf,
    hooked_log_norm,
    hooked_log_pmf,
    hooked_log_tail_mass,
    hooked_quantile,
    log_pmf_values,
)
from citefit.errors import DomainError, SupportRangeError
from citefit.numerics import LOG_ZERO, extended_sum_oracle

from oracles import direct_log_norm, dln_cdf_oracle, dln_pmf_oracle

LN_ZETA2_MINUS_1 = -0.4386071893521174  # ln(zeta(2) - 1)


class TestParams:
    def test_hooked_invariants(self):
        with pytest.raises(DomainError):
            HookedPowerLawParams(0.0, 1.0)
        with pytest.raises(DomainError):
            HookedPowerLawParams(2.0, -0.5)
        with pytest.raises(DomainError):
            HookedPowerLawParams(2.0, 1.0, 0)

    def test_lognormal_invariants(self):
        with pytest.raises(DomainError):
            DiscretisedLognormalParams(math.inf, 1.0)
        with pytest.raises(DomainError):
            DiscretisedLognormalParams(0.0, 1e-6)
        # negative location is legitimate (barely-cited outlets)
        DiscretisedLognormalParams(-7.23, 1.34)


@st.composite
def _norm_cases(draw):
    """(alpha, offset, N) over the fitting range, half of them with the exact
    head's length 2 alpha - B within a few terms of N."""
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.5, 1e4)))
    truncation = draw(st.integers(1, 200_000))
    if draw(st.booleans()):
        offset = draw(st.floats(0.0, 1e7))
    else:
        offset = min(1e7, max(0.0, 2.0 * alpha - truncation + draw(st.integers(-2, 2))))
    return alpha, offset, truncation


class TestHookedNorm:
    def test_tail_corrected_matches_zeta_closed_form(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        got = hooked_log_norm(params, tail_correction=True)
        assert got == pytest.approx(LN_ZETA2_MINUS_1, abs=1e-12)

    def test_agrees_with_extended_precision_oracle(self):
        for alpha, offset in ((1.5, 0.0), (5.0, 30.0), (77.0, 0.1), (100.0, 200.0)):
            params = HookedPowerLawParams(alpha, offset, 10000)
            fast = hooked_log_norm(params)
            slow = extended_sum_oracle(alpha, offset, 10000)
            assert fast == pytest.approx(slow, abs=1e-10)

    @pytest.mark.parametrize("alpha,offset", [(1.01, 0.0), (2.5, 40.0)])
    def test_agrees_with_oracle_at_its_size_limit(self, alpha, offset):
        # N = 1e5: the Euler-Maclaurin remainder carries nearly all the terms
        params = HookedPowerLawParams(alpha, offset, 100_000)
        assert hooked_log_norm(params) == pytest.approx(
            extended_sum_oracle(alpha, offset, 100_000), abs=1e-12)

    @given(_norm_cases())
    @example((1.0, 0.0, 200_000))     # alpha = 1: the integral is a logarithm
    @example((1.0, 3.0, 64))
    @example((0.5, 0.0, 65))          # exact head of 64 terms plus a remainder of one
    @example((2.5, 0.0, 63))          # N <= 64: exact head only
    @example((600.0, 200.0, 1000))    # head length 2 alpha - B = N
    @example((600.0, 201.0, 1000))    # head length 2 alpha - B = N - 1
    @example((1e4, 1e7, 200_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_sum(self, case):
        alpha, offset, truncation = case
        params = HookedPowerLawParams(alpha, offset, truncation)
        assert hooked_log_norm(params) == pytest.approx(
            direct_log_norm(alpha, offset, truncation), abs=1e-10)

    def test_extreme_exponent_first_term_dominates(self):
        params = HookedPowerLawParams(10000.0, 0.0, 10000)
        # sum = 1 + 2^-10000 + ... so its log is indistinguishable from 0
        assert hooked_log_norm(params) == pytest.approx(0.0, abs=1e-15)

    def test_huge_offset_stays_finite(self):
        params = HookedPowerLawParams(10000.0, 1e9, 10000)
        assert math.isfinite(hooked_log_norm(params))

    def test_tail_mass_requires_alpha_above_one(self):
        with pytest.raises(DomainError):
            hooked_log_tail_mass(HookedPowerLawParams(1.0, 0.0, 100))

    def test_tail_correction_inert_at_or_below_one(self):
        # the tail integral diverges for alpha <= 1: correction requested but
        # not applied, leaving the truncated normalization
        params = HookedPowerLawParams(0.9, 2.0, 5000)
        assert hooked_log_norm(params, tail_correction=True) == hooked_log_norm(params)


class TestHookedPmf:
    def test_head_value_closed_form(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        got = hooked_log_pmf(1, params, tail_correction=True)
        assert got == pytest.approx(math.log(0.25) - LN_ZETA2_MINUS_1, abs=1e-12)

    def test_strictly_decreasing(self):
        for alpha, offset in ((0.5, 0.0), (2.0, 1.0), (77.0, 30.0), (10000.0, 1e5)):
            params = HookedPowerLawParams(alpha, offset, 1000)
            logp = log_pmf_values(params, np.arange(1, 1001))
            assert np.all(np.diff(logp) < 0)

    def test_extreme_exponent_concentrates_at_one(self):
        params = HookedPowerLawParams(10000.0, 0.0, 10000)
        assert hooked_log_pmf(1, params) == pytest.approx(0.0, abs=1e-15)

    def test_sums_to_one_over_truncated_support(self):
        params = HookedPowerLawParams(2.0, 1.0, 2000)
        total = np.exp(log_pmf_values(params, np.arange(1, 2001))).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_support_range_error_signals_truncation(self):
        params = HookedPowerLawParams(2.0, 1.0, 100)
        with pytest.raises(SupportRangeError):
            hooked_log_pmf(101, params)
        with pytest.raises(DomainError):
            hooked_log_pmf(0, params)

    def test_offset_shift_reparameterization(self):
        # (B + n) = ((B + 1) + (n - 1)): shifting the offset up by one and the
        # support down by one changes nothing but the normalization constant
        a = HookedPowerLawParams(3.5, 2.0, 5000)
        b = HookedPowerLawParams(3.5, 3.0, 5000)
        ns = np.arange(2, 1500)
        deltas = log_pmf_values(a, ns) - log_pmf_values(b, ns - 1)
        assert np.allclose(deltas, deltas[0], atol=1e-12)


class TestHookedCdf:
    def test_full_support_reaches_one(self):
        for alpha, offset in ((1.5, 0.0), (5.0, 30.0), (10000.0, 0.0)):
            params = HookedPowerLawParams(alpha, offset, 10000)
            assert hooked_cdf(10000, params) == pytest.approx(1.0, abs=1e-12)

    def test_single_term_prefix(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        assert hooked_cdf(1, params) == pytest.approx(
            math.exp(hooked_log_pmf(1, params)), abs=1e-14)

    def test_two_term_value_closed_form(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        got = hooked_cdf(2, params, tail_correction=True)
        # (1/4 + 1/9) / (zeta(2) - 1)
        assert got == pytest.approx(0.5599194238193221, abs=1e-12)

    def test_monotone_and_bounded(self):
        params = HookedPowerLawParams(1.2, 3.0, 10000)
        table = cdf_values(params, np.arange(1, 10001))
        assert np.all(np.diff(table) >= 0)
        assert table[-1] <= 1.0

    def test_quantile_inverts_cdf(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        for q in (0.01, 0.5, 0.99, 1 - 1e-9):
            n = hooked_quantile(params, q)
            assert hooked_cdf(n, params) >= q
            if n > 1:
                assert hooked_cdf(n - 1, params) < q


class TestDlnPmf:
    def test_unit_lognormal_head_matches_quadrature(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        # frozen from dln_pmf_oracle(1, 0, 1)
        assert math.exp(dln_log_pmf(1, params)) == pytest.approx(
            0.5468028494504845, abs=1e-12)

    @pytest.mark.parametrize("mu,sigma,n", [
        (0.0, 1.0, 2), (0.0, 0.2, 10), (3.0, 2.0, 10), (3.0, 1.0, 100),
        (-7.0, 1.0, 2), (-7.0, 0.2, 1),
    ])
    def test_matches_quadrature_oracle(self, mu, sigma, n):
        params = DiscretisedLognormalParams(mu, sigma)
        assert math.exp(dln_log_pmf(n, params)) == pytest.approx(
            dln_pmf_oracle(n, mu, sigma), rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("mu,sigma,n", [(-10.0, 1.6, 1), (-9.5, 1.7, 2)])
    def test_central_pair_right_of_centre_does_not_cancel(self, mu, sigma, n):
        # zlo just below the tail switch at 6, where Phi(zlo) is within 3e-9 of 1
        got = dln_log_pmf(n, DiscretisedLognormalParams(mu, sigma))
        assert got == pytest.approx(math.log(dln_pmf_oracle(n, mu, sigma)), abs=1e-12)

    def test_far_tail_relative_accuracy(self):
        # a mass of ~1.4e-82 must come back to near-full relative precision,
        # not merely within an absolute tolerance
        params = DiscretisedLognormalParams(-7.0, 0.2)
        assert math.exp(dln_log_pmf(2, params)) == pytest.approx(
            1.4122143636404926e-82, rel=1e-9)

    def test_tail_degeneracy_finite_or_sentinel(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        value = dln_log_pmf(10**6, params)
        assert not math.isnan(value)
        assert value < -50 or value == LOG_ZERO
        # far deeper still: stays finite in the log domain, never invalid
        deep = dln_log_pmf(10**6, DiscretisedLognormalParams(0.0, 0.1))
        assert not math.isnan(deep)
        assert deep < -9000

    def test_underflowed_difference_returns_sentinel(self):
        # at n = 1e16 the interval endpoints n -/+ 0.5 are the same double, so
        # the CDF difference vanishes; that must surface as the sentinel, not
        # as NaN or a positive mass
        params = DiscretisedLognormalParams(0.0, 1.0)
        assert dln_log_pmf(10**16, params) == LOG_ZERO

    def test_normalizes_with_analytic_tail(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        top = dln_quantile(params, 1 - 1e-12)
        total = np.exp(log_pmf_values(params, np.arange(1, top + 1))).sum()
        assert total + (1.0 - dln_cdf(top, params)) == pytest.approx(1.0, abs=1e-9)

    def test_at_most_one_interior_mode(self):
        for mu in (-2.0, 0.0, 1.5, 3.0):
            for sigma in (0.2, 0.7, 1.0, 2.0):
                params = DiscretisedLognormalParams(mu, sigma)
                top = max(dln_quantile(params, 0.999), 3)
                logp = log_pmf_values(params, np.arange(1, top + 1))
                rises = np.diff(logp) > 0
                # once the sequence starts falling it never rises again
                falls = np.where(~rises)[0]
                if falls.size:
                    assert not np.any(rises[falls[0]:])

    def test_support_starts_at_one(self):
        with pytest.raises(DomainError):
            dln_log_pmf(0, DiscretisedLognormalParams(0.0, 1.0))


class TestDlnCdf:
    def test_base_case_equals_pmf(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        assert dln_cdf(1, params) == pytest.approx(
            math.exp(dln_log_pmf(1, params)), abs=1e-14)

    def test_value_matches_quadrature(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        # frozen from dln_cdf_oracle(2, 0, 1)
        assert dln_cdf(2, params) == pytest.approx(0.7621917475267450, abs=1e-12)
        assert dln_cdf(2, params) == pytest.approx(dln_cdf_oracle(2, 0.0, 1.0),
                                                   abs=1e-12)

    def test_reaches_one_at_far_quantile(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        top = dln_quantile(params, 1 - 1e-12)
        assert dln_cdf(top, params) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=2, max_value=2000),
           st.floats(min_value=-2.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=2.5))
    @settings(max_examples=60, deadline=None)
    def test_telescoping(self, n, mu, sigma):
        params = DiscretisedLognormalParams(mu, sigma)
        step = dln_cdf(n, params) - dln_cdf(n - 1, params)
        assert step == pytest.approx(math.exp(dln_log_pmf(n, params)), abs=1e-12)

    def test_monotone_bounded(self):
        params = DiscretisedLognormalParams(1.0, 1.3)
        values = cdf_values(params, np.arange(1, 3000))
        assert np.all(np.diff(values) >= 0)
        assert np.all((values >= 0) & (values <= 1))
