"""Tests for the hooked power law and discretised lognormal evaluations."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit.distributions import (
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    _exp_moments,
    _hooked_head,
    _hooked_ll_derivatives,
    _hooked_remainder,
    _hooked_remainder_derivatives,
    cdf_values,
    dln_quantile,
    hooked_log_norm,
    log_pmf_values,
)
from citefit.errors import DomainError, SupportRangeError
from citefit.numerics import LOG_ZERO, log_ndtr, std_normal_log_cdf

from oracles import (direct_log_norm, dln_cdf_oracle, dln_pmf_oracle, extended_sum_oracle,
                     hooked_cdf_oracle, hooked_ll_derivatives_oracle, hurwitz_zeta,
                     reference_hooked_cdf, reference_hooked_log_norm,
                     reference_hooked_log_pmf)

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
        params = HookedPowerLawParams(2.0, 1.0, 10000, tail_correction=True)
        got = hooked_log_norm(params)
        assert got == pytest.approx(LN_ZETA2_MINUS_1, abs=1e-14)

    @pytest.mark.parametrize("truncation, alphas, offsets", [
        (10_000, (1.001, 1.01, 1.05, 1.2, 1.35, 1.5, 2.0, 2.5, 7.7),
         (0.0, 1.0, 5.0, 30.0, 175.4, 1e3, 1e6)),
        (50, (1.001, 1.2, 2.0, 7.7, 30.0), (0.0, 5.0, 175.4, 1e6)),
        (1_000_000, (1.001, 1.2, 2.0, 7.7), (0.0, 5.0, 175.4, 1e6)),
    ])
    def test_tail_corrected_is_hurwitz_zeta(self, truncation, alphas, offsets):
        # the untruncated sum, whatever N is: within 1e-14, or one unit in the
        # last place where ln zeta is large enough to have a coarser one
        for alpha in alphas:
            for offset in offsets:
                got = hooked_log_norm(HookedPowerLawParams(alpha, offset, truncation, True))
                with mp.workdps(40):
                    want = float(mp.log(hurwitz_zeta(alpha, offset + 1.0)))
                assert abs(got - want) <= max(1e-14, math.ulp(want)), (alpha, offset, got, want)

    @pytest.mark.parametrize("alpha, offset", [(1.0000001, 1e300), (1.5, 5e306), (1.5, 1e308)])
    def test_tail_corrected_far_out(self, alpha, offset):
        # the sum over its first term passes 1e307, and is counted in units of
        # e**500: the first log mass stays exact, minus ln(zeta(alpha, B + 1) (B + 1)**alpha)
        params = HookedPowerLawParams(alpha, offset, 10_000, tail_correction=True)
        with mp.workdps(40):
            b1 = mp.mpf(offset) + 1
            want = -float(mp.log(hurwitz_zeta(alpha, b1) * b1 ** alpha))
        assert log_pmf_values(params, [1])[0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("alpha, offset, truncation", [
        (1e4, 0.0, 10_000), (150.0, 0.0, 1), (70.0, 5.0, 1_000_000), (1e4, 9e3, 50),
        (10.90510627337405, 0.016070528182616384, 1),  # the largest bound in a scan
    ])
    def test_dropped_infinite_tail_is_below_the_last_bit(self, alpha, offset, truncation):
        # where the head stops at the drop point K, the untruncated sum's tail
        # past it is below f(K) (1 + (B + K) / (alpha - 1)), and that lies
        # below the last bit of the head, which holds the first term, 1
        head, end, _ = _hooked_head(alpha, offset, truncation, untruncated=True)
        assert end == 0
        with mp.workdps(40):
            a, b1 = mp.mpf(alpha), mp.mpf(offset) + 1
            f_k = ((b1 - 1 + head) / b1) ** -a
            bound = f_k * (1 + (b1 - 1 + head) / (a - 1))
            tail = hurwitz_zeta(a, b1 + head) / b1 ** -a
            assert tail <= bound < 0.5 * math.ulp(1.0)

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

    @pytest.mark.parametrize("alpha", [1e308, float(np.finfo(np.float64).max)])
    def test_exponent_near_float_max(self, alpha):
        # 2 alpha - B overflows to inf: all mass sits at 1, and every other
        # log mass is -alpha ln((B + n) / (B + 1)), still finite at n = 2
        for offset in (0.0, 1.0):
            params = HookedPowerLawParams(alpha, offset)
            with np.errstate(all="raise"):
                logp = log_pmf_values(params, np.array([1, 2]))
            assert logp[0] == 0.0
            assert logp[1] == -alpha * math.log((offset + 2.0) / (offset + 1.0))
            assert hooked_log_norm(params) == -alpha * math.log(offset + 1.0)

    def test_huge_offset_stays_finite(self):
        params = HookedPowerLawParams(10000.0, 1e9, 10000)
        assert math.isfinite(hooked_log_norm(params))

    def test_tail_correction_inert_at_or_below_one(self):
        # the sum to infinity diverges for alpha <= 1: correction requested
        # but not applied, leaving the truncated normalization
        params = HookedPowerLawParams(0.9, 2.0, 5000)
        assert hooked_log_norm(replace(params, tail_correction=True)) == hooked_log_norm(params)


class TestHookedPmf:
    def test_head_value_closed_form(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000, tail_correction=True)
        got = log_pmf_values(params, [1])[0]
        assert got == pytest.approx(math.log(0.25) - LN_ZETA2_MINUS_1, abs=1e-12)

    def test_strictly_decreasing(self):
        for alpha, offset in ((0.5, 0.0), (2.0, 1.0), (77.0, 30.0), (10000.0, 1e5)):
            params = HookedPowerLawParams(alpha, offset, 1000)
            logp = log_pmf_values(params, np.arange(1, 1001))
            assert np.all(np.diff(logp) < 0)

    @pytest.mark.parametrize("alpha, offset", [(10000.0, 530000.0), (9655.2, 513161.2)])
    def test_log_mass_exact_where_alpha_ln_offset_is_large(self, alpha, offset):
        # on the capped alpha-B ridge alpha ln(B + 1) is about 1.3e5, whose
        # ulp is 1.5e-11; each log mass must still be exact to 1e-12
        import mpmath

        params = HookedPowerLawParams(alpha, offset, 2000)
        ns = np.array([1, 2, 50, 700, 2000])
        with mpmath.workdps(40):
            a, b = mpmath.mpf(alpha), mpmath.mpf(offset)
            log_norm = mpmath.ln(mpmath.fsum((b + k) ** -a for k in range(1, 2001)))
            want = [float(-a * mpmath.ln(b + n) - log_norm) for n in ns]
        assert np.max(np.abs(log_pmf_values(params, ns) - want)) <= 1e-12

    def test_extreme_exponent_concentrates_at_one(self):
        params = HookedPowerLawParams(10000.0, 0.0, 10000)
        assert log_pmf_values(params, [1])[0] == pytest.approx(0.0, abs=1e-15)

    def test_sums_to_one_over_truncated_support(self):
        params = HookedPowerLawParams(2.0, 1.0, 2000)
        total = np.exp(log_pmf_values(params, np.arange(1, 2001))).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_support_range_error_signals_truncation(self):
        params = HookedPowerLawParams(2.0, 1.0, 100)
        with pytest.raises(SupportRangeError):
            log_pmf_values(params, [101])
        with pytest.raises(DomainError):
            log_pmf_values(params, [0])

    def test_offset_shift_reparameterization(self):
        # (B + n) = ((B + 1) + (n - 1)): shifting the offset up by one and the
        # support down by one changes nothing but the normalization constant
        a = HookedPowerLawParams(3.5, 2.0, 5000)
        b = HookedPowerLawParams(3.5, 3.0, 5000)
        ns = np.arange(2, 1500)
        deltas = log_pmf_values(a, ns) - log_pmf_values(b, ns - 1)
        assert np.allclose(deltas, deltas[0], atol=1e-12)


# exponents and offsets spread over their whole ranges, small values included
_ALPHAS = st.one_of(st.floats(1.01, 20.0), st.floats(1.01, 1e4),
                    st.sampled_from([1.01, 1.5, 1000.0, 9999.5, 1e4]))
_OFFSETS = st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e4), st.floats(0.0, 1e9),
                     st.sampled_from([0.0, 1.0, 1e9]))
_TRUNCATIONS = st.one_of(st.integers(64, 1000), st.integers(64, 100_000))


class TestHookedBitIdentity:
    """The in-place hooked evaluation equals the one-expression form in
    ``oracles`` exactly."""

    @given(_ALPHAS, _OFFSETS, _TRUNCATIONS, st.booleans(), st.data())
    @example(1e4, 0.0, 10000, False, None)      # the grid corner: terms underflow
    @example(1e4, 0.0, 10000, True, None)
    @example(1.01, 0.0, 100_000, True, None)    # the longest head
    @example(1e4, 1e9, 64, False, None)
    @example(1010.0, 0.0, 10000, False, None)   # the last head term just below exp(-700)
    @example(1009.0, 0.0, 10000, False, None)   # ... and just above
    @settings(max_examples=300, deadline=None)
    def test_log_pmf_values_and_norm(self, alpha, offset, truncation, tail, data):
        params = HookedPowerLawParams(alpha, offset, truncation, tail)
        if data is None:
            ns = np.unique(np.geomspace(1, truncation, 200).astype(np.int64))
        else:
            ns = np.array(data.draw(st.lists(st.integers(1, truncation), min_size=1,
                                             max_size=300)))
        for support in (ns, ns.astype(np.float64), np.asarray(ns[-1])):
            got = log_pmf_values(params, support)
            assert np.array_equal(
                got, reference_hooked_log_pmf(support, alpha, offset, truncation, tail))
        assert hooked_log_norm(params) == reference_hooked_log_norm(
            alpha, offset, truncation, tail)

    @pytest.mark.parametrize("writable", [False, True])
    def test_input_neither_mutated_nor_aliased(self, writable):
        ns = np.arange(1.0, 300.0)
        ns.setflags(write=writable)
        got = log_pmf_values(HookedPowerLawParams(2.5, 3.0, 1000), ns)
        assert np.array_equal(ns, np.arange(1.0, 300.0))
        assert not np.shares_memory(got, ns)

    def test_underflow_stays_silent_when_errors_raise(self):
        params = HookedPowerLawParams(10000.0, 0.0, 10000)
        with np.errstate(all="raise"):
            logp = log_pmf_values(params, np.arange(1, 200))
            log_norm = hooked_log_norm(params)
        assert np.all(np.isfinite(logp)) and math.isfinite(log_norm)
        assert logp[0] == 0.0 and log_norm == 0.0

    @pytest.mark.parametrize("alpha, offset", [(2.0, 1e306), (1e-310, 5.0), (1e-290, 1e9)])
    def test_normalization_quiet_where_its_terms_underflow(self, alpha, offset):
        # k / (B + 1), or alpha times its logarithm, leaves the normal range
        with np.errstate(all="raise"):
            log_norm = hooked_log_norm(HookedPowerLawParams(alpha, offset, 100))
        assert log_norm == reference_hooked_log_norm(alpha, offset, 100)


# the whole admissible range: exponents down to subnormal ones, offsets past
# 1e300 where k / (B + 1) leaves the normal range, and every kind of head
_KERNEL_ALPHAS = st.one_of(st.floats(1e-310, 1e4), st.floats(0.5, 50.0),
                           st.sampled_from([1e-310, 1e-300, 1.0, 1.01, 1e4]))
_KERNEL_OFFSETS = st.one_of(st.floats(0.0, 1e9), st.floats(1e300, 1e308),
                            st.sampled_from([0.0, 1e9, 1e300]))


class TestHookedOnePass:
    """The one-pass kernel (normalization, log masses and CDF table from one
    buffer) equals the two-pass forms in ``oracles`` bit for bit, and keeps
    quiet where their terms underflow."""

    @given(_KERNEL_ALPHAS, _KERNEL_OFFSETS, st.sampled_from([1, 64, 10_000, 1_000_000]),
           st.booleans(), st.data())
    @example(1e-310, 5.0, 64, False, None)
    @example(1e4, 1e300, 10_000, True, None)
    @example(1e-300, 1e308, 1_000_000, True, None)
    @example(2.0, 0.0, 1, True, None)
    @example(1.5, 5e306, 10_000, True, None)    # the sum to infinity in units of e**500
    @example(1e4, 0.0, 10_000, False, None)     # the grid corner: head terms underflow
    @settings(max_examples=300, deadline=None)
    def test_matches_two_pass_forms(self, alpha, offset, truncation, tail, data):
        params = HookedPowerLawParams(alpha, offset, truncation, tail)
        if data is None:
            ns = np.unique(np.geomspace(1, truncation, 100).astype(np.int64))
        else:
            ns = np.array(data.draw(st.lists(st.integers(1, truncation), min_size=1,
                                             max_size=100)))
        with np.errstate(under="ignore"):  # the references underflow quietly ...
            want_logp = reference_hooked_log_pmf(ns, alpha, offset, truncation, tail)
            want_norm = reference_hooked_log_norm(alpha, offset, truncation, tail)
        with np.errstate(under="raise"):  # ... and so must the kernel
            logp = log_pmf_values(params, ns)
            log_norm = hooked_log_norm(params)
        assert logp.tobytes() == want_logp.tobytes()
        assert np.float64(log_norm).tobytes() == np.float64(want_norm).tobytes()
        if ns.max() <= 10_000:  # the table runs to the largest point
            with np.errstate(under="raise"):
                cdf = cdf_values(params, ns)
            want_cdf = reference_hooked_cdf(ns, alpha, offset, truncation, tail)
            assert cdf.tobytes() == want_cdf.tobytes()


_DERIV_VALUES = np.array([1.0, 2, 3, 5, 8, 13, 40, 100, 700, 3000])
_DERIV_MULT = np.array([50.0, 30, 20, 12, 9, 5, 4, 2, 1, 1])


def _hooked_derivatives(params, values=_DERIV_VALUES, mult=_DERIV_MULT):
    return _hooked_ll_derivatives(values, mult, params)


def _five_point(f, x, h):
    """Five-point central differences of ``f`` (a number or a sequence) along
    each coordinate of ``x``."""
    def at(i, k):
        y = list(x)
        y[i] += k * h
        return np.asarray(f(*y))

    return [(at(i, -2) - 8 * at(i, -1) + 8 * at(i, 1) - at(i, 2)) / (12 * h) for i in (0, 1)]


class TestHookedDerivatives:
    """The hooked log-likelihood's exact gradient and Hessian in
    ``(ln alpha, ln(B + 1))``: one head pass, and the remainder, to N or to
    infinity, differentiated analytically."""

    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("alpha, offset, truncation", [
        (1.05, 3.0, 1_000_000),         # far tail: the remainder carries most of the mass
        (1.0000001, 2.0, 10_000),       # just above alpha = 1, where the sum to infinity diverges
        (0.9999999, 2.0, 10_000),       # just below: the integral's exponent is near 0
        (0.3, 0.0, 10_000),
        (10000.0, 5e5, 10_000),         # on the cap, out along the ridge
        (10000.0, 0.0, 10_000),         # on the cap at B = 0: a head of two terms
    ])
    def test_matches_zeta_oracle(self, alpha, offset, truncation, tail):
        params = HookedPowerLawParams(alpha, offset, truncation, tail)
        grad, hess = _hooked_derivatives(params)
        want_grad, want_hess = hooked_ll_derivatives_oracle(
            _DERIV_VALUES.tolist(), _DERIV_MULT.tolist(), alpha, offset, truncation, tail)
        for got, want in ((grad, want_grad), (hess, want_hess)):
            scale = max(max(map(abs, want)), 1.0)
            assert all(abs(a - b) <= 1e-10 * scale for a, b in zip(got, want)), (got, want)

    @pytest.mark.parametrize("alpha, offset, head, truncation", [
        (2.5, 10.0, 64, 10_000),        # exponent (1 - alpha) u of the integral below -1
        (1.0 + 1e-9, 2.0, 64, 10_000),  # near 0: the series branch of _exp_moments
        (0.3, 0.0, 64, 10_000),
        (60.0, 3000.0, 64, 10_000),
        (10000.0, 5e5, 64, 10_000),
        (2.0, 1e6, 64, 1_000_000),
    ])
    def test_remainder_matches_differences(self, alpha, offset, head, truncation):
        def remainder(x0, y):
            return _hooked_remainder(math.exp(x0), math.expm1(y), head, truncation)

        def gradient(x0, y):
            return _hooked_remainder_derivatives(math.exp(x0), math.expm1(y), head, truncation)[0]

        x = [math.log(alpha), math.log1p(offset)]
        grad, (h00, h01, h11) = _hooked_remainder_derivatives(alpha, offset, head, truncation)
        numeric = _five_point(remainder, x, 1e-3)
        scale = max(abs(float(numeric[0])), abs(float(numeric[1])), 1e-300)
        assert all(abs(a - float(n)) <= 1e-8 * scale for a, n in zip(grad, numeric))
        (n00, n01), (n10, n11) = _five_point(gradient, x, 1e-3)
        scale = max(abs(n00), abs(n01), abs(n11), 1e-300)
        for a, n in ((h00, n00), (h01, n01), (h01, n10), (h11, n11)):
            assert abs(a - n) <= 1e-8 * scale, (a, n)

    @pytest.mark.parametrize("s", [-800.0, -50.0, -1.0, -0.999, -1e-9, 0.0, 1e-9, 0.5, 1.0, 20.0])
    def test_exp_moments(self, s):
        with mp.workdps(40):
            want = [mp.quad(lambda v: v ** i * mp.exp(s * v), [0, 1]) for i in (0, 1, 2)]
        assert _exp_moments(s) == pytest.approx([float(w) for w in want], rel=4e-16)

    def test_continuous_at_alpha_one(self):
        # the integral's exponent (1 - alpha) u crosses 0, where its closed
        # forms switch to the series
        below = _hooked_derivatives(HookedPowerLawParams(1.0 - 1e-12, 5.0))
        above = _hooked_derivatives(HookedPowerLawParams(1.0 + 1e-12, 5.0))
        for a, b in zip(below[0] + below[1], above[0] + above[1]):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    @given(_KERNEL_ALPHAS, _KERNEL_OFFSETS, st.sampled_from([1, 64, 10_000, 1_000_000]),
           st.booleans())
    @example(1e4, 0.0, 10_000, False)     # the grid corner: head terms underflow
    @example(1e-310, 1e308, 1_000_000, True)
    @example(1.5, 4.9935920412842106e306, 1, True)  # the remainder to infinity past 1e307
    @settings(max_examples=200, deadline=None)
    def test_finite_and_quiet_over_the_admissible_range(self, alpha, offset, truncation, tail):
        params = HookedPowerLawParams(alpha, offset, truncation, tail)
        values = np.unique(np.geomspace(1, truncation, 50).astype(np.int64)).astype(np.float64)
        with np.errstate(all="raise"):
            grad, hess = _hooked_derivatives(params, values, np.ones_like(values))
        assert all(map(math.isfinite, grad + hess)), (grad, hess)

    @pytest.mark.parametrize("tail", [False, True])
    def test_head_and_remainder_meet(self, monkeypatch, tail):
        # where the remainder starts one term later, the derivatives agree
        import citefit.distributions as module

        params = HookedPowerLawParams(2.5, 10.0, tail_correction=tail)
        want = _hooked_derivatives(params)
        head, end, unit = _hooked_head(2.5, 10.0, 10_000, tail)
        assert end
        monkeypatch.setattr(module, "_hooked_head", lambda *args: (head + 1, end, unit))
        got = _hooked_derivatives(params)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-12)


class TestHookedCdf:
    def test_full_support_reaches_one(self):
        for alpha, offset in ((1.5, 0.0), (5.0, 30.0), (10000.0, 0.0)):
            params = HookedPowerLawParams(alpha, offset, 10000)
            assert cdf_values(params, [10000])[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_term_prefix(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        assert cdf_values(params, [1])[0] == pytest.approx(
            math.exp(log_pmf_values(params, [1])[0]), abs=1e-14)

    def test_two_term_value_closed_form(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000, tail_correction=True)
        got = cdf_values(params, [2])[0]
        # (1/4 + 1/9) / (zeta(2) - 1)
        assert got == pytest.approx(0.5599194238193221, abs=1e-12)

    def test_monotone_and_bounded(self):
        params = HookedPowerLawParams(1.2, 3.0, 10000)
        table = cdf_values(params, np.arange(1, 10001))
        assert np.all(np.diff(table) >= 0)
        assert table[-1] <= 1.0

    @pytest.mark.parametrize("alpha, offset", [(10000.0, 730808.14), (7.7, 175.4)])
    def test_matches_extended_precision(self, alpha, offset):
        # the first is a fit on the exponent cap (Cancer Research in the
        # seed-21 reference corpus), where alpha ln(B + n) is about 1.35e5:
        # masses formed as -alpha ln(B + n) - ln Z lose 1.5e-11 there
        params = HookedPowerLawParams(alpha, offset, 10000)
        got = cdf_values(params, np.arange(1, 10001))
        assert np.max(np.abs(got - hooked_cdf_oracle(alpha, offset, 10000))) <= 1e-14

    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("alpha, offset", [(1.2, 3.0), (10000.0, 730808.14)])
    def test_points_equal_full_table_entries(self, alpha, offset, tail):
        # the running sum stops at the largest point asked for, and each of
        # its entries is bit for bit the entry of the full-support table
        params = HookedPowerLawParams(alpha, offset, 10000, tail)
        full = cdf_values(params, np.arange(1, 10001))
        for ns in ([1], [7, 7, 2], [350, 1, 4096], [9999, 3], [10000]):
            ns = np.array(ns)
            assert cdf_values(params, ns).tobytes() == full[ns - 1].tobytes()

    def test_no_process_wide_cache(self):
        import citefit.distributions as module

        cached = [name for name, value in vars(module).items()
                  if hasattr(value, "cache_info")]
        assert cached == []


class TestDlnPmf:
    def test_unit_lognormal_head_matches_quadrature(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        # frozen from dln_pmf_oracle(1, 0, 1)
        assert math.exp(log_pmf_values(params, [1])[0]) == pytest.approx(
            0.5468028494504845, abs=1e-12)

    @pytest.mark.parametrize("mu,sigma,n", [
        (0.0, 1.0, 2), (0.0, 0.2, 10), (3.0, 2.0, 10), (3.0, 1.0, 100),
        (-7.0, 1.0, 2), (-7.0, 0.2, 1),
    ])
    def test_matches_quadrature_oracle(self, mu, sigma, n):
        params = DiscretisedLognormalParams(mu, sigma)
        assert math.exp(log_pmf_values(params, [n])[0]) == pytest.approx(
            dln_pmf_oracle(n, mu, sigma), rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("mu,sigma,n", [(-10.0, 1.6, 1), (-9.5, 1.7, 2)])
    def test_central_pair_right_of_centre_does_not_cancel(self, mu, sigma, n):
        # zlo just below the tail switch at 6, where Phi(zlo) is within 3e-9 of 1
        got = log_pmf_values(DiscretisedLognormalParams(mu, sigma), [n])[0]
        assert got == pytest.approx(math.log(dln_pmf_oracle(n, mu, sigma)), abs=1e-12)

    def test_far_tail_relative_accuracy(self):
        # a mass of ~1.4e-82 must come back to near-full relative precision,
        # not merely within an absolute tolerance
        params = DiscretisedLognormalParams(-7.0, 0.2)
        assert math.exp(log_pmf_values(params, [2])[0]) == pytest.approx(
            1.4122143636404926e-82, rel=1e-9)

    def test_tail_degeneracy_finite_or_sentinel(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        value = log_pmf_values(params, [10**6])[0]
        assert not math.isnan(value)
        assert value < -50 or value == LOG_ZERO
        # far deeper still: stays finite in the log domain, never invalid
        deep = log_pmf_values(DiscretisedLognormalParams(0.0, 0.1), [10**6])[0]
        assert not math.isnan(deep)
        assert deep < -9000

    def test_underflowed_difference_returns_sentinel(self):
        # at n = 1e16 the interval endpoints n -/+ 0.5 are the same double, so
        # the CDF difference vanishes; that must surface as the sentinel, not
        # as NaN or a positive mass
        params = DiscretisedLognormalParams(0.0, 1.0)
        assert log_pmf_values(params, [10**16])[0] == LOG_ZERO

    def test_normalizes_with_analytic_tail(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        top = dln_quantile(params, 1 - 1e-12)
        total = np.exp(log_pmf_values(params, np.arange(1, top + 1))).sum()
        assert total + (1.0 - cdf_values(params, [top])[0]) == pytest.approx(1.0, abs=1e-9)

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
            log_pmf_values(DiscretisedLognormalParams(0.0, 1.0), [0])


def _dln_survival_oracle(n, mu, sigma):
    """``1 - CDF(n)``, the upper normal tail at ``ln(n + 1/2)`` over the one at
    ``ln(1/2)``, in mpmath arithmetic."""
    with mp.workdps(50):
        def upper(x):
            return mp.erfc((mp.log(x) - mu) / (sigma * mp.sqrt(2))) / 2
        return upper(mp.mpf(n) + mp.mpf("0.5")) / upper(mp.mpf("0.5"))


def _doubling_quantile(params, q):
    """:func:`dln_quantile` as it found its bracket before, one scalar test
    per doubling from 1, then the same bisection."""
    z0 = (math.log(0.5) - params.mu) / params.sigma
    log_level = math.log1p(-q) + std_normal_log_cdf(-z0)

    def reached(n):
        return float(log_ndtr(-(math.log(n + 0.5) - params.mu) / params.sigma)) <= log_level

    lo, hi = 0, 1
    while not reached(hi):
        lo, hi = hi, 2 * hi
        if hi > 2**1020:
            raise DomainError("beyond float range")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


class TestDlnQuantile:
    @pytest.mark.parametrize("mu", [-4000.0, -100.0, -8.0, 0.0, 2.94, 30.0, 100.0, 800.0])
    @pytest.mark.parametrize("sigma", [1e-3, 0.4, 1.03, 10.0, 100.0])
    def test_matches_the_doubling_bracket(self, mu, sigma):
        # one vectorized test finds the bracket; the quantile is the one the
        # scalar doubling found, also where both run past float range
        params = DiscretisedLognormalParams(mu, sigma)
        for q in (1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-12):
            try:
                expected = _doubling_quantile(params, q)
            except DomainError:
                with pytest.raises(DomainError, match="beyond float range"):
                    dln_quantile(params, q)
            else:
                assert dln_quantile(params, q) == expected

    @pytest.mark.parametrize("mu, sigma, q", [
        (0.0, 1.0, 1 - 1e-12),
        (2.94, 1.03, 1 - 1e-12),
        (2.94, 1.03, 0.5),
        (-20.0, 1.5, 1 - 1e-12),   # z0 = 12.9: all mass deep in the upper tail
        (8.0, 0.4, 1 - 1e-12),     # z0 = -21.7: 1 - Phi(z0) rounds to 1
        (8.0, 0.4, 1e-12),
        # 1 - Phi(z0) underflows (4.8e-350 at mu = -4000), yet P(n = 1) = 0.356
        (-4000.0, 100.0, 0.3),
        (-4000.0, 100.0, 0.36),
        (-4000.0, 100.0, 0.9),
        (-4000.0, 100.0, 0.99),
        (-100.0, 1.0, 0.5),        # every draw is 1
        (-100.0, 1.0, 1 - 1e-12),
    ])
    def test_smallest_point_reaching_level(self, mu, sigma, q):
        n = dln_quantile(DiscretisedLognormalParams(mu, sigma), q)
        with mp.workdps(50):
            level = 1 - mp.mpf(q)
            assert _dln_survival_oracle(n, mu, sigma) <= level
            if n > 1:
                assert _dln_survival_oracle(n - 1, mu, sigma) > level

    def test_level_below_resolution_is_first_point(self):
        assert dln_quantile(DiscretisedLognormalParams(30.0, 2.0), 1e-300) == 1

    @pytest.mark.parametrize("q", [0.5, 1 - 1e-12])
    def test_point_beyond_float_range_is_domain_error(self, q):
        # exp(mu + sigma z) overflows past mu + sigma z = 709
        params = DiscretisedLognormalParams(800.0, 3.0)
        with pytest.raises(DomainError, match="beyond float range") as err:
            dln_quantile(params, q)
        assert str(params) in str(err.value)


class TestDlnCdf:
    def test_base_case_equals_pmf(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        assert cdf_values(params, [1])[0] == pytest.approx(
            math.exp(log_pmf_values(params, [1])[0]), abs=1e-14)

    def test_value_matches_quadrature(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        # frozen from dln_cdf_oracle(2, 0, 1)
        assert cdf_values(params, [2])[0] == pytest.approx(0.7621917475267450, abs=1e-12)
        assert cdf_values(params, [2])[0] == pytest.approx(dln_cdf_oracle(2, 0.0, 1.0),
                                                   abs=1e-12)

    def test_reaches_one_at_far_quantile(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        top = dln_quantile(params, 1 - 1e-12)
        assert cdf_values(params, [top])[0] == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=2, max_value=2000),
           st.floats(min_value=-2.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=2.5))
    @settings(max_examples=60, deadline=None)
    def test_telescoping(self, n, mu, sigma):
        params = DiscretisedLognormalParams(mu, sigma)
        step = cdf_values(params, [n])[0] - cdf_values(params, [n - 1])[0]
        assert step == pytest.approx(math.exp(log_pmf_values(params, [n])[0]), abs=1e-12)

    def test_monotone_bounded(self):
        params = DiscretisedLognormalParams(1.0, 1.3)
        values = cdf_values(params, np.arange(1, 3000))
        assert np.all(np.diff(values) >= 0)
        assert np.all((values >= 0) & (values <= 1))


class TestVectorizedSupport:
    MODELS = [DiscretisedLognormalParams(0.0, 1.0), HookedPowerLawParams(2.0, 1.0, 100)]

    @pytest.mark.parametrize("fn", [log_pmf_values, cdf_values])
    @pytest.mark.parametrize("params", MODELS)
    def test_empty_input_gives_empty_output(self, fn, params):
        for ns in ([], np.array([], dtype=np.int64)):
            got = fn(params, ns)
            assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("fn", [log_pmf_values, cdf_values])
    @pytest.mark.parametrize("params", MODELS)
    def test_zero_is_outside_support(self, fn, params):
        with pytest.raises(DomainError, match="support starts at 1"):
            fn(params, np.array([3, 0, 5]))

    @pytest.mark.parametrize("fn", [log_pmf_values, cdf_values])
    def test_point_beyond_truncation(self, fn):
        params = HookedPowerLawParams(2.0, 1.0, 100)
        assert fn(params, np.array([1, 100])).shape == (2,)
        with pytest.raises(SupportRangeError, match="truncation N=100"):
            fn(params, np.array([1, 101, 2]))
