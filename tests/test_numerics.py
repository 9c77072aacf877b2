"""Tests for the log-domain primitives and the underflow policy."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citefit.errors import DomainError
from citefit.numerics import LOG_ZERO, std_normal_cdf, std_normal_log_cdf

from oracles import (
    OracleTimeoutError,
    UnderflowRisk,
    extended_sum_oracle,
    log_sum_exp,
    log_sum_exp_oracle,
    normal_cdf_oracle,
    predict_underflow,
)


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([math.log(1.0), math.log(1.0)]) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_sentinel_is_additive_identity(self):
        assert log_sum_exp([LOG_ZERO, math.log(5.0)]) == pytest.approx(
            math.log(5.0), abs=1e-15)

    def test_all_sentinel_returns_sentinel(self):
        assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    def test_deep_negative_pair(self):
        # frozen from the extended-precision oracle: both terms are far below
        # anything exp() can represent
        expected = -9999.5259230158199  # log_sum_exp_oracle([-10000, -10000.5])
        got = log_sum_exp([-10000.0, -10000.5])
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(log_sum_exp_oracle([-10000.0, -10000.5]), abs=1e-9)

    def test_matches_oracle_on_wide_spread(self):
        terms = [0.0, -1.5, -700.0, -745.0, -1000.0]
        assert log_sum_exp(terms) == pytest.approx(
            log_sum_exp_oracle(terms), rel=1e-14)

    def test_large_sequence_accuracy(self):
        # 10**6 equal terms: ln(n * e^c) = c + ln n exactly
        n = 10**6
        terms = np.full(n, -3.25)
        assert log_sum_exp(terms) == pytest.approx(-3.25 + math.log(n), rel=1e-14)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            log_sum_exp([])

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            log_sum_exp([0.0, float("nan")])

    def test_positive_infinity_raises(self):
        with pytest.raises(DomainError):
            log_sum_exp([0.0, math.inf])

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, terms, rng):
        shuffled = list(terms)
        rng.shuffle(shuffled)
        a, b = log_sum_exp(terms), log_sum_exp(shuffled)
        assert a == pytest.approx(b, rel=1e-15)

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=30))
    def test_dominates_max_and_bounded_by_sum(self, terms):
        result = log_sum_exp(terms)
        assert result >= max(terms)
        assert result <= max(terms) + math.log(len(terms)) + 1e-12


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_tail_limit(self):
        assert abs(std_normal_cdf(10.0) - 1.0) < 1e-14

    def test_against_quadrature_oracle(self):
        # frozen from normal_cdf_oracle(0.405465)
        assert std_normal_cdf(0.405465) == pytest.approx(0.6574321297596755, abs=1e-14)
        for x in (-3.7, -1.0, 0.31, 2.5, 6.0):
            assert std_normal_cdf(x) == pytest.approx(normal_cdf_oracle(x), abs=1e-14)

    @given(st.floats(min_value=-8, max_value=8))
    def test_complement_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_non_finite_raises(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                std_normal_cdf(bad)

    def test_log_cdf_consistent_with_cdf(self):
        for x in (-5.0, -1.0, 0.0, 2.0):
            assert math.exp(std_normal_log_cdf(x)) == pytest.approx(
                std_normal_cdf(x), rel=1e-12)

    def test_log_cdf_far_tail_is_finite(self):
        # Phi(-40) is far below the subnormal range but its log is a plain double
        value = std_normal_log_cdf(-40.0)
        assert math.isfinite(value)
        assert value == pytest.approx(-804.608442013754, rel=1e-12)

    def test_log_cdf_non_finite_raises(self):
        with pytest.raises(DomainError):
            std_normal_log_cdf(math.nan)


class TestPredictUnderflow:
    def test_threshold_exponent(self):
        # alpha=77 with a four-decade truncation sits exactly on the
        # reduced-accuracy boundary
        report = predict_underflow(77.0, 0.0, 10000)
        assert report.smallest_term_log10 == pytest.approx(-308.0, abs=1e-9)
        assert report.risk is UnderflowRisk.SAFE  # boundary itself still safe
        assert predict_underflow(77.5, 0.0, 10000).risk is UnderflowRisk.REDUCED_ACCURACY

    def test_large_parameters_underflow_totally(self):
        report = predict_underflow(100.0, 200.0, 10000)
        assert report.risk is UnderflowRisk.TOTAL_UNDERFLOW
        # the mechanism: the smallest term rounds to exactly zero in doubles,
        # so most of the naive sum's terms are silently dropped
        assert (200.0 + 10000.0) ** -100.0 == 0.0
        # slightly larger exponents collapse every term, hence the whole sum
        with np.errstate(under="ignore"):
            naive = np.sum((200.0 + np.arange(1, 10001)) ** -200.0)
        assert naive == 0.0

    def test_moderate_exponent_safe(self):
        report = predict_underflow(10.0, 0.0, 10000)
        assert report.smallest_term_log10 == pytest.approx(-40.0)
        assert report.risk is UnderflowRisk.SAFE

    def test_risk_boundaries_exact(self):
        # -308 -> safe, just below -> reduced; -324 -> reduced, below -> total
        assert predict_underflow(308.0, 0.0, 10).risk is UnderflowRisk.SAFE
        assert predict_underflow(308.0000001, 0.0, 10).risk is UnderflowRisk.REDUCED_ACCURACY
        assert predict_underflow(324.0, 0.0, 10).risk is UnderflowRisk.REDUCED_ACCURACY
        assert predict_underflow(324.0000001, 0.0, 10).risk is UnderflowRisk.TOTAL_UNDERFLOW

    def test_preconditions(self):
        with pytest.raises(DomainError):
            predict_underflow(0.0, 0.0, 10)
        with pytest.raises(DomainError):
            predict_underflow(1.0, -1.0, 10)
        with pytest.raises(DomainError):
            predict_underflow(1.0, 0.0, 0)


class TestExtendedSumOracle:
    def test_zeta_minus_one_closed_form(self):
        # sum_{n>=1} (1+n)^-2 = zeta(2) - 1; the truncated oracle plus the
        # analytic tail bound must land on the closed form
        got = extended_sum_oracle(2.0, 1.0, 10000)
        tail = (1 + 10000 + 0.5) ** -1.0
        assert math.log(math.exp(got) + tail) == pytest.approx(
            -0.4386071893521174, abs=1e-10)  # ln(zeta(2) - 1)

    def test_zeta_two_closed_form(self):
        got = extended_sum_oracle(2.0, 0.0, 10**5)
        tail = (10**5 + 0.5) ** -1.0
        assert math.log(math.exp(got) + tail) == pytest.approx(
            0.4977003024707453, abs=1e-9)  # ln(pi^2 / 6)

    def test_underflow_regime_is_finite(self):
        got = extended_sum_oracle(100.0, 200.0, 10000)
        assert math.isfinite(got)
        assert got == pytest.approx(-529.3859674685206, rel=1e-12)

    def test_digit_floor(self):
        with pytest.raises(DomainError):
            extended_sum_oracle(2.0, 0.0, 100, decimal_digits=30)

    def test_resource_limit(self):
        with pytest.raises(OracleTimeoutError):
            extended_sum_oracle(2.0, 0.0, 10**5 + 1)
