"""Tests for the log-domain primitives and the underflow policy."""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit.errors import DomainError
from citefit.numerics import (
    LOG_ZERO,
    erfcx,
    log_ndtr,
    std_normal_log_cdf,
)

import gen_erfcx_table
from oracles import (
    OracleTimeoutError,
    UnderflowRisk,
    erfcx_oracle,
    extended_sum_oracle,
    log_ndtr_oracle,
    log_sum_exp,
    log_sum_exp_oracle,
    normal_cdf_oracle,
    predict_underflow,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    def test_log_cdf_consistent_with_cdf(self):
        for x in (-5.0, -1.0, 0.0, 2.0):
            assert math.exp(std_normal_log_cdf(x)) == pytest.approx(
                normal_cdf_oracle(x), rel=1e-12)

    def test_log_cdf_far_tail_is_finite(self):
        # Phi(-40) is far below the subnormal range but its log is a plain double
        value = std_normal_log_cdf(-40.0)
        assert math.isfinite(value)
        assert value == pytest.approx(-804.608442013754, rel=1e-12)

    def test_log_cdf_non_finite_raises(self):
        with pytest.raises(DomainError):
            std_normal_log_cdf(math.nan)


def _erfcx_rel_error(x: float) -> float:
    with mp.workdps(40):
        want = erfcx_oracle(x)
        return float(abs(mp.mpf(float(erfcx(np.array([x]))[0])) - want) / want)


def _log_ndtr_error(got: float, z: float) -> float:
    """Error of a log-CDF value in units of ``max(1, |ln Phi(z)|)``."""
    with mp.workdps(40):
        want = log_ndtr_oracle(z)
        return float(abs(mp.mpf(got) - want) / max(1, abs(want)))


class TestErfcx:
    @given(st.floats(min_value=0.0, max_value=1e6))
    @example(0.0)
    @example(1e10)
    @example(1e300)
    @example(5e-324)
    @settings(max_examples=300, deadline=None)
    def test_against_mpmath(self, x):
        assert _erfcx_rel_error(x) <= 2e-15

    def test_dense_grid_near_zero(self):
        # where 4 / (4 + x) carries the most rounding into the argument
        worst = max(_erfcx_rel_error(x) for x in np.linspace(0.0, 4.0, 401))
        assert worst <= 2e-15

    def test_limits(self):
        with np.errstate(invalid="ignore"):  # NaN has no table index
            got = erfcx(np.array([0.0, math.inf, math.nan]))
        assert abs(got[0] - 1.0) <= 2.3e-16
        assert got[1] == 0.0
        assert math.isnan(got[2])

    def test_table_is_generated(self):
        with open(gen_erfcx_table.TARGET, encoding="utf-8") as fh:
            assert fh.read() == gen_erfcx_table.render()


class TestLogNdtr:
    # relative to max(1, |ln Phi|): at z = -40 the rounding of z**2 / 2 alone
    # is 1e-13 absolute, in scipy's log_ndtr as much as here
    @given(st.floats(min_value=-40.0, max_value=40.0))
    @example(0.0)
    @example(-40.0)
    @example(40.0)
    @example(-37.0)
    @example(1e-300)
    @settings(max_examples=300, deadline=None)
    def test_vector_against_mpmath(self, z):
        assert _log_ndtr_error(float(log_ndtr(np.array([z]))[0]), z) <= 2e-15

    @given(st.floats(min_value=-40.0, max_value=40.0))
    @example(-36.999999)
    @example(-37.000001)
    @settings(max_examples=300, deadline=None)
    def test_scalar_against_mpmath(self, z):
        assert _log_ndtr_error(std_normal_log_cdf(z), z) <= 2e-15

    def test_vector_keeps_shape_and_order(self):
        z = np.linspace(-30.0, 30.0, 61)
        got = log_ndtr(z)
        assert got.shape == z.shape
        assert np.all(np.diff(got) > 0)
        assert np.array_equal(got, np.array([log_ndtr(np.array([v]))[0] for v in z]))


def test_runtime_imports_no_scipy():
    code = ("import sys, citefit, citefit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


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
