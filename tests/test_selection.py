"""Tests for log-likelihood totals, AIC, the Vuong test and winner labels."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citefit.distributions import DiscretisedLognormalParams, HookedPowerLawParams
from citefit.errors import DomainError
from citefit.fitting import CitationDataset, fit_hooked, fit_lognormal
from citefit.selection import (
    Winner,
    aic,
    classify_winner,
    pointwise_log_likelihood,
    total_log_likelihood,
    vuong_test,
)
from citefit.synthesis import SeededGenerator, sample

from reference_table import Z_BEST_PAIRS

LN_ZETA2_MINUS_1 = -0.4386071893521174


def _shifted(counts, label="test"):
    return CitationDataset(label, counts, shifted=True)


class TestTotalLogLikelihood:
    def test_single_count_closed_form(self):
        ds = _shifted([1])
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        got = total_log_likelihood(ds, params, tail_correction=True)
        assert got == pytest.approx(math.log(0.25) - LN_ZETA2_MINUS_1, abs=1e-12)

    def test_additive_over_disjoint_datasets(self):
        params = DiscretisedLognormalParams(1.0, 1.0)
        a, b = _shifted([1, 2, 3]), _shifted([5, 8])
        combined = _shifted([1, 2, 3, 5, 8])
        assert total_log_likelihood(combined, params) == pytest.approx(
            total_log_likelihood(a, params) + total_log_likelihood(b, params),
            rel=1e-14)

    def test_sentinel_count_flags_and_returns_neg_inf(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        ds = _shifted([10**17, 2, 10**16, 10**17])
        with pytest.warns(RuntimeWarning, match=re.escape(
                "at counts [10000000000000000, 100000000000000000];")):
            assert total_log_likelihood(ds, params) == -math.inf

    @pytest.mark.parametrize("params", [
        DiscretisedLognormalParams(2.94, 1.03),
        HookedPowerLawParams(7.7, 175.4, 10000),
    ])
    def test_equals_sum_of_pointwise_terms(self, params):
        ds = sample(params, 20000, SeededGenerator(5))
        for tail in (False, True):
            want = math.fsum(pointwise_log_likelihood(ds, params, tail))
            assert total_log_likelihood(ds, params, tail) == pytest.approx(want, rel=1e-12)

    def test_requires_shifted(self):
        with pytest.raises(DomainError):
            total_log_likelihood(CitationDataset("x", [0, 1]),
                                 DiscretisedLognormalParams(0.0, 1.0))


class TestAic:
    def test_reference_arithmetic(self):
        assert aic(-4490.0, 2) == 8984.0

    def test_zero_case(self):
        assert aic(0.0, 2) == 4.0

    def test_k_floor(self):
        with pytest.raises(DomainError):
            aic(0.0, 0)

    @given(st.floats(min_value=-1e8, max_value=1e8),
           st.floats(min_value=-1e8, max_value=1e8))
    def test_ordering_equivalence_at_equal_k(self, ll_a, ll_b):
        # float rounding can collapse sub-resolution differences into AIC
        # ties, so the equivalence is one strict and one non-strict arrow
        if aic(ll_a, 2) < aic(ll_b, 2):
            assert ll_a > ll_b
        if ll_a > ll_b:
            assert aic(ll_a, 2) <= aic(ll_b, 2)


class TestClassifyWinner:
    @pytest.mark.parametrize("z,expected", [
        (-2.58, Winner.L_STAR),
        (1.52, Winner.H),
        (0.00, Winner.L),
        (-1.17, Winner.L),
        (-0.02, Winner.L),
        (2.06, Winner.H_STAR),
    ])
    def test_reference_points(self, z, expected):
        assert classify_winner(z) is expected

    def test_exact_threshold_not_significant(self):
        assert classify_winner(1.96) is Winner.H
        assert classify_winner(-1.96) is Winner.L

    def test_reproduces_all_reference_labels(self):
        for z, best in Z_BEST_PAIRS:
            assert classify_winner(z).value == best

    def test_non_finite_undefined(self):
        for z in (math.nan, math.inf, -math.inf):
            assert classify_winner(z) is Winner.UNDEFINED

    def test_threshold_must_be_positive(self):
        with pytest.raises(DomainError):
            classify_winner(1.0, 0.0)

    @given(st.floats(min_value=-30, max_value=30))
    def test_mirror_symmetry(self, z):
        mirror = {Winner.L: Winner.H, Winner.H: Winner.L,
                  Winner.L_STAR: Winner.H_STAR, Winner.H_STAR: Winner.L_STAR}
        if z != 0:
            assert classify_winner(-z) is mirror[classify_winner(z)]


class TestVuongTest:
    def test_identical_models_zero_variance(self):
        ds = _shifted([1, 2, 3, 4])
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        result = vuong_test(ds, params, params)
        assert result.winner is Winner.UNDEFINED
        assert math.isnan(result.vuong_z)

    @pytest.mark.parametrize("count, size", [(1, 7), (2, 37), (8, 1000)])
    def test_one_distinct_count_zero_variance(self, count, size):
        # every article has the same log-likelihood ratio; a mean that
        # rounds away from it must not leave a variance of rounding dust
        ds = _shifted([count] * size)
        result = vuong_test(ds, HookedPowerLawParams(2.0, 1.0),
                            DiscretisedLognormalParams(1.0, 1.0))
        assert result.winner is Winner.UNDEFINED
        assert math.isnan(result.vuong_z)

    def test_sign_matches_ll_difference_exactly(self):
        gen = SeededGenerator(21)
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 4000, gen)
        hk = HookedPowerLawParams(5.0, 30.0, 10000)
        ln = DiscretisedLognormalParams(2.0, 1.0)
        result = vuong_test(ds, hk, ln)
        assert math.copysign(1.0, result.vuong_z) == math.copysign(
            1.0, result.ll_hooked - result.ll_lognormal)

    def test_lognormal_data_favors_lognormal(self):
        # data drawn from one model, both fitted: z should point at the truth
        ds = sample(DiscretisedLognormalParams(3.0, 1.0), 5000, SeededGenerator(2))
        hk = fit_hooked(ds)
        ln = fit_lognormal(ds)
        result = vuong_test(ds, hk.params, ln.params)
        assert result.vuong_z < 0
        assert result.winner in (Winner.L, Winner.L_STAR)

    def test_p_value_bounds_and_monotonicity(self):
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 500, SeededGenerator(3))
        hk = fit_hooked(ds)
        result = vuong_test(ds, hk.params, DiscretisedLognormalParams(2.0, 1.0))
        assert 0.0 <= result.p_two_sided <= 1.0
        # two-sided p strictly decreases in |z|
        ps = [2.0 * 0.5 * math.erfc(z / math.sqrt(2))
              for z in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_duplicated_data_scales_z_by_sqrt2(self):
        # duplicating every observation doubles the LR and sqrt-scales z
        base = sample(DiscretisedLognormalParams(2.0, 1.0), 1000, SeededGenerator(4))
        doubled = _shifted(np.concatenate([base.counts, base.counts]))
        hk = HookedPowerLawParams(5.0, 30.0, 10000)
        ln = DiscretisedLognormalParams(2.0, 1.0)
        z1 = vuong_test(base, hk, ln).vuong_z
        z2 = vuong_test(doubled, hk, ln).vuong_z
        assert z2 == pytest.approx(math.sqrt(2.0) * z1, rel=1e-3)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_equals_per_article_statistic(self, seed):
        # the per-distinct-count evaluation repeats the same terms, so every
        # field matches the per-article computation to the last bit
        ds = sample(DiscretisedLognormalParams(2.5, 1.1), 3000, SeededGenerator(seed))
        hk = HookedPowerLawParams(4.0, 20.0, 10000)
        ln = DiscretisedLognormalParams(2.4, 1.0)
        lp_h = pointwise_log_likelihood(ds, hk)
        lp_l = pointwise_log_likelihood(ds, ln)
        ll_h, ll_l = math.fsum(lp_h), math.fsum(lp_l)
        z = (ll_h - ll_l) / (math.sqrt(len(ds)) * float(np.std(lp_h - lp_l, ddof=1)))
        result = vuong_test(ds, hk, ln)
        assert (result.ll_hooked, result.ll_lognormal, result.vuong_z) == (ll_h, ll_l, z)
        assert result.p_two_sided == math.erfc(abs(z) / math.sqrt(2.0))

    def test_one_article_is_undefined(self):
        ds = _shifted([3])
        hk, ln = HookedPowerLawParams(2.0, 1.0), DiscretisedLognormalParams(0.0, 1.0)
        result = vuong_test(ds, hk, ln)
        assert result.winner is Winner.UNDEFINED and result.n_articles == 1
        assert math.isnan(result.vuong_z) and math.isnan(result.p_two_sided)
        assert result.ll_hooked == total_log_likelihood(ds, hk)
        assert result.ll_lognormal == total_log_likelihood(ds, ln)

    def test_custom_threshold_changes_starring(self):
        ds = sample(DiscretisedLognormalParams(3.0, 1.0), 5000, SeededGenerator(2))
        hk = fit_hooked(ds)
        ln = fit_lognormal(ds)
        loose = vuong_test(ds, hk.params, ln.params, z_threshold=1e6)
        assert loose.winner in (Winner.L, Winner.H)
