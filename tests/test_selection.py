"""Tests for log-likelihood totals, the Vuong test and winner labels."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citefit.distributions import (
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    log_pmf_values,
)
from citefit.errors import DomainError
from citefit.fitting import CitationDataset, FitConfig, fit_hooked, fit_lognormal
from citefit.selection import (
    Winner,
    classify_winner,
    total_log_likelihood,
    vuong_test,
)
from citefit.synthesis import SeededGenerator, sample

from oracles import normal_cdf_oracle
from reference_table import REFERENCE_ROWS, Z_BEST_PAIRS

LN_ZETA2_MINUS_1 = -0.4386071893521174


class TestTotalLogLikelihood:
    def test_single_count_closed_form(self):
        ds = CitationDataset("test", [1])
        params = HookedPowerLawParams(2.0, 1.0, 10000, tail_correction=True)
        got = total_log_likelihood(ds, params)
        assert got == pytest.approx(math.log(0.25) - LN_ZETA2_MINUS_1, abs=1e-12)

    def test_additive_over_disjoint_datasets(self):
        params = DiscretisedLognormalParams(1.0, 1.0)
        a, b = CitationDataset("test", [1, 2, 3]), CitationDataset("test", [5, 8])
        combined = CitationDataset("test", [1, 2, 3, 5, 8])
        assert total_log_likelihood(combined, params) == pytest.approx(
            total_log_likelihood(a, params) + total_log_likelihood(b, params),
            rel=1e-14)

    def test_sentinel_count_flags_and_returns_neg_inf(self):
        params = DiscretisedLognormalParams(0.0, 1.0)
        ds = CitationDataset("test", [10**17, 2, 10**16, 10**17])
        with pytest.warns(RuntimeWarning, match=re.escape(
                "at counts [10000000000000000, 100000000000000000];")):
            assert total_log_likelihood(ds, params) == -math.inf

    @pytest.mark.parametrize("params", [
        DiscretisedLognormalParams(2.94, 1.03),
        HookedPowerLawParams(7.7, 175.4, 10000),
        HookedPowerLawParams(7.7, 175.4, 10000, tail_correction=True),
    ])
    def test_equals_sum_of_pointwise_terms(self, params):
        ds = sample(params, 20000, SeededGenerator(5))
        want = math.fsum(log_pmf_values(params, ds.counts))
        assert total_log_likelihood(ds, params) == pytest.approx(want, rel=1e-12)


def test_tail_corrected_fit_scores_to_its_own_log_likelihood():
    # the fitted record carries the tail correction, so scoring it again, as
    # the comparison does, evaluates the law the fit maximized
    ds = CitationDataset("test", SeededGenerator(11).stream().zipf(2.2, 3000))
    cfg = FitConfig(tail_correction=True)
    hk, ln = fit_hooked(ds, cfg), fit_lognormal(ds, cfg)
    assert hk.params.tail_correction is True
    assert total_log_likelihood(ds, hk.params) == pytest.approx(hk.log_likelihood, rel=1e-12)
    assert vuong_test(ds, hk.params, ln.params).ll_hooked == pytest.approx(
        hk.log_likelihood, rel=1e-12)


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
        ds = CitationDataset("test", [1, 2, 3, 4])
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        result = vuong_test(ds, params, params)
        assert result.winner is Winner.UNDEFINED
        assert math.isnan(result.vuong_z)

    @pytest.mark.parametrize("count, size", [(1, 7), (2, 37), (8, 1000)])
    def test_one_distinct_count_zero_variance(self, count, size):
        # every article has the same log-likelihood ratio; a mean that
        # rounds away from it must not leave a variance of rounding dust
        ds = CitationDataset("test", [count] * size)
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
        doubled = CitationDataset("test", np.concatenate([base.counts, base.counts]))
        hk = HookedPowerLawParams(5.0, 30.0, 10000)
        ln = DiscretisedLognormalParams(2.0, 1.0)
        z1 = vuong_test(base, hk, ln).vuong_z
        z2 = vuong_test(doubled, hk, ln).vuong_z
        assert z2 == pytest.approx(math.sqrt(2.0) * z1, rel=1e-3)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_equals_per_article_statistic(self, seed):
        # the totals are the fits' own product over the distinct counts, and
        # they and z match the per-article computation to a few ULP of the
        # totals, whatever order the CPU's and BLAS's kernels sum in
        ds = sample(DiscretisedLognormalParams(2.5, 1.1), 3000, SeededGenerator(seed))
        hk = HookedPowerLawParams(4.0, 20.0, 10000)
        ln = DiscretisedLognormalParams(2.4, 1.0)
        values, mult = (a.astype(np.float64) for a in ds.distinct)
        result = vuong_test(ds, hk, ln)
        assert result.ll_hooked == float(mult @ log_pmf_values(hk, values))
        assert result.ll_lognormal == float(mult @ log_pmf_values(ln, values))
        lp_h = log_pmf_values(hk, ds.counts)
        lp_l = log_pmf_values(ln, ds.counts)
        ll_h, ll_l = math.fsum(lp_h), math.fsum(lp_l)
        z = (ll_h - ll_l) / (math.sqrt(len(ds)) * float(np.std(lp_h - lp_l, ddof=1)))
        ulps = 4 * np.finfo(np.float64).eps
        assert abs(result.ll_hooked - ll_h) <= ulps * abs(ll_h)
        assert abs(result.ll_lognormal - ll_l) <= ulps * abs(ll_l)
        # z's numerator is the totals' difference and carries their error
        slack = ulps * (abs(ll_h) + abs(ll_l)) / abs(ll_h - ll_l) + ulps
        assert abs(result.vuong_z - z) <= slack * abs(z)
        assert result.p_two_sided == math.erfc(abs(result.vuong_z) / math.sqrt(2.0))

    def test_p_value_against_quadrature_oracle(self):
        # p is twice the normal mass beyond |z|
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 2000, SeededGenerator(7))
        truth = DiscretisedLognormalParams(2.0, 1.0)
        for other in ((2.05, 1.0), (2.2, 1.1)):
            result = vuong_test(ds, truth, DiscretisedLognormalParams(*other))
            assert result.p_two_sided == pytest.approx(
                2.0 * normal_cdf_oracle(-abs(result.vuong_z)), abs=1e-14)

    def test_p_value_far_tail_stays_positive(self):
        # z near 23: twice one minus the CDF would round to 0, the
        # complementary error function keeps p's relative accuracy
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 2000, SeededGenerator(7))
        result = vuong_test(ds, DiscretisedLognormalParams(2.0, 1.0),
                            DiscretisedLognormalParams(3.0, 1.0))
        assert result.vuong_z > 20
        want = 2.0 * normal_cdf_oracle(-result.vuong_z, dps=200)
        assert 0.0 < result.p_two_sided == pytest.approx(want, rel=1e-12)

    def test_swapping_models_negates_z_and_keeps_p(self):
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 2000, SeededGenerator(7))
        a, b = DiscretisedLognormalParams(2.0, 1.0), DiscretisedLognormalParams(2.5, 1.0)
        ab, ba = vuong_test(ds, a, b), vuong_test(ds, b, a)
        assert (ab.ll_hooked, ab.ll_lognormal) == (ba.ll_lognormal, ba.ll_hooked)
        assert ba.vuong_z == -ab.vuong_z
        assert ba.p_two_sided == ab.p_two_sided

    def test_one_article_is_undefined(self):
        ds = CitationDataset("test", [3])
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


# each fixed before any of its draws was looked at
_KNOWN_ANSWER_SEEDS = (2016, 1729)


class TestKnownAnswer:
    """The pipeline tells the two models apart at the paper's journal sizes:
    each reference row's article count, drawn from its published lognormal
    and from its published hooked fit, is fitted with both models and
    compared."""

    @pytest.mark.parametrize("seed", _KNOWN_ANSWER_SEEDS)
    def test_vuong_names_the_generating_model(self, seed):
        starred = {"lognormal": Winner.L_STAR, "hooked": Winner.H_STAR}
        winners = {"lognormal": [], "hooked": []}
        for index, row in enumerate(REFERENCE_ROWS):
            _, articles, mu, sigma, _, alpha, offset = row[:7]
            truths = {"lognormal": DiscretisedLognormalParams(mu, sigma),
                      "hooked": HookedPowerLawParams(
                          10000.0 if alpha == "10k" else alpha, offset)}
            for family, (name, truth) in enumerate(truths.items()):
                gen = SeededGenerator(seed * 1000 + 2 * index + family)
                ds = sample(truth, articles, gen, label=f"{row[0]} ({name})")
                result = vuong_test(ds, fit_hooked(ds).params, fit_lognormal(ds).params)
                winners[name].append(result.winner)
        for name, other in (("lognormal", "hooked"), ("hooked", "lognormal")):
            # never a starred winner for the wrong model ...
            assert starred[other] not in winners[name], (name, winners[name])
            # ... and a starred right one on at least 80% of each family
            assert winners[name].count(starred[name]) >= 0.8 * len(REFERENCE_ROWS), (
                name, winners[name])
