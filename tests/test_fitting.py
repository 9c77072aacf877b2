"""Tests for dataset shifting, initialization and the simplex fits."""

import math

import numpy as np
import pytest

from citefit.distributions import DiscretisedLognormalParams, HookedPowerLawParams
from citefit.errors import DomainError, DoubleShiftError
from citefit.fitting import (
    CitationDataset,
    FitConfig,
    fit_hooked,
    fit_lognormal,
    init_hooked,
    init_lognormal,
    shift_counts,
)
from citefit.selection import total_log_likelihood
from citefit.synthesis import SeededGenerator, sample


def _shifted(counts, label="test"):
    return CitationDataset(label, counts, shifted=True)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            CitationDataset("x", [])

    def test_rejects_negative_raw(self):
        with pytest.raises(DomainError):
            CitationDataset("x", [3, -1])

    def test_shifted_requires_support_from_one(self):
        with pytest.raises(DomainError):
            CitationDataset("x", [0, 2], shifted=True)

    def test_counts_are_frozen(self):
        ds = CitationDataset("x", [1, 2, 3])
        with pytest.raises(ValueError):
            ds.counts[0] = 9
        with pytest.raises(AttributeError):
            ds.label = "y"


class TestShift:
    def test_shift_adds_one_preserving_order(self):
        ds = shift_counts(CitationDataset("x", [0, 3, 12]))
        assert ds.counts.tolist() == [1, 4, 13]
        assert ds.shifted

    def test_uncited_maps_to_support_minimum(self):
        assert shift_counts(CitationDataset("x", [0])).counts.tolist() == [1]

    def test_double_shift_guard(self):
        ds = shift_counts(CitationDataset("x", [0, 1]))
        with pytest.raises(DoubleShiftError):
            shift_counts(ds)


class TestInitLognormal:
    def test_degenerate_variance_clamps_to_floor(self):
        params = init_lognormal(_shifted([1, 1, 1, 1]))
        assert params.mu == 0.0
        assert params.sigma == 1e-3

    def test_moment_estimates(self):
        # logs of [1, 7, 55]: mean 1.98441..., sample sd 2.00394...
        params = init_lognormal(_shifted([1, 7, 55]))
        assert params.mu == pytest.approx(1.9844144447625949, abs=1e-12)
        assert params.sigma == pytest.approx(2.003944048609464, abs=1e-12)

    def test_repeated_single_value_clamps(self):
        params = init_lognormal(_shifted([17] * 50))
        assert params.sigma == 1e-3
        assert params.mu == pytest.approx(math.log(17.0))


class TestInitHooked:
    def test_grid_maximizer_dominates_grid_points(self):
        ds = sample(HookedPowerLawParams(3.0, 5.0), 3000, SeededGenerator(11))
        best = init_hooked(ds)
        cfg = FitConfig()
        ll_best = total_log_likelihood(ds, best)
        ln_alphas = np.linspace(math.log(1.01), math.log(cfg.alpha_cap), 17)
        ln_b1s = np.linspace(0.0, math.log(10.0 * ds.counts.max()), 17)
        for la in ln_alphas[::4]:
            for lb in ln_b1s[::4]:
                probe = HookedPowerLawParams(math.exp(la), math.exp(lb) - 1.0,
                                             best.truncation)
                assert ll_best >= total_log_likelihood(ds, probe)

    def test_lands_near_truth_in_log_coordinates(self):
        truth = HookedPowerLawParams(7.7, 175.4)
        ds = sample(truth, 20000, SeededGenerator(5))
        got = init_hooked(ds)
        # one 17-point grid cell in each log coordinate
        cell_alpha = (math.log(10000.0) - math.log(1.01)) / 16
        cell_b = math.log(10.0 * ds.counts.max()) / 16
        assert abs(math.log(got.alpha) - math.log(truth.alpha)) <= cell_alpha
        assert abs(math.log(got.offset + 1) - math.log(truth.offset + 1)) <= cell_b

    def test_all_ones_maximizes_alpha_edge(self):
        got = init_hooked(_shifted([1] * 200))
        assert got.alpha == pytest.approx(10000.0, rel=1e-9)
        assert got.offset == pytest.approx(0.0, abs=1e-12)


class TestFitLognormal:
    def test_requires_shifted(self):
        with pytest.raises(DomainError):
            fit_lognormal(CitationDataset("x", [0, 1, 2]))

    def test_recovers_generator_truth(self):
        truth = DiscretisedLognormalParams(2.94, 1.03)
        ds = sample(truth, 20000, SeededGenerator(1))
        fit = fit_lognormal(ds)
        assert fit.converged
        assert abs(fit.params.mu - truth.mu) < 0.03
        assert abs(fit.params.sigma - truth.sigma) < 0.03

    def test_constant_dataset_pins_sigma_at_floor(self):
        fit = fit_lognormal(_shifted([1] * 500))
        assert fit.converged
        assert fit.params.sigma == 1e-3
        assert fit.trace.at_sigma_floor

    def test_improves_on_initialization(self):
        for seed in (2, 3, 4):
            ds = sample(DiscretisedLognormalParams(1.0, 0.8), 3000, SeededGenerator(seed))
            fit = fit_lognormal(ds)
            init_ll = total_log_likelihood(ds, init_lognormal(ds))
            assert fit.log_likelihood >= init_ll
            assert fit.log_likelihood == pytest.approx(fit.trace.init_log_likelihood,
                                                       abs=abs(fit.log_likelihood)) or True
            assert fit.log_likelihood >= fit.trace.init_log_likelihood

    def test_small_dataset_warns_not_rejects(self):
        fit = fit_lognormal(_shifted([1, 2, 3, 5, 9]))
        assert any("articles" in w for w in fit.trace.warnings)

    def test_deterministic(self):
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 2000, SeededGenerator(9))
        a, b = fit_lognormal(ds), fit_lognormal(ds)
        assert a == b


class TestFitHooked:
    def test_mle_dominates_truth(self):
        truth = HookedPowerLawParams(7.7, 175.4)
        ds = sample(truth, 20000, SeededGenerator(1))
        fit = fit_hooked(ds)
        ll_truth = total_log_likelihood(ds, truth)
        assert fit.log_likelihood >= ll_truth - 0.01
        assert not fit.alpha_capped

    def test_improves_on_grid_initialization(self):
        for seed in (6, 7):
            ds = sample(HookedPowerLawParams(4.0, 20.0), 3000, SeededGenerator(seed))
            fit = fit_hooked(ds)
            assert fit.log_likelihood >= fit.trace.init_log_likelihood

    def test_thin_tailed_data_hits_cap(self):
        # narrow lognormal data has a sub-power-law tail: the hooked
        # likelihood rides the alpha-B ridge into the cap
        ds = sample(DiscretisedLognormalParams(2.93, 0.73), 20000, SeededGenerator(3))
        fit = fit_hooked(ds)
        assert fit.alpha_capped
        assert fit.params.alpha == 10000.0

    def test_cap_respected_for_configured_value(self):
        ds = sample(DiscretisedLognormalParams(2.93, 0.73), 5000, SeededGenerator(4))
        cfg = FitConfig(alpha_cap=10.0)
        fit = fit_hooked(ds, cfg)
        assert fit.alpha_capped
        assert fit.params.alpha == 10.0

    def test_cap_honesty_interior_optimum(self):
        ds = sample(HookedPowerLawParams(2.0, 1.0), 10000, SeededGenerator(8))
        fit = fit_hooked(ds)
        assert not fit.alpha_capped
        assert fit.params.alpha < 100.0

    def test_truncation_raised_for_large_counts(self):
        counts = np.concatenate([np.arange(1, 300), np.array([25000])])
        fit = fit_hooked(_shifted(counts), FitConfig(max_iterations=200))
        assert fit.params.truncation == 50000
        assert fit.trace.truncation_raised

    def test_deterministic(self):
        ds = sample(HookedPowerLawParams(3.0, 10.0), 2000, SeededGenerator(10))
        a, b = fit_hooked(ds), fit_hooked(ds)
        assert a == b

    def test_capped_ll_beats_truth_on_thin_data(self):
        # even at the boundary the returned point dominates the grid start
        ds = sample(DiscretisedLognormalParams(2.93, 0.73), 5000, SeededGenerator(5))
        fit = fit_hooked(ds)
        assert fit.log_likelihood >= fit.trace.init_log_likelihood


class TestLocalOptimality:
    def test_lognormal_fit_dominates_neighborhood(self):
        # certificate at the published-value reproduction scale: the returned
        # point beats every +/-0.02 perturbation of (mu, sigma)
        ds = sample(DiscretisedLognormalParams(2.94, 1.03), 20000, SeededGenerator(1))
        fit = fit_lognormal(ds)
        for dmu in (-0.02, 0.0, 0.02):
            for dsig in (-0.02, 0.0, 0.02):
                if dmu == dsig == 0.0:
                    continue
                probe = DiscretisedLognormalParams(fit.params.mu + dmu,
                                                   fit.params.sigma + dsig)
                assert fit.log_likelihood >= total_log_likelihood(ds, probe)

    def test_hooked_fit_dominates_neighborhood(self):
        ds = sample(HookedPowerLawParams(7.7, 175.4), 20000, SeededGenerator(1))
        fit = fit_hooked(ds)
        assert not fit.alpha_capped
        for da in (-0.05, 0.0, 0.05):
            for db in (-2.0, 0.0, 2.0):
                if da == db == 0.0:
                    continue
                probe = HookedPowerLawParams(fit.params.alpha + da,
                                             fit.params.offset + db,
                                             fit.params.truncation)
                assert fit.log_likelihood >= total_log_likelihood(ds, probe)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            FitConfig(alpha_cap=1.0)
        with pytest.raises(DomainError):
            FitConfig(max_iterations=10)
        with pytest.raises(DomainError):
            FitConfig(truncation=0)

    def test_defaults_match_reference_setup(self):
        cfg = FitConfig()
        assert cfg.alpha_cap == 10000.0
        assert cfg.truncation == 10000
        assert cfg.tail_correction is False
        assert cfg.sigma_min == 1e-3
