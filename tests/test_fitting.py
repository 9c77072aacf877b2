"""Tests for datasets, initialization, the fits and their gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citefit.fitting
from citefit.distributions import (
    SIGMA_MIN,
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    _dln_ll_derivatives,
    _hooked_ll_derivatives,
    log_pmf_values,
)
from citefit.data_io import parse_counts
from citefit.errors import DomainError
from citefit.fitting import (
    EXIT_REASONS,
    MAX_RAW_COUNT,
    CitationDataset,
    FitConfig,
    _compressed,
    _maximize_box,
    _step_matrix,
    fit_hooked,
    fit_lognormal,
    init_hooked,
    init_lognormal,
)
from citefit.selection import total_log_likelihood
from citefit.synthesis import SeededGenerator, sample

from oracles import dln_ll_gradient_oracle


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            CitationDataset("x", [])

    def test_rejects_negative_raw(self):
        with pytest.raises(DomainError):
            CitationDataset("x", [3, -1])

    def test_shifted_requires_support_from_one(self):
        # a dataset holds citations + 1, so an uncited article is a 1
        with pytest.raises(DomainError,
                           match=r"must be >= 1 \(counts are citations \+ 1\), got 0"):
            CitationDataset("x", [0, 2])

    def test_counts_are_frozen(self):
        ds = CitationDataset("x", [1, 2, 3])
        with pytest.raises(ValueError):
            ds.counts[0] = 9
        with pytest.raises(AttributeError):
            ds.label = "y"


    def test_distinct_counts_are_kept_and_frozen(self):
        ds = CitationDataset("test", [5, 1, 5, 2, 1, 5])
        values, mult = ds.distinct
        assert values.tolist() == [1, 2, 5] and mult.tolist() == [2, 1, 3]
        assert ds.distinct is ds.distinct
        with pytest.raises(ValueError):
            values[0] = 7

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=0, max_size=40),
           st.sampled_from(["at", "past", "far"]))
    def test_distinct_equals_unique(self, counts, where):
        # the largest count at the frequency table's span, just past it, and
        # far past it, where the counts are sorted instead
        n = len(counts) + 1
        span = citefit.fitting._BINCOUNT_SPAN * n
        top = {"at": span, "past": span + 1, "far": 10**12}[where]
        counts = [min(c + 1, span) for c in counts] + [top]
        values, mult = CitationDataset("x", counts).distinct
        want_values, want_mult = np.unique(np.array(counts, dtype=np.int64), return_counts=True)
        assert values.dtype == want_values.dtype and mult.dtype == want_mult.dtype
        assert np.array_equal(values, want_values) and np.array_equal(mult, want_mult)
        assert not values.flags.writeable and not mult.flags.writeable

    @pytest.mark.parametrize("counts", [
        [3, 2**63],              # numpy makes this uint64
        [10**20],                # and this an object array
        [2**63, 1],              # and this float64
        [1.0, 1e19],
        [1.0, math.inf],
        [-(10**20), 3],
        [-(2**63) - 1, 3],       # one below int64's least
    ])
    def test_counts_outside_int64_are_domain_errors(self, counts):
        with pytest.raises(DomainError, match="counts must be"):
            CitationDataset("x", counts)

    def test_largest_count_is_int64_max(self):
        ds = CitationDataset("x", [1, 2**63 - 1])
        assert ds.counts.dtype == np.int64 and ds.counts.tolist() == [1, 2**63 - 1]
        for above in (np.array([2**63], dtype=np.uint64), [1, 2**63]):
            with pytest.raises(DomainError, match="<= 9223372036854775807"):
                CitationDataset("x", above)

    def test_largest_raw_count_shifts_to_int64_max(self):
        assert MAX_RAW_COUNT == 2**63 - 2
        [ds] = parse_counts(f"0\n{MAX_RAW_COUNT}\n")
        assert ds.counts.dtype == np.int64 and ds.counts.tolist() == [1, 2**63 - 1]


class TestShift:
    # parsing is where raw citation counts become the shifted counts a
    # dataset holds
    def test_shift_adds_one_preserving_order(self):
        [ds] = parse_counts("0\n3\n12\n")
        assert ds.counts.tolist() == [1, 4, 13]

    def test_uncited_maps_to_support_minimum(self):
        [ds] = parse_counts("0\n")
        assert ds.counts.tolist() == [1]


class TestInitLognormal:
    def test_degenerate_variance_clamps_to_floor(self):
        params = init_lognormal(CitationDataset("test", [1, 1, 1, 1]))
        assert params.mu == 0.0
        assert params.sigma == 1e-3

    def test_moment_estimates(self):
        # logs of [1, 7, 55]: mean 1.98441..., sample sd 2.00394...
        params = init_lognormal(CitationDataset("test", [1, 7, 55]))
        assert params.mu == pytest.approx(1.9844144447625949, abs=1e-12)
        assert params.sigma == pytest.approx(2.003944048609464, abs=1e-12)

    def test_repeated_single_value_clamps(self):
        params = init_lognormal(CitationDataset("test", [17] * 50))
        assert params.sigma == 1e-3
        assert params.mu == pytest.approx(math.log(17.0))

    def test_weighted_moments_equal_per_article_moments(self):
        ds = sample(DiscretisedLognormalParams(2.94, 1.03), 20000, SeededGenerator(8))
        logs = np.log(ds.counts.astype(np.float64))
        params = init_lognormal(ds)
        assert params.mu == pytest.approx(float(np.mean(logs)), rel=1e-13)
        assert params.sigma == pytest.approx(float(np.std(logs, ddof=1)), rel=1e-13)


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
        got = init_hooked(CitationDataset("test", [1] * 200))
        assert got.alpha == pytest.approx(10000.0, rel=1e-9)
        assert got.offset == pytest.approx(0.0, abs=1e-12)


class TestFitLognormal:
    def test_recovers_generator_truth(self):
        truth = DiscretisedLognormalParams(2.94, 1.03)
        ds = sample(truth, 20000, SeededGenerator(1))
        fit = fit_lognormal(ds)
        assert fit.converged
        assert abs(fit.params.mu - truth.mu) < 0.03
        assert abs(fit.params.sigma - truth.sigma) < 0.03

    def test_constant_dataset_pins_sigma_at_floor(self):
        fit = fit_lognormal(CitationDataset("test", [1] * 500))
        assert fit.converged
        assert fit.params.sigma == 1e-3
        assert fit.trace.exit_reason == "sigma_floor"

    def test_improves_on_initialization(self):
        for seed in (2, 3, 4):
            ds = sample(DiscretisedLognormalParams(1.0, 0.8), 3000, SeededGenerator(seed))
            fit = fit_lognormal(ds)
            init_ll = total_log_likelihood(ds, init_lognormal(ds))
            assert fit.log_likelihood >= init_ll
            assert fit.log_likelihood >= fit.trace.init_log_likelihood

    def test_power_law_ridge_ends_well_inside_budget(self):
        # nearly every count at 1: the likelihood rises without bound as
        # mu -> -inf with mu / sigma**2 near -4 (a power law in the limit).
        # A search in (mu, ln sigma) crawled along this ridge until the
        # 10000-iteration budget ran out; the Nelder-Mead search before it
        # ended at the pinned point
        ds = CitationDataset("Jane's Defence Weekly", [1] * 1953 + [2] * 17 + [3] * 5)
        fit = fit_lognormal(ds)
        assert fit.converged and fit.trace.exit_reason == "converged"
        assert fit.trace.evaluations < 1000 and fit.params.mu < -1000.0
        simplex = DiscretisedLognormalParams(-59258.62568278327, 120.71482800680485)
        assert fit.log_likelihood >= total_log_likelihood(ds, simplex) - 1e-4

    def test_zero_mass_count_is_not_converged(self):
        # at 1e15 the cell ln(n -+ 0.5) collapses to one double: that count
        # has no mass anywhere and the log-likelihood is -inf at every point
        fit = fit_lognormal(CitationDataset("test", [4, 10**15 + 1]))
        assert fit.log_likelihood == -math.inf and not fit.converged
        assert fit.trace.exit_reason is None
        assert fit.trace.warnings[-1] == (
            "zero model probability at shifted counts [1000000000000001]; "
            "log-likelihood is -inf")
        assert fit_lognormal(CitationDataset("test", [4, 10**14 + 1])).converged

    def test_one_mass_evaluation_per_search_evaluation(self, monkeypatch):
        # the gradient reuses the masses of the point just scored
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 2000, SeededGenerator(9))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return log_pmf_values(*args, **kwargs)

        plain = fit_lognormal(ds)
        monkeypatch.setattr(citefit.fitting, "log_pmf_values", counted)
        fit = fit_lognormal(ds)
        assert fit == plain
        assert len(calls) == fit.trace.evaluations

    def test_small_dataset_warns_not_rejects(self):
        fit = fit_lognormal(CitationDataset("test", [1, 2, 3, 5, 9]))
        assert any("articles" in w for w in fit.trace.warnings)

    def test_deterministic(self):
        ds = sample(DiscretisedLognormalParams(2.0, 1.0), 2000, SeededGenerator(9))
        a, b = fit_lognormal(ds), fit_lognormal(ds)
        assert a == b

    @pytest.mark.parametrize("seed, ll, evaluations", [
        (1, -87706.72452123488, 2),
        (2, -87855.97141323311, 2),
        (3, -87698.92151444203, 2),
    ])
    def test_newton_search_holds_pinned_fits(self, seed, ll, evaluations):
        # the Newton-plus-BFGS search this one replaced ended at the pinned
        # log-likelihoods in the pinned evaluations; a gradient-only BFGS
        # search took about 12
        fit = fit_lognormal(sample(DiscretisedLognormalParams(2.94, 1.03), 20000,
                                   SeededGenerator(seed)))
        assert fit.converged
        assert fit.log_likelihood >= ll - 1e-9
        assert fit.trace.evaluations <= evaluations


class TestFitHooked:
    @pytest.mark.parametrize("truth, size, seed, ll, capped, evaluations", [
        (HookedPowerLawParams(4.0, 20.0), 3000, 6, -9766.88470010263, False, 5),
        (HookedPowerLawParams(7.7, 175.4), 20000, 1, -88276.60218208101, False, 6),
        # ends on the cap
        (DiscretisedLognormalParams(2.93, 0.73), 5000, 5, -20852.942231281482, True, 8),
        # climbs the ridge to the cap
        (DiscretisedLognormalParams(3.65, 0.81), 1806, 2, -8988.731305008076, True, 8),
    ])
    def test_newton_search_holds_pinned_fits(self, truth, size, seed, ll, capped,
                                             evaluations):
        # the Newton-plus-BFGS search this one replaced ended at the pinned
        # points in the pinned evaluations
        fit = fit_hooked(sample(truth, size, SeededGenerator(seed)))
        assert fit.converged and fit.alpha_capped is capped
        assert fit.log_likelihood >= ll - 1e-9
        assert fit.trace.evaluations <= evaluations

    def test_all_uncited_scores_positive_zero(self):
        # every article at the support minimum: both laws put all their mass
        # there, and the total is +0.0 like the lognormal's and the
        # comparison's, not the -0.0 a one-term dot product keeps
        ds = CitationDataset("test", [1] * 5)
        hk, ln = fit_hooked(ds), fit_lognormal(ds)
        assert math.copysign(1.0, hk.log_likelihood) == 1.0 and hk.log_likelihood == 0.0
        assert math.copysign(1.0, ln.log_likelihood) == 1.0 and ln.log_likelihood == 0.0

    @pytest.mark.parametrize("tail", [False, True])
    def test_gradient_takes_the_scored_record(self, monkeypatch, tail):
        # every derivative call of the search comes with the record of a
        # scored point, tail flag included (the derivatives' values are
        # pinned in test_distributions.TestHookedDerivatives)
        ds = sample(HookedPowerLawParams(4.0, 20.0), 3000, SeededGenerator(6))
        passed = []

        def spy(ns, mult, params):
            passed.append(params)
            return _hooked_ll_derivatives(ns, mult, params)

        plain = fit_hooked(ds, FitConfig(tail_correction=tail))
        monkeypatch.setattr(citefit.fitting, "_hooked_ll_derivatives", spy)
        assert fit_hooked(ds, FitConfig(tail_correction=tail)) == plain
        assert passed
        assert all(params.tail_correction is tail for params in passed)

    def test_one_mass_evaluation_per_search_evaluation(self, monkeypatch):
        # the grid's 17 x 17 cells, then one per point the search scores
        ds = sample(HookedPowerLawParams(4.0, 20.0), 3000, SeededGenerator(6))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return log_pmf_values(*args, **kwargs)

        plain = fit_hooked(ds)
        monkeypatch.setattr(citefit.fitting, "log_pmf_values", counted)
        fit = fit_hooked(ds)
        assert fit == plain
        assert len(calls) == 289 + fit.trace.evaluations

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
        fit = fit_hooked(CitationDataset("test", counts))
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


    @pytest.mark.parametrize("truth, size, seed, cap", [
        (DiscretisedLognormalParams(2.93, 0.73), 20000, 3, 10000.0),  # thin tail
        (DiscretisedLognormalParams(2.93, 0.73), 5000, 4, 10.0),      # configured cap
        (HookedPowerLawParams(2.0, 1.0), 10000, 8, 10000.0),          # interior
    ])
    def test_capped_flag_is_alpha_on_cap(self, truth, size, seed, cap):
        cfg = FitConfig(alpha_cap=cap)
        fit = fit_hooked(sample(truth, size, SeededGenerator(seed)), cfg)
        assert fit.alpha_capped == (fit.params.alpha == cfg.alpha_cap)
        assert fit.trace.exit_reason == ("cap" if fit.alpha_capped else "converged")

    @pytest.mark.parametrize("seed, simplex_alpha, simplex_offset", [
        (1, 10000.0, 532184.1197480835),
        (2, 9999.89752776662, 533528.1091747935),
    ])
    def test_ridge_is_followed_onto_the_cap(self, seed, simplex_alpha, simplex_offset):
        # narrow lognormal data: the hooked likelihood climbs the alpha-B
        # ridge all the way to the cap.  The Nelder-Mead search this fit
        # replaced ended at the given points, the second just short of the cap
        ds = sample(DiscretisedLognormalParams(3.65, 0.81), 1806, SeededGenerator(seed))
        fit = fit_hooked(ds)
        assert fit.alpha_capped and fit.params.alpha == 10000.0
        simplex = HookedPowerLawParams(simplex_alpha, simplex_offset)
        assert fit.log_likelihood >= total_log_likelihood(ds, simplex)

    def test_trace_counts_evaluations(self):
        ds = sample(HookedPowerLawParams(3.0, 10.0), 2000, SeededGenerator(10))
        fit = fit_hooked(ds)
        assert fit.converged and fit.trace.exit_reason in EXIT_REASONS
        assert 0 < fit.trace.evaluations < 100


class TestScore:
    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("fit, derivatives", [
        (fit_lognormal, "_dln_ll_derivatives"), (fit_hooked, "_hooked_ll_derivatives")])
    def test_derivatives_take_the_record_last_scored(self, monkeypatch, fit, derivatives,
                                                     tail):
        # each derivative call gets the very record, and the very log masses,
        # of the most recent log_pmf_values call: no record is rebuilt
        ds = sample(HookedPowerLawParams(4.0, 20.0), 3000, SeededGenerator(6))
        cfg = FitConfig(tail_correction=tail)
        scored, derived = [], []
        real = getattr(citefit.fitting, derivatives)

        def score_spy(params, ns):
            scored.append((params, log_pmf_values(params, ns)))
            return scored[-1][1]

        def derive_spy(*args):
            derived.append((scored[-1], args))
            return real(*args)

        plain = fit(ds, cfg)
        monkeypatch.setattr(citefit.fitting, "log_pmf_values", score_spy)
        monkeypatch.setattr(citefit.fitting, derivatives, derive_spy)
        assert fit(ds, cfg) == plain
        assert len(derived) > 1
        for (params, logp), args in derived:
            assert args[2] is params
            if fit is fit_lognormal:
                assert args[3] is logp
            else:
                assert params.tail_correction is tail


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
            FitConfig(truncation=0)

    def test_defaults_match_reference_setup(self):
        cfg = FitConfig()
        assert cfg.alpha_cap == 10000.0
        assert cfg.truncation == 10000
        assert cfg.tail_correction is False
        assert SIGMA_MIN == 1e-3


# ---------------------------------------------------------------------------
# analytic gradients against central differences
# ---------------------------------------------------------------------------


def _coords(params):
    """The search coordinates of ``params`` and the map back from them."""
    if isinstance(params, DiscretisedLognormalParams):
        return ([params.mu, math.log(params.sigma)],
                lambda x: DiscretisedLognormalParams(x[0], math.exp(x[1])))
    return ([math.log(params.alpha), math.log(params.offset + 1.0)],
            lambda x: replace(params, alpha=math.exp(x[0]), offset=math.expm1(x[1])))


def _dln_derivatives(values, mult, params):
    """The lognormal gradient and Hessian in ``(mu, ln sigma)``, from the log
    masses that scoring ``params`` gives."""
    return _dln_ll_derivatives(values, mult, params, log_pmf_values(params, values))


def _hooked_derivatives(values, mult, params):
    """The hooked gradient and Hessian in ``(ln alpha, ln(B + 1))``."""
    return _hooked_ll_derivatives(values, mult, params)


def _ll_gradient(values, mult, params):
    """The total log-likelihood gradient in the coordinates of :func:`_coords`,
    from the analytic per-family derivatives."""
    if isinstance(params, HookedPowerLawParams):
        return _hooked_derivatives(values, mult, params)[0]
    return _dln_derivatives(values, mult, params)[0]


def _differences(f, x, floor, steps):
    """Five-point differences of ``f`` (a number or a sequence) along each
    coordinate of ``x``: central, or one-sided where a central stencil would
    cross ``floor``."""
    def at(i, k):
        y = list(x)
        y[i] += k * steps[i]
        return np.asarray(f(y))

    return [(-25 * at(i, 0) + 48 * at(i, 1) - 36 * at(i, 2) + 16 * at(i, 3)
             - 3 * at(i, 4)) / (12 * steps[i]) if x[i] - 2 * steps[i] < floor[i]
            else (at(i, -2) - 8 * at(i, -1) + 8 * at(i, 1) - at(i, 2)) / (12 * steps[i])
            for i in (0, 1)]


def _floor(params):
    """The lower bounds of the search coordinates: the sigma floor or B = 0."""
    if isinstance(params, DiscretisedLognormalParams):
        return [-math.inf, math.log(SIGMA_MIN)]
    return [-math.inf, 0.0]


def _numeric_gradient(ds, params, h=1e-3):
    """Five-point differences of ``total_log_likelihood`` in the search
    coordinates.

    The sum to infinity grows like 1 / (alpha - 1), so with it the step in
    ``ln alpha`` shrinks to a hundredth of ``ln alpha``, the distance to that
    pole; a fixed step would leave a stencil error of order (h / ln alpha)**4."""
    x, make = _coords(params)
    steps = [h, h]
    if getattr(params, "tail_correction", False) and params.alpha > 1:
        steps[0] = min(h, 0.01 * x[0])
    return [float(d) for d in _differences(
        lambda y: total_log_likelihood(ds, make(y)), x, _floor(params), steps)]


def _assert_gradient_matches(ds, params):
    # each component to 1e-6 of the gradient's size
    values, mult = _compressed(ds)
    analytic = _ll_gradient(values, mult, params)
    numeric = _numeric_gradient(ds, params)
    scale = max(abs(numeric[0]), abs(numeric[1]), 1.0)
    for a, n in zip(analytic, numeric):
        assert abs(a - n) <= 1e-6 * scale, (analytic, numeric)


def _assert_hessian_close(hess, numeric, tol=1e-6):
    # ``hess`` = (h00, h01, h11) against differences of the gradient,
    # numeric[j][i] = dg_i / dx_j, each entry to ``tol`` of the largest
    scale = max(float(np.max(np.abs(numeric))), 1.0)
    h00, h01, h11 = hess
    for a, n in ((h00, numeric[0][0]), (h01, numeric[0][1]), (h01, numeric[1][0]),
                 (h11, numeric[1][1])):
        assert abs(a - n) <= tol * scale, (hess, numeric)


def _assert_hessian_matches(ds, params, tol=1e-6):
    # the Hessian against five-point differences of the analytic gradient
    values, mult = _compressed(ds)
    x, make = _coords(params)
    numeric = _differences(lambda y: _ll_gradient(values, mult, make(y)), x,
                           _floor(params), [1e-4, 1e-4])
    derivatives = (_hooked_derivatives if isinstance(params, HookedPowerLawParams)
                   else _dln_derivatives)
    _assert_hessian_close(derivatives(values, mult, params)[1], numeric, tol)


_GRADIENT_DATA = sample(DiscretisedLognormalParams(2.0, 1.2), 400, SeededGenerator(3))
_LEFT_TAIL_DATA = CitationDataset("test", [1] * 1949 + [2] * 24 + [3] * 2)
_FLOOR_DATA = CitationDataset("test", [1] * 50 + [2] * 10 + [3] * 2)


class TestGradients:
    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(-4.0, 7.0), sigma=st.floats(0.05, 5.0))
    def test_lognormal_matches_differences(self, mu, sigma):
        _assert_gradient_matches(_GRADIENT_DATA, DiscretisedLognormalParams(mu, sigma))

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(-4.0, 7.0), sigma=st.floats(0.05, 5.0))
    def test_lognormal_hessian_matches_differences(self, mu, sigma):
        _assert_hessian_matches(_GRADIENT_DATA, DiscretisedLognormalParams(mu, sigma))

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.3, 60.0), offset=st.floats(0.0, 3000.0),
           tail=st.booleans())
    def test_hooked_matches_differences(self, alpha, offset, tail):
        if tail and alpha < 1.01:
            alpha += 1.0  # the sum to infinity switches on at alpha = 1; stay clear
        _assert_gradient_matches(_GRADIENT_DATA,
                                 HookedPowerLawParams(alpha, offset, tail_correction=tail))

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.3, 60.0), offset=st.floats(0.0, 3000.0),
           tail=st.booleans())
    def test_hooked_hessian_matches_differences(self, alpha, offset, tail):
        if tail and alpha < 1.01:
            alpha += 1.0  # the sum to infinity switches on at alpha = 1; stay clear
        _assert_hessian_matches(_GRADIENT_DATA,
                                HookedPowerLawParams(alpha, offset, tail_correction=tail))

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(-20.0, 15.0), sigma=st.floats(SIGMA_MIN, 100.0))
    def test_lognormal_matches_mpmath_over_the_box(self, mu, sigma):
        # over the whole box, where differences cannot follow it, against
        # normal-CDF differences in mpmath: at sigma = 1e-3 the exponents
        # reach 1e8, whose rounding moves the gradient by up to 1e-7 of its size
        values, mult = _compressed(_GRADIENT_DATA)
        got = _dln_derivatives(values, mult, DiscretisedLognormalParams(mu, sigma))[0]
        want = dln_ll_gradient_oracle(values.tolist(), mult.tolist(), mu, sigma)
        scale = max(abs(want[0]), abs(want[1]), 1.0)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-6 * scale, (got, want)

    def test_lognormal_search_derivatives_match_differences(self, monkeypatch):
        # fit_lognormal's score derives its gradient and Hessian in
        # (mu / (1 + sigma**2), ln sigma); check both away from the optimum,
        # where the second derivatives of mu enter
        passed = {}

        def spy(score, *args):
            passed["score"] = score
            return _maximize_box(score, *args)

        monkeypatch.setattr(citefit.fitting, "_maximize_box", spy)
        fit_lognormal(_GRADIENT_DATA)
        loglik, gradient = _split(passed["score"])
        floor = [-math.inf, math.log(SIGMA_MIN)]
        for x in ([0.8, 0.3], [-2.0, 1.0], [1.5, -1.0], [3.0, 0.5]):
            grad, hess = passed["score"](x)[1]()
            numeric = _differences(loglik, x, floor, [1e-4, 1e-4])
            scale = max(abs(float(numeric[0])), abs(float(numeric[1])), 1.0)
            assert all(abs(a - n) <= 1e-6 * scale for a, n in zip(grad, numeric)), x
            _assert_hessian_close(hess, _differences(gradient, x, floor, [1e-4, 1e-4]))

    @pytest.mark.parametrize("tail", [False, True])
    def test_hooked_search_derivatives_match_differences(self, monkeypatch, tail):
        # fit_hooked's score derives its gradient and Hessian in
        # (ln alpha, ln(B + 1)) from the normalization of the point it scored
        passed = {}

        def spy(score, *args):
            passed["score"] = score
            return _maximize_box(score, *args)

        monkeypatch.setattr(citefit.fitting, "_maximize_box", spy)
        fit_hooked(_GRADIENT_DATA, FitConfig(tail_correction=tail))
        loglik, gradient = _split(passed["score"])
        floor = [-math.inf, 0.0]
        for x in ([0.8, 0.3], [2.0, 4.0], [1.5, 7.0]):
            grad, hess = passed["score"](x)[1]()
            numeric = _differences(loglik, x, floor, [1e-4, 1e-4])
            scale = max(abs(float(numeric[0])), abs(float(numeric[1])), 1.0)
            assert all(abs(a - n) <= 1e-6 * scale for a, n in zip(grad, numeric)), x
            _assert_hessian_close(hess, _differences(gradient, x, floor, [1e-4, 1e-4]))

    def test_lognormal_far_left_tail(self):
        # nearly every article uncited: the maximum sits deep in the left tail
        params = DiscretisedLognormalParams(-10.0, 1.6)
        _assert_gradient_matches(_LEFT_TAIL_DATA, params)
        _assert_hessian_matches(_LEFT_TAIL_DATA, params)

    def test_lognormal_at_sigma_floor(self):
        params = DiscretisedLognormalParams(0.2, SIGMA_MIN)
        _assert_gradient_matches(_FLOOR_DATA, params)
        # counts 2 and 3 lie 200 to 1000 scales out, where each Hessian entry
        # is a difference of terms some 1e4 times its size: against mpmath
        # the analytic entries are 6e-6 off there, the gradient 3e-11
        _assert_hessian_matches(_FLOOR_DATA, params, tol=1e-5)

    def test_hooked_at_cap_with_zero_offset_and_tail(self):
        ds = sample(DiscretisedLognormalParams(2.93, 0.73), 2000, SeededGenerator(3))
        _assert_gradient_matches(ds, HookedPowerLawParams(10000.0, 0.0, tail_correction=True))

    def test_hooked_with_raised_truncation(self):
        ds = CitationDataset("test", np.concatenate([np.arange(1, 300), np.array([25000])]))
        _assert_gradient_matches(ds, HookedPowerLawParams(2.5, 10.0, 50000))

    def test_finite_over_the_whole_box(self):
        values, mult = _compressed(_GRADIENT_DATA)
        for mu in (-20.0, -10.0, 0.0, 3.0, 8.0, 15.0):
            for sigma in (SIGMA_MIN, 0.01, 0.3, 1.0, 10.0, 100.0, 1e4):
                grad, hess = _dln_derivatives(values, mult,
                                              DiscretisedLognormalParams(mu, sigma))
                assert all(map(math.isfinite, grad + hess)), (mu, sigma, grad, hess)
        for alpha in (1e-3, 0.3, 1.0, 1.0 + 1e-9, 2.0, 100.0, 10000.0):
            for offset in (0.0, 1.0, 1e3, 1e6, 1e9):
                for tail in (False, True):
                    params = HookedPowerLawParams(alpha, offset, tail_correction=tail)
                    grad, hess = _hooked_derivatives(values, mult, params)
                    assert all(map(math.isfinite, grad + hess)), (alpha, offset, tail, grad,
                                                                  hess)


# ---------------------------------------------------------------------------
# the bounded search
# ---------------------------------------------------------------------------


def _split(score):
    """The log-likelihood and gradient of a ``score``, as two functions."""
    return (lambda x: score(x)[0]), (lambda x: score(x)[1]()[0])


def _scorer(loglik, gradient, hessian=None):
    """A ``score`` for :func:`_maximize_box` from separate functions."""
    def score(x):
        return loglik(x), lambda: (gradient(x), hessian(x) if hessian else None)

    return score


def _matrix(h):
    """The symmetric 2x2 matrix stored as ``(h00, h01, h11)``."""
    return np.array([[h[0], h[1]], [h[1], h[2]]])


def _quartic():
    """``-(x0**2 - 1)**2 - (x1 - 0.5)**2`` with its gradient and Hessian: the
    Hessian is indefinite for x0**2 < 1/3 and the maxima are at x0 = +-1."""
    def loglik(x):
        return -(x[0] ** 2 - 1.0) ** 2 - (x[1] - 0.5) ** 2

    def gradient(x):
        return -4.0 * x[0] * (x[0] ** 2 - 1.0), -2.0 * (x[1] - 0.5)

    def hessian(x):
        return 4.0 - 12.0 * x[0] ** 2, 0.0, -2.0

    return loglik, gradient, hessian


_BOX = ((-5.0, -5.0), (5.0, 5.0))


class TestSearch:
    @pytest.mark.parametrize("hessian", [
        "exact",
        None,                      # gradient only
        (math.nan, 0.0, -1.0),     # not finite
        (1.0, 0.0, 1.0),           # minus it is negative definite
        (-1.0, -2.0, -1.0),        # indefinite
        (-1.0, 0.0, 0.0),          # singular
    ])
    def test_converges_from_an_indefinite_start_on_any_curvature(self, hessian):
        # the exact Hessian is indefinite at the start; wrong or missing
        # curvature costs evaluations, never the maximum
        loglik, gradient, exact = _quartic()
        curvature = {"exact": exact, None: None}.get(hessian, lambda x: hessian)
        search = _maximize_box(_scorer(loglik, gradient, curvature), [0.1, 0.0], *_BOX, 100)
        assert search.converged and search.evaluations < 100
        assert abs(abs(search.x[0]) - 1.0) <= 1e-6 and abs(search.x[1] - 0.5) <= 1e-6
        assert search.ll >= -1e-12

    def test_newton_steps_on_a_quadratic(self):
        # the exact Hessian of a concave quadratic: one step to the maximum,
        # and the gain then predicted is zero
        def loglik(x):
            return -(x[0] - 0.3) ** 2 - (x[0] - 0.3) * (x[1] + 0.2) - 2.0 * (x[1] + 0.2) ** 2

        def gradient(x):
            return (-2.0 * (x[0] - 0.3) - (x[1] + 0.2), -(x[0] - 0.3) - 4.0 * (x[1] + 0.2))

        search = _maximize_box(_scorer(loglik, gradient, lambda x: (-2.0, -1.0, -4.0)),
                               [0.0, 0.0], *_BOX, 100)
        assert search.converged and search.evaluations == 2
        assert search.x == pytest.approx([0.3, -0.2], abs=1e-12)

    def test_step_leaving_the_box_at_once_holds_without_an_evaluation(self):
        # at the upper bound of x0, the gradient points into the box but the
        # Newton step, through the coupling, out of it: x0 is held at no
        # cost and x1 alone steps to its maximum given x0 = 1
        def loglik(x):
            return -(x[0] - 1.5) ** 2 - (x[0] - 1.5) * (x[1] - 2.0) - (x[1] - 2.0) ** 2

        def gradient(x):
            return (-2.0 * (x[0] - 1.5) - (x[1] - 2.0), -(x[0] - 1.5) - 2.0 * (x[1] - 2.0))

        scored = []

        def score(x):
            scored.append(list(x))
            return loglik(x), lambda: (gradient(x), (-2.0, -1.0, -2.0))

        start = [1.0, 3.2]
        assert gradient(start)[0] < 0.0
        search = _maximize_box(score, start, (-5.0, -5.0), (1.0, 5.0), 100)
        assert search.converged and search.evaluations == 2 == len(scored)
        assert all(x[0] == 1.0 for x in scored)
        assert search.x == pytest.approx([1.0, 2.25], abs=1e-12)

    def test_release_whose_step_leaves_the_box_at_once_ends_the_search(self, monkeypatch):
        # converged over x1 with x0 held on its bound: x0's gradient points
        # into the box, but the step over both, through the coupling, out of
        # it.  Holding x0 again restores the held set the search converged
        # on, so the search ends there instead of cycling at no cost
        steps = []

        def counted(hess, held, damp):
            steps.append(list(held))
            assert len(steps) < 100, "the search cycles without evaluating"
            return _step_matrix(hess, held, damp)

        monkeypatch.setattr(citefit.fitting, "_step_matrix", counted)
        score = _scorer(lambda x: -1.0, lambda x: (-1e-20, -1e-12),
                        lambda x: (-1.0, -0.99, -1.0))
        search = _maximize_box(score, [0.0, 0.5], (-5.0, -5.0), (0.0, 5.0), 100)
        assert search.converged and search.evaluations == 1
        assert steps == [[False, False], [True, False], [False, False]]

    @pytest.mark.parametrize("held, want", [
        ([False, False], (4.0 / 7.0, -1.0 / 7.0, 2.0 / 7.0)),
        ([False, True], (0.5, 0.0, 0.5)),      # x0 alone, on its own curvature
        ([True, False], (0.25, 0.0, 0.25)),    # x1 alone
        ([True, True], (0.25, 0.0, 0.25)),
    ])
    def test_step_matrix_is_the_newton_inverse_where_positive_definite(self, held, want):
        # a held coordinate takes the free one's curvature and no coupling
        assert _step_matrix((-2.0, -1.0, -4.0), held, 0.0) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("hess, held, eigenvalues", [
        ((-2.0, 0.0, 1.0), [False, False], (2.0, -1.0)),     # indefinite
        ((-2.0, -2.0, -2.0), [False, False], (4.0, 0.0)),    # singular
        ((1.0, 0.0, 2.0), [False, False], (-1.0, -2.0)),     # negative definite
        ((1.0, 0.0, -1.0), [False, True], (-1.0, -1.0)),     # x0 alone
    ])
    def test_step_matrix_lifts_the_least_eigenvalue(self, hess, held, eigenvalues):
        # the inverse of minus the Hessian shifted until its least eigenvalue
        # is 1e-8 of its largest in size
        top = max(map(abs, eigenvalues))
        shift = 1e-8 * top - min(eigenvalues)
        got = np.linalg.eigvalsh(np.linalg.inv(_matrix(_step_matrix(hess, held, 0.0))))
        assert got.tolist() == pytest.approx(sorted(e + shift for e in eigenvalues), rel=1e-6)

    @pytest.mark.parametrize("hess", [(-2.0, -1.0, -4.0), (-2.0, 0.0, 1.0)])
    def test_damp_adds_that_multiple_of_the_largest_eigenvalue(self, hess):
        top = max(abs(np.linalg.eigvalsh(-_matrix(hess))))
        undamped = np.linalg.inv(_matrix(_step_matrix(hess, [False, False], 0.0)))
        for damp in (1e-4, 0.5, 30.0):
            damped = np.linalg.inv(_matrix(_step_matrix(hess, [False, False], damp)))
            assert damped == pytest.approx(undamped + damp * top * np.eye(2), rel=1e-12)

    @pytest.mark.parametrize("hess", [None, (math.nan, 0.0, -1.0), (-1.0, math.inf, -1.0)])
    def test_step_matrix_without_curvature_is_the_identity(self, hess):
        assert _step_matrix(hess, [False, False], 0.0) == (1.0, 0.0, 1.0)
        assert _step_matrix(hess, [False, False], 1.0) == pytest.approx((0.5, 0.0, 0.5))
