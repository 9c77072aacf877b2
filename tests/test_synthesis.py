"""Tests for seeded sampling, recovery harnesses and the mixture experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from citefit.distributions import (
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    log_pmf_values,
)
from citefit.errors import DomainError
from citefit import synthesis
from citefit.fitting import Model, fit_hooked, fit_lognormal
from citefit.selection import Winner
from citefit.synthesis import (
    MixtureSpec,
    SeededGenerator,
    mixture_experiment,
    recovery_experiment,
    sample,
    sample_mixture,
)

HOOKED_HEAD_MASS = 0.3876365241826076  # 0.25 / (zeta(2) - 1)
RECOVERY_TRUTHS = [DiscretisedLognormalParams(2.94, 1.03), HookedPowerLawParams(7.7, 175.4)]


class TestSeededGenerator:
    def test_seed_range_checked(self):
        with pytest.raises(DomainError):
            SeededGenerator(-1)
        with pytest.raises(DomainError):
            SeededGenerator(2**64)

    def test_stream_restarts_from_seed(self):
        gen = SeededGenerator(42)
        a = gen.stream().random(5)
        b = gen.stream().random(5)
        assert np.array_equal(a, b)


class TestSample:
    def test_single_draw_in_support(self):
        ds = sample(DiscretisedLognormalParams(0.0, 1.0), 1, SeededGenerator(0))
        assert len(ds) == 1
        assert ds.counts[0] >= 1

    def test_same_seed_same_dataset(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        a = sample(params, 1000, SeededGenerator(7))
        b = sample(params, 1000, SeededGenerator(7))
        assert np.array_equal(a.counts, b.counts)

    def test_head_frequency_matches_closed_form(self):
        params = HookedPowerLawParams(2.0, 1.0, 10000)
        ds = sample(params, 10**5, SeededGenerator(13))
        freq = float(np.mean(ds.counts == 1))
        assert freq == pytest.approx(HOOKED_HEAD_MASS, abs=0.005)

    @pytest.mark.parametrize("params", [
        DiscretisedLognormalParams(0.0, 1.0),
        DiscretisedLognormalParams(2.94, 1.03),
        HookedPowerLawParams(2.0, 1.0, 10000),
        HookedPowerLawParams(7.7, 175.4, 10000),
    ])
    def test_chi_square_against_pmf(self, params):
        from citefit.distributions import log_pmf_values

        n = 10**5
        ds = sample(params, n, SeededGenerator(17))
        # top-20 mass points plus an overflow bucket
        top_support = min(getattr(params, "truncation", 20000), 20000)
        pmf = np.exp(log_pmf_values(params, np.arange(1, top_support + 1)))
        top = np.argsort(pmf)[::-1][:20]
        expected = pmf[top] * n
        observed = np.array([(ds.counts == x + 1).sum() for x in top], dtype=float)
        rest_exp = n - expected.sum()
        rest_obs = n - observed.sum()
        if rest_exp > 5:
            expected = np.append(expected, rest_exp)
            observed = np.append(observed, rest_obs)
        else:
            observed = observed * (n / observed.sum())
        _, p = stats.chisquare(observed, expected * (observed.sum() / expected.sum()))
        assert p > 0.001

    def test_size_validated(self):
        with pytest.raises(DomainError):
            sample(DiscretisedLognormalParams(0.0, 1.0), 0, SeededGenerator(0))


GUIDE = synthesis._GUIDE
EDGES = np.arange(GUIDE) / GUIDE  # u = 0 and u exactly on each bucket's lower edge
SWEEP_TRUTHS = [
    *(DiscretisedLognormalParams(mu, sigma)
      for mu in (-3.0, 0.0, 2.94, 4.0) for sigma in (0.2, 1.03, 1.6)),
    *(HookedPowerLawParams(alpha, offset)
      for alpha in (1.0, 2.0, 7.7, 8000.0) for offset in (0.0, 175.4, 2e4)),
]


class _FixedStream:
    """Stands in for a generator: hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u


def _binary_search_counts(table, u):
    return np.minimum(np.searchsorted(table, u, side="left"), len(table) - 1) + 1


def _guided_counts(inv, u):
    return synthesis._draw(inv, len(u), _FixedStream(u), "x").counts


def _edge_uniforms(rng):
    below = np.nextafter(EDGES[1:], 0.0)  # last double of each bucket
    return np.concatenate([EDGES, below, [np.nextafter(1.0, 0.0)], rng.random(4000)])


class TestGuidedInversion:
    @pytest.mark.parametrize("truth", SWEEP_TRUTHS, ids=str)
    def test_equals_binary_search_on_truths(self, truth):
        inv = synthesis._inversion_table(truth)
        for seed in (0, 1):
            u = np.random.default_rng(seed).random(20000)
            assert np.array_equal(_guided_counts(inv, u), _binary_search_counts(inv.table, u))
        u = _edge_uniforms(np.random.default_rng(2))
        assert np.array_equal(_guided_counts(inv, u), _binary_search_counts(inv.table, u))

    @pytest.mark.parametrize("table", [
        [0.5],
        [1.0],
        [0.2, 0.7, 1.0, 1.0, 1.0, 1.0],  # plateau of ones
        [0.1, 0.1, 0.1, 0.4, 0.4, 0.9, 0.9, 1.0],  # repeated values
        [*EDGES[1::64], 1.0],  # every entry exactly on a bucket edge
        [*np.sort(np.random.default_rng(3).random(50)), 0.999],  # ends below 1
        [0.0, 0.0, 1e-300, 0.5, 0.5 + 2.0**-40, 1.0 - 2.0**-53],
        [*np.linspace(0.0, 1.0, 20001)],  # several entries in every bucket
    ], ids=["one-half", "one-one", "plateau", "repeats", "edges", "below-one",
            "tiny-steps", "dense"])
    def test_equals_binary_search_on_hand_tables(self, table):
        table = np.asarray(table, dtype=float)
        inv = synthesis._with_guide(table)
        u = _edge_uniforms(np.random.default_rng(4))
        assert np.array_equal(_guided_counts(inv, u), _binary_search_counts(table, u))

    def test_counts_golden(self):
        # first draws of the binary-search inversion this replaces
        ln = sample(DiscretisedLognormalParams(2.94, 1.03), 12, SeededGenerator(1))
        hk = sample(HookedPowerLawParams(7.7, 175.4), 12, SeededGenerator(1))
        assert ln.counts.tolist() == [20, 103, 6, 102, 11, 16, 50, 15, 22, 3, 38, 21]
        assert hk.counts.tolist() == [20, 100, 5, 99, 11, 16, 53, 15, 23, 1, 41, 22]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        st.builds(DiscretisedLognormalParams,
                  st.floats(-3.0, 4.0), st.floats(0.2, 1.6)),
        st.builds(HookedPowerLawParams, st.floats(1.0, 8000.0),
                  st.floats(0.0, 2e4), st.integers(1, 20000)),
    ))
    def test_table_non_decreasing(self, truth):
        inv = synthesis._inversion_table(truth)
        assert np.all(np.diff(inv.table) >= 0)
        assert inv.guide[0] == 0 and np.all(np.diff(inv.guide) >= 0)

    @pytest.mark.parametrize("truth, length", [
        (DiscretisedLognormalParams(6.0, 3.0), "593240505665"),
        (DiscretisedLognormalParams(800.0, 3.0), "inf"),
        (HookedPowerLawParams(2.0, 1.0, 10**8 + 1), "100000001"),
    ])
    def test_huge_truth_refused_before_allocating(self, truth, length, monkeypatch):
        def no_table(params, xs):
            raise AssertionError("the inversion table must not be built")

        monkeypatch.setattr(synthesis, "cdf_values", no_table)
        # an infinite length: the tail quantile itself is beyond float range
        message = "is beyond float range" if length == "inf" else f"would hold {length} entries"
        with pytest.raises(DomainError, match=message) as err:
            sample(truth, 10, SeededGenerator(0))
        assert str(truth) in str(err.value)

    def test_mass_beyond_float_resolution_above_one_half(self):
        # 1 - Phi(z0) underflows at mu = -100: every draw is 1, and the fit
        # to them ends at its start, on the scale floor, with ll 0
        truth = DiscretisedLognormalParams(-100.0, 1.0)
        ds = sample(truth, 1000, SeededGenerator(0))
        assert ds.counts.tolist() == [1] * 1000
        fit = fit_lognormal(ds)
        assert fit.log_likelihood == 0.0 and fit.trace.evaluations == 1
        report = recovery_experiment(truth, 1000, seeds=range(2))
        assert all(r.converged and r.ll_gap == 0.0 for r in report.rows)


class TestRecovery:
    def test_lognormal_recovery_medians(self):
        report = recovery_experiment(DiscretisedLognormalParams(2.94, 1.03),
                                     4000, seeds=range(5))
        assert report.truth.model is Model.LOGNORMAL
        assert report.median_errors["mu"] < 0.05
        assert report.median_errors["sigma"] < 0.05
        assert all(r.converged for r in report.rows)

    def test_hooked_ll_gap_non_negative(self):
        report = recovery_experiment(HookedPowerLawParams(7.7, 175.4),
                                     4000, seeds=range(3))
        for row in report.rows:
            assert row.ll_gap >= -0.01

    def test_doubling_n_does_not_worsen_medians(self):
        # direction check at fixed seeds (fresh draws per size, so this is a
        # frozen statistical comparison, not a theorem)
        truth = DiscretisedLognormalParams(2.0, 1.0)
        small = recovery_experiment(truth, 2000, seeds=range(200, 210))
        large = recovery_experiment(truth, 4000, seeds=range(200, 210))
        assert large.median_errors["mu"] <= small.median_errors["mu"] + 1e-12
        assert large.median_errors["sigma"] <= small.median_errors["sigma"] + 1e-12

    @pytest.mark.parametrize("truth", RECOVERY_TRUTHS)
    def test_draws_equal_per_seed_samples(self, truth, monkeypatch):
        drawn = []

        def recording(fit):
            def wrapper(ds, cfg):
                drawn.append(ds.counts.copy())
                return fit(ds, cfg)
            return wrapper

        monkeypatch.setattr(synthesis, "fit_lognormal", recording(fit_lognormal))
        monkeypatch.setattr(synthesis, "fit_hooked", recording(fit_hooked))
        recovery_experiment(truth, 2000, seeds=[3, 11, 4])
        assert len(drawn) == 3
        for counts, seed in zip(drawn, [3, 11, 4]):
            assert np.array_equal(counts, sample(truth, 2000, SeededGenerator(seed)).counts)

    @pytest.mark.parametrize("truth", RECOVERY_TRUTHS)
    def test_rows_match_reference_loop(self, truth):
        seeds = [21, 22, 23]
        report = recovery_experiment(truth, 3000, seeds)
        for row, seed in zip(report.rows, seeds):
            ds = sample(truth, 3000, SeededGenerator(seed))
            fit = fit_lognormal(ds) if truth.model is Model.LOGNORMAL else fit_hooked(ds)
            truth_eval = truth
            if truth.model is Model.HOOKED:
                truth_eval = HookedPowerLawParams(truth.alpha, truth.offset,
                                                  fit.params.truncation)
            ll_truth = math.fsum(log_pmf_values(truth_eval, ds.counts))
            assert row.seed == seed
            assert row.fitted == fit.params
            assert row.converged == fit.converged
            assert row.ll_gap == pytest.approx(fit.log_likelihood - ll_truth, abs=1e-9)

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            recovery_experiment(DiscretisedLognormalParams(0.0, 1.0), 10, [0])

    def test_needs_a_seed(self):
        with pytest.raises(DomainError, match="at least one seed"):
            recovery_experiment(DiscretisedLognormalParams(0.0, 1.0), 2000, [])


class TestMixture:
    def test_weights_normalized(self):
        spec = MixtureSpec((
            (DiscretisedLognormalParams(1.0, 1.0), 2.0),
            (DiscretisedLognormalParams(4.0, 1.0), 6.0),
        ))
        assert spec.weights == pytest.approx((0.25, 0.75))

    def test_single_weight_normalizes_to_one(self):
        spec = MixtureSpec(((DiscretisedLognormalParams(1.0, 1.0), 1.0),))
        assert spec.weights == (1.0,)

    def test_invalid_weights_rejected(self):
        with pytest.raises(DomainError):
            MixtureSpec(((DiscretisedLognormalParams(1.0, 1.0), 0.0),))
        with pytest.raises(DomainError):
            MixtureSpec(())

    def test_component_frequencies_match_weights(self):
        spec = MixtureSpec((
            (DiscretisedLognormalParams(1.0, 1.0), 0.3),
            (DiscretisedLognormalParams(4.0, 1.0), 0.7),
        ))
        _, sizes = sample_mixture(spec, 20000, SeededGenerator(23))
        # binomial tolerance: 4 sd of sqrt(n p q)
        sd = math.sqrt(20000 * 0.3 * 0.7)
        assert abs(sizes[0] - 0.3 * 20000) < 4 * sd

    def test_single_component_is_plain_recovery(self):
        # a degenerate mixture IS the true model: the hooked power law must
        # not win significantly
        spec = MixtureSpec(((DiscretisedLognormalParams(3.0, 1.0), 1.0),))
        report = mixture_experiment(spec, 20000, SeededGenerator(29))
        assert report.comparison.winner is not Winner.H_STAR
        assert report.lognormal_fit.converged

    def test_two_component_report_complete(self):
        spec = MixtureSpec((
            (DiscretisedLognormalParams(1.0, 1.0), 0.5),
            (DiscretisedLognormalParams(4.0, 1.0), 0.5),
        ))
        report = mixture_experiment(spec, 20000, SeededGenerator(31))
        assert report.lognormal_fit.converged
        assert report.hooked_fit.converged
        assert sum(report.component_counts) == 20000
        assert math.isfinite(report.comparison.vuong_z)

    def test_minimum_size(self):
        spec = MixtureSpec(((DiscretisedLognormalParams(1.0, 1.0), 1.0),))
        with pytest.raises(DomainError):
            mixture_experiment(spec, 10, SeededGenerator(0))
