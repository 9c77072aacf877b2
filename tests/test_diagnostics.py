"""Tests for empirical CDFs, segment construction, signed differences and
plot series output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citefit.diagnostics import (
    SegmentSpec,
    empirical_cdf,
    make_segments,
    plot_series,
    segment_differences,
)
from citefit.distributions import DiscretisedLognormalParams, HookedPowerLawParams
from citefit.errors import DomainError, OutputError
from citefit.fitting import CitationDataset, fit_lognormal
from citefit.synthesis import SeededGenerator, sample
from oracles import dense_empirical_cdf, dense_plot_table, dense_segment_differences


# a bulk of small shifted counts with a few stragglers of up to 2e5
_counts = st.lists(st.one_of(st.integers(min_value=1, max_value=40),
                             st.integers(min_value=1, max_value=200_000)),
                   min_size=1, max_size=80)
_lognormals = st.builds(DiscretisedLognormalParams,
                        st.floats(min_value=-3.0, max_value=12.0),
                        st.floats(min_value=0.05, max_value=4.0))


def _hooked_for(ds, tail_correction=False):
    top = int(ds.counts.max())
    return st.builds(HookedPowerLawParams,
                     st.floats(min_value=0.3, max_value=10000.0),
                     st.floats(min_value=0.0, max_value=1e5),
                     st.integers(min_value=top, max_value=2 * top + 10),
                     st.just(tail_correction))


class TestEmpiricalCdf:
    def test_direct_count(self):
        values = empirical_cdf(CitationDataset("test", [1, 1, 2]), [1, 2, 3])
        assert values.tolist() == pytest.approx([2 / 3, 1.0, 1.0])

    def test_point_mass(self):
        values = empirical_cdf(CitationDataset("test", [5]), np.arange(1, 7))
        assert values.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]

    def test_monotone_ending_at_one(self):
        ds = sample(DiscretisedLognormalParams(1.0, 1.0), 2000, SeededGenerator(1))
        values = empirical_cdf(ds, np.arange(1, int(ds.counts.max()) + 1))
        assert np.all(np.diff(values) >= 0)
        assert values[-1] == 1.0
        assert np.array_equal(values, dense_empirical_cdf(ds.counts))


class TestMakeSegments:
    def test_reference_boundaries(self):
        segs = make_segments(53, 4)
        spans = [(s.start, s.end) for s in segs]
        assert spans == [(1, 2), (3, 7), (8, 19), (20, 54)]
        assert not any(s.empty for s in segs)

    def test_degenerate_zero_max(self):
        with pytest.warns(UserWarning):
            segs = make_segments(0, 4)
        assert (segs[0].start, segs[0].end, segs[0].empty) == (1, 1, False)
        assert all(s.empty for s in segs[1:])

    @pytest.mark.parametrize("k", [1, 4])
    def test_zero_max_is_one_unit_segment_then_empties(self, k):
        # the general loop builds the degenerate layout: every breakpoint is 1
        with pytest.warns(UserWarning, match="n_max = 0"):
            segs = make_segments(0, k)
        assert segs == [SegmentSpec(1, 1, 1)] + [
            SegmentSpec(j, 0, 0, empty=True) for j in range(2, k + 1)]

    def test_small_range_produces_empties(self):
        segs = make_segments(1, 4)
        assert (segs[0].start, segs[0].end) == (1, 1)
        assert (segs[3].start, segs[3].end) == (2, 2)
        assert segs[1].empty and segs[2].empty

    def test_integer_breakpoints_stay_disjoint(self):
        # 1 + n_max = 16 puts every breakpoint exactly on an integer
        segs = make_segments(15, 4)
        spans = [(s.start, s.end) for s in segs if not s.empty]
        assert spans == [(1, 2), (3, 4), (5, 8), (9, 16)]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_disjoint_ordered_contained(self, n_max):
        segs = make_segments(n_max, 4)
        assert len(segs) == 4
        assert [s.index for s in segs] == [1, 2, 3, 4]
        prev_end = 0
        for s in segs:
            if s.empty:
                continue
            assert 1 <= s.start <= s.end <= 1 + max(n_max, 0)
            assert s.start > prev_end
            prev_end = s.end
        non_empty = [s for s in segs if not s.empty]
        assert non_empty[-1].end == 1 + n_max if n_max > 0 else True

    def test_single_segment_covers_everything(self):
        [seg] = make_segments(53, 1)
        assert (seg.start, seg.end, seg.empty) == (1, 54, False)

    def test_k_validation(self):
        with pytest.raises(DomainError):
            make_segments(10, 0)


class TestSegmentDifferences:
    def test_saturated_model_gives_zero_everywhere(self):
        # every article and all of the model's mass sit at the first point,
        # so both CDFs are 1 throughout
        ds = CitationDataset("test", [1] * 9)
        segs = make_segments(53, 4)
        for params in (HookedPowerLawParams(10000.0, 1.0, 100),
                       DiscretisedLognormalParams(-20.0, 0.5)):
            diag = segment_differences(ds, params, segs)
            assert diag.signed_max_diff == (0.0, 0.0, 0.0, 0.0)
            assert diag.model is params.model

    def test_sign_convention_model_above_empirical(self):
        # a model whose CDF exceeds the empirical everywhere reports negative
        ds = CitationDataset("test", [4, 5, 6, 8])
        segs = make_segments(7, 2)
        diag = segment_differences(ds, DiscretisedLognormalParams(-20.0, 0.5), segs)
        assert all(d < 0 for d in diag.signed_max_diff)

    def test_self_sampled_diffs_shrink(self):
        # median worst-segment deviation over 10 fixed seeds must drop as the
        # self-sampled dataset grows
        from statistics import median

        params = DiscretisedLognormalParams(2.0, 1.0)
        medians = {}
        for n in (5000, 50000):
            worsts = []
            for seed in range(10, 20):
                ds = sample(params, n, SeededGenerator(seed))
                segs = make_segments(int(ds.counts.max()) - 1, 4)
                diag = segment_differences(ds, params, segs)
                worsts.append(max(abs(d) for d in diag.signed_max_diff))
            medians[n] = median(worsts)
        assert medians[50000] < 0.02
        assert medians[50000] < medians[5000]

    def test_empty_segments_report_zero(self):
        ds = CitationDataset("test", [1, 1, 2])
        segs = make_segments(1, 4)
        diag = segment_differences(ds, DiscretisedLognormalParams(0.0, 1.0), segs)
        assert diag.signed_max_diff[1] == 0.0
        assert diag.signed_max_diff[2] == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(data=st.data(), counts=_counts, k=st.integers(min_value=1, max_value=6),
           tail_correction=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_dense_evaluation(self, data, counts, k, tail_correction):
        # the knots give, bit for bit, the per-integer algorithm's extremes
        ds = CitationDataset("test", counts)
        segs = make_segments(int(ds.counts.max()) - 1, k)
        for params in (data.draw(_lognormals), data.draw(_hooked_for(ds, tail_correction))):
            diag = segment_differences(ds, params, segs)
            assert diag.signed_max_diff == dense_segment_differences(ds, params, segs)

    def test_diffs_bounded(self):
        ds = sample(HookedPowerLawParams(3.0, 10.0), 3000, SeededGenerator(6))
        segs = make_segments(int(ds.counts.max()) - 1, 4)
        diag = segment_differences(ds, DiscretisedLognormalParams(0.0, 0.5), segs)
        assert all(-1.0 <= d <= 1.0 for d in diag.signed_max_diff)


class TestPlotSeries:
    @given(data=st.data(), counts=_counts, tail_correction=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_dense_rows(self, data, counts, tail_correction):
        ds = CitationDataset("test", counts)
        models = [data.draw(_lognormals), data.draw(_hooked_for(ds, tail_correction))]
        series = plot_series(ds, [("lognormal", models[0]), ("hooked", models[1])])
        rows = np.column_stack([col for _, col in series.columns])
        dense = dense_plot_table(ds, models)
        assert series.xs[-1] == ds.counts.max() and np.all(np.diff(series.xs) > 0)
        assert np.array_equal(rows, dense[series.xs - 1])


    def _series(self):
        ds = sample(DiscretisedLognormalParams(1.5, 1.0), 800,
                    SeededGenerator(31), label="Sample <Journal>")
        fit = fit_lognormal(ds)
        hk = HookedPowerLawParams(4.0, 10.0, 10000)
        return ds, plot_series(ds, [("lognormal", fit.params), ("hooked", hk)])

    def test_structure_has_all_curves(self):
        _, series = self._series()
        svg = series.to_svg()
        assert svg.count("<polyline") == 3
        for label in ("empirical", "lognormal", "hooked"):
            assert label in svg
        assert "&lt;Journal&gt;" in svg  # label escaped, not mangled

    def test_csv_sidecar_ends_at_one(self):
        _, series = self._series()
        lines = series.to_csv().strip().splitlines()
        assert lines[0] == "x,empirical,lognormal,hooked"
        final = lines[-1].split(",")
        assert abs(float(final[1]) - 1.0) < 1e-9

    def test_byte_identical_output(self, tmp_path):
        _, series = self._series()
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        series.write(p1)
        series.write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_write_failure_includes_path(self, tmp_path):
        _, series = self._series()
        bad = tmp_path / "missing_dir" / "plot.svg"
        with pytest.raises(OutputError, match="plot.svg"):
            series.write(bad)

    def test_needs_at_least_one_model(self):
        ds = CitationDataset("test", [1, 2, 3])
        with pytest.raises(DomainError):
            plot_series(ds, [])
