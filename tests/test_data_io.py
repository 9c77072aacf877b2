"""Tests for parsing, document persistence and table rendering."""

import json
import math

import pytest

from citefit import data_io
from citefit.data_io import (
    ResultDocument,
    dumps_result,
    loads_result,
    parse_counts,
    read_result,
    render_table,
    write_result,
)
from citefit.diagnostics import (
    SegmentDiagnostics,
    SegmentSpec,
    make_segments,
    segment_differences,
)
from citefit.distributions import DiscretisedLognormalParams, HookedPowerLawParams
from citefit.errors import ParseError, SchemaVersionError
from citefit.fitting import EXIT_REASONS, FitResult, FitTrace, Model, fit_hooked, fit_lognormal
from citefit.selection import ComparisonResult, Winner, vuong_test
from citefit.synthesis import RecoveryReport, SeededGenerator, recovery_experiment, sample


class TestParseCounts:
    def test_one_per_line(self):
        [ds] = parse_counts("3\n0\n12\n")
        assert ds.counts.tolist() == [3, 0, 12]
        assert not ds.shifted

    def test_labeled_grouping_preserves_order(self):
        datasets = parse_counts("journal,citations\nA,2\nB,0\nA,5\n",
                                format="labeled")
        assert [d.label for d in datasets] == ["A", "B"]
        assert datasets[0].counts.tolist() == [2, 5]
        assert datasets[1].counts.tolist() == [0]

    def test_negative_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_counts("journal,citations\nA,-1\n", format="labeled")

    def test_non_integer_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_counts("5\nx\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_counts("")
        with pytest.raises(ParseError, match="no data rows"):
            parse_counts("journal,citations\n", format="labeled")

    def test_label_with_comma_kept_intact(self):
        [ds] = parse_counts("Title, With Comma,4\n", format="labeled")
        assert ds.label == "Title, With Comma"
        assert ds.counts.tolist() == [4]

    @pytest.mark.parametrize("format", ["labeled", "auto"])
    def test_header_after_blank_lines(self, format):
        datasets = parse_counts("\n \njournal,citations\nA,2\nA,3\n", format=format)
        assert [(d.label, d.counts.tolist()) for d in datasets] == [("A", [2, 3])]
        with pytest.raises(ParseError, match="line 4: count is not an integer"):
            parse_counts("\njournal,citations\nA,2\nB,x\n", format=format)

    def test_no_header_first_row_is_data(self):
        datasets = parse_counts("A,2\nA,3\n", format="labeled")
        assert datasets[0].counts.tolist() == [2, 3]

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            parse_counts("1\n", format="rows")

    def test_auto_format_follows_first_non_blank_line(self):
        [ds] = parse_counts("\n\n3\n\n0\n", format="auto", label="single")
        assert ds.label == "single" and ds.counts.tolist() == [3, 0]
        datasets = parse_counts("journal,citations\nA,2\n\nB,1\n", format="auto")
        assert [(d.label, d.counts.tolist()) for d in datasets] == [("A", [2]), ("B", [1])]
        with pytest.raises(ParseError, match="no counts"):
            parse_counts("\n \n", format="auto")


def _document(seed=41, label="Journal X"):
    ds = sample(DiscretisedLognormalParams(1.8, 0.9), 900, SeededGenerator(seed),
                label=label)
    ln = fit_lognormal(ds)
    hk = fit_hooked(ds)
    comparison = vuong_test(ds, hk.params, ln.params)
    segments = make_segments(int(ds.counts.max()) - 1)
    return ResultDocument(
        label=label,
        n_articles=len(ds),
        lognormal=ln,
        hooked=hk,
        comparison=comparison,
        lognormal_diagnostics=segment_differences(ds, ln.params, segments),
        hooked_diagnostics=segment_differences(ds, hk.params, segments),
        provenance={"config": {"alpha_cap": 10000.0}},
    )


class TestDocumentRoundTrip:
    def test_field_for_field_equality(self):
        doc = _document()
        again = loads_result(dumps_result(doc))
        assert again == doc

    def test_file_round_trip(self, tmp_path):
        doc = _document()
        path = tmp_path / "doc.json"
        write_result(doc, path)
        assert read_result(path) == doc

    def test_truncated_file_is_parse_error(self, tmp_path):
        doc = _document()
        path = tmp_path / "doc.json"
        write_result(doc, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            read_result(path)

    def test_version_error_names_both_versions(self):
        doc = _document()
        data = json.loads(dumps_result(doc))
        data["schema_version"] = 99
        with pytest.raises(SchemaVersionError, match=r"99.*1"):
            data_io.document_from_dict(data)

    def test_v2_round_trip_keeps_fit_telemetry(self):
        doc = _document()
        data = json.loads(dumps_result(doc))
        assert data["schema_version"] == data_io.SCHEMA_VERSION == 2
        for model in ("lognormal", "hooked"):
            trace = data[model]["trace"]
            assert isinstance(trace["evaluations"], int) and trace["evaluations"] > 0
            assert trace["exit_reason"] in EXIT_REASONS
            assert "restarts" not in trace
        assert data_io.document_from_dict(data) == doc

    def test_v1_document_still_reads(self):
        # version 1 traces described the simplex search; its fields are
        # dropped and the telemetry it lacked loads as None
        data = json.loads(dumps_result(_document()))
        data["schema_version"] = 1
        for model in ("lognormal", "hooked"):
            trace = data[model]["trace"]
            del trace["evaluations"], trace["exit_reason"]
            trace.update(final_ll_spread=1e-12, final_simplex_diameter=5e-7, restarts=1)
        doc = data_io.document_from_dict(data)
        assert doc.hooked.trace.evaluations is None
        assert doc.lognormal.trace.exit_reason is None
        assert doc.schema_version == data_io.SCHEMA_VERSION
        # it is written back as a version 2 document and reads the same
        assert loads_result(dumps_result(doc)) == doc
        assert json.loads(dumps_result(doc))["schema_version"] == 2

    def test_nan_z_round_trips_as_null(self):
        from citefit.selection import ComparisonResult, Winner

        doc = ResultDocument(
            label="tie", n_articles=4,
            comparison=ComparisonResult(-1.0, -1.0, float("nan"), float("nan"),
                                        Winner.UNDEFINED, 4))
        again = loads_result(dumps_result(doc))
        assert math.isnan(again.comparison.vuong_z)
        assert again.comparison.winner is Winner.UNDEFINED

    def test_label_preserved_byte_for_byte(self):
        label = "Ann. Phys. (Berl.), Sect. B/2 édition"
        doc = _document(label=label)
        assert loads_result(dumps_result(doc)).label == label


def _tiny_document():
    return ResultDocument(
        label="tiny", n_articles=3,
        comparison=ComparisonResult(-4.5, -4.0, float("nan"), float("nan"),
                                    Winner.UNDEFINED, 3))


def _capped_fit():
    return FitResult(Model.HOOKED, HookedPowerLawParams(2.5, 1.0, 100), -4.0,
                     False, True, 7, 3, FitTrace(-4.25, 9, "cap", warnings=("w",)))


def _v1_document():
    data = data_io.to_json(_document())
    data["schema_version"] = 1
    for model in ("lognormal", "hooked"):
        del data[model]["trace"]["evaluations"], data[model]["trace"]["exit_reason"]
    return data_io.document_from_dict(data)


# every type the codec persists, in the shapes that need its explicit rules
ROUND_TRIP_CASES = {
    "full": lambda: (ResultDocument, _document()),
    "all_optional_none": lambda: (ResultDocument, ResultDocument(label="bare", n_articles=1)),
    "undefined_winner_nan_z": lambda: (ResultDocument, _tiny_document()),
    "named_diagnostics_model": lambda: (SegmentDiagnostics, SegmentDiagnostics(
        Model.HOOKED, (SegmentSpec(1, 1, 3), SegmentSpec(2, 4, 9, empty=True)), (0.125, 0.0))),
    "version_1": lambda: (ResultDocument, _v1_document()),
    "recovery_lognormal": lambda: (RecoveryReport, recovery_experiment(
        DiscretisedLognormalParams(2.0, 1.0), 1000, seeds=[3, 4])),
    "recovery_hooked": lambda: (RecoveryReport, recovery_experiment(
        HookedPowerLawParams(6.0, 50.0, 5000), 1000, seeds=[3, 4])),
}

# The layout of the documents, as the hand-written serializer that the codec
# replaced wrote them: a change of key order, tags or null handling fails here.
TINY_DOCUMENT_TEXT = """{
  "schema_version": 2,
  "label": "tiny",
  "n_articles": 3,
  "lognormal": null,
  "hooked": null,
  "comparison": {
    "ll_lognormal": -4.5,
    "ll_hooked": -4.0,
    "vuong_z": null,
    "p_two_sided": null,
    "winner": "undefined",
    "n_articles": 3
  },
  "lognormal_diagnostics": null,
  "hooked_diagnostics": null,
  "provenance": {}
}
"""
CAPPED_FIT_JSON = (
    '{"model": "hooked", "params": {"kind": "hooked", "alpha": 2.5, "offset": 1.0, '
    '"truncation": 100}, "log_likelihood": -4.0, "converged": false, '
    '"alpha_capped": true, "iterations": 7, "n_articles": 3, "trace": '
    '{"init_log_likelihood": -4.25, "evaluations": 9, "exit_reason": "cap", '
    '"at_sigma_floor": false, "truncation_raised": false, "warnings": ["w"]}}')


class TestCodec:
    @pytest.mark.parametrize("case", list(ROUND_TRIP_CASES))
    def test_round_trip(self, case):
        cls, value = ROUND_TRIP_CASES[case]()
        text = json.dumps(data_io.to_json(value))
        back = data_io.from_json(cls, json.loads(text))
        assert json.dumps(data_io.to_json(back)) == text
        if case != "undefined_winner_nan_z":  # NaN is not equal to itself
            assert back == value

    def test_pinned_layout(self):
        assert dumps_result(_tiny_document()) == TINY_DOCUMENT_TEXT
        assert json.dumps(data_io.to_json(_capped_fit())) == CAPPED_FIT_JSON
        assert data_io.from_json(FitResult, json.loads(CAPPED_FIT_JSON)) == _capped_fit()

    def test_diagnostics_model_name_reads_back_as_model_when_known(self):
        for model in Model:
            diag = data_io.from_json(SegmentDiagnostics, {
                "model": model.value, "segments": [], "signed_max_diff": []})
            assert diag.model is model

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("label"),
        lambda d: d.update(lognormal=[1, 2]),
        lambda d: d["hooked"]["params"].update(kind="pareto"),
        lambda d: d["hooked"]["params"].update(alpha=-1.0),
        lambda d: d["comparison"].update(winner="W"),
        lambda d: d["hooked"]["trace"].pop("init_log_likelihood"),
        lambda d: d["lognormal_diagnostics"].update(segments=3),
        lambda d: d["hooked_diagnostics"].update(model="custom"),
    ])
    def test_malformed_document_is_parse_error(self, mutate):
        data = data_io.to_json(_document())
        mutate(data)
        with pytest.raises(ParseError, match="malformed"):
            data_io.document_from_dict(data)


class TestRenderParameters:
    def test_capped_alpha_renders_10k(self):
        ds = sample(DiscretisedLognormalParams(2.93, 0.73), 5000, SeededGenerator(3),
                    label="Thin Tail")
        hk = fit_hooked(ds)
        assert hk.alpha_capped
        doc = ResultDocument(label="Thin Tail", n_articles=len(ds), hooked=hk)
        table = render_table([doc])
        assert "10k" in table

    def test_starred_winner_renders(self):
        doc = _document()
        table = render_table([doc])
        row = [line for line in table.splitlines() if "Journal X" in line][0]
        assert row.endswith(("L*", "H*", "L", "H"))

    def test_each_winner_value_renders_its_symbol(self):
        from citefit.selection import ComparisonResult, Winner

        for winner, symbol in ((Winner.L_STAR, "L*"), (Winner.H_STAR, "H*"),
                               (Winner.L, "L"), (Winner.H, "H")):
            doc = ResultDocument(
                label="row", n_articles=10,
                comparison=ComparisonResult(-10.0, -11.0, -2.58, 0.0099,
                                            winner, 10))
            row = [line for line in render_table([doc]).splitlines()
                   if line.startswith("row")][0]
            assert row.endswith(symbol)

    def test_column_header_order(self):
        table = render_table([_document()])
        header = table.splitlines()[0].split()
        assert header[:3] == ["Journal", "Art.", "Ln"]
        assert "Vuong" in header and "Best" in header

    def test_formatting_precision(self):
        doc = _document()
        row = [line for line in render_table([doc]).splitlines()
               if "Journal X" in line][0]
        assert f"{doc.lognormal.params.mu:.2f}" in row
        assert f"{doc.lognormal.log_likelihood:.1f}" in row

    def test_large_offset_renders_integer(self):
        from citefit.fitting import FitResult, FitTrace, Model

        fit = FitResult(Model.HOOKED, HookedPowerLawParams(10000.0, 250153.2, 10000),
                        -5167.0, True, True, 100, 1240,
                        FitTrace(-5200.0, 120, "cap"))
        doc = ResultDocument(label="Capped", n_articles=1240, hooked=fit)
        table = render_table([doc])
        assert "250153" in table and "250153.2" not in table

    def test_empty_results_rejected(self):
        with pytest.raises(ParseError):
            render_table([])


class TestRenderSegments:
    def test_summary_rows_present(self):
        table = render_table([_document(), _document(seed=43, label="Journal Y")],
                             style="segments")
        for name in ("Mean", "Median", "Total >0", "Total <0", "Total >1%",
                     "Total <-1%"):
            assert name in table

    def test_whole_percent_cells(self):
        table = render_table([_document()], style="segments")
        data_row = [line for line in table.splitlines() if "Journal X" in line][0]
        cells = data_row.split()[2:]
        assert all(c == "-" or c.rstrip("%").lstrip("-").isdigit() for c in cells)

    def test_summary_matches_recomputation(self):
        docs = [_document(seed=s, label=f"J{s}") for s in (41, 42, 43)]
        table = render_table(docs, style="segments")
        mean_row = [line for line in table.splitlines()
                    if line.startswith("Mean")][0]
        first_mean = float(mean_row.split()[1].rstrip("%"))
        values = [d.lognormal_diagnostics.signed_max_diff[0] for d in docs]
        assert first_mean == pytest.approx(100 * sum(values) / len(values), abs=0.051)

    def test_unknown_style(self):
        with pytest.raises(ParseError):
            render_table([_document()], style="wide")
