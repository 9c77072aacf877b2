"""Tests for parsing, document persistence and table rendering."""

import hashlib
import io
import json
import math
import pathlib
import re
import tempfile
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citefit import data_io
from citefit.cli import EXIT_OK, main
from citefit.data_io import (
    ResultDocument,
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
from citefit.fitting import EXIT_REASONS, FitResult, FitTrace, fit_hooked, fit_lognormal
from citefit.selection import ComparisonResult, Winner, vuong_test
from citefit.synthesis import RecoveryReport, SeededGenerator, recovery_experiment, sample

from oracles import reference_parse_counts


_TOKENS = st.sampled_from(["0", "5", "12", "+5", " 7 ", "-0", "1_000", "x", "-1", "",
                           " ", "+", "3.0", "\u0663", "\x0c4\x1c", "99999999999999999999",
                           "9223372036854775806", "9223372036854775807"])
_LABELED_ROWS = st.builds("{},{}".format,
                          st.sampled_from(["A", "B", "C", "With, Comma", " spaced ", "x,"]),
                          _TOKENS)
_COUNT_ROWS = _TOKENS
_BLANK_ROWS = st.sampled_from(["", " ", "\t", " \r"])
_HEADER_ROWS = st.sampled_from(["journal,citations", "name, count", "journal"])
# runs of rows under one label, mostly with plain counts, between odd rows
_RUN_LABELS = st.sampled_from(["A", "B", "With, Comma", " spaced ", "x,", "", "5", "A\x00B",
                               "Zeitschrift f\u00fcr \u4e2d\u6587", "\t", "a\x0bb"])
_RUN_TOKENS = st.one_of(st.sampled_from(["0", "7", " 12\t", "007", "999999999999999999"]),
                        _TOKENS)
_RUNS = st.lists(st.one_of(
    st.tuples(_RUN_LABELS, st.lists(_RUN_TOKENS, min_size=1, max_size=8)).map(
        lambda run: [f"{run[0]},{token}" for token in run[1]]),
    st.lists(st.one_of(_BLANK_ROWS, _HEADER_ROWS, _COUNT_ROWS), max_size=2)), max_size=8)


# runs of plain counts, one to a line, between blank lines and signed,
# padded or otherwise odd tokens
_PLAIN_RUNS = st.lists(st.one_of(
    st.lists(st.sampled_from(["0", "7", " 12\t", "007", "999999999999999999"]),
             min_size=1, max_size=8),
    st.lists(st.one_of(_BLANK_ROWS, _TOKENS, st.sampled_from(["+4", " -0 ", "\t3"])),
             max_size=2)), max_size=8)


def _parse_outcome(parse, source):
    """The datasets that ``parse`` returns, or the error, message and line it
    raises."""
    try:
        datasets = parse(source, label="single")
    except Exception as exc:  # noqa: BLE001 - any error must be the same one
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return "ok", [(d.label, d.counts.tolist()) for d in datasets]


class TestParseCounts:
    def test_one_per_line(self):
        [ds] = parse_counts("3\n0\n12\n")
        assert ds.counts.tolist() == [4, 1, 13]

    def test_labeled_grouping_preserves_order(self):
        datasets = parse_counts("journal,citations\nA,2\nB,0\nA,5\n")
        assert [d.label for d in datasets] == ["A", "B"]
        assert datasets[0].counts.tolist() == [3, 6]
        assert datasets[1].counts.tolist() == [1]

    def test_label_is_keyword_only(self):
        # a layout passed where the label once went fails, rather than
        # naming the dataset
        with pytest.raises(TypeError):
            parse_counts("A,2\n", "labeled")

    def test_negative_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_counts("journal,citations\nA,-1\n")

    def test_non_integer_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_counts("5\nx\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_counts("")
        with pytest.raises(ParseError, match="no data rows"):
            parse_counts("journal,citations\n")

    def test_label_with_comma_kept_intact(self):
        [ds] = parse_counts("Title, With Comma,4\n")
        assert ds.label == "Title, With Comma"
        assert ds.counts.tolist() == [5]

    def test_header_after_blank_lines(self):
        datasets = parse_counts("\n \njournal,citations\nA,2\nA,3\n")
        assert [(d.label, d.counts.tolist()) for d in datasets] == [("A", [3, 4])]
        with pytest.raises(ParseError, match="line 4: count is not an integer"):
            parse_counts("\njournal,citations\nA,2\nB,x\n")

    def test_no_header_first_row_is_data(self):
        datasets = parse_counts("A,2\nA,3\n")
        assert datasets[0].counts.tolist() == [3, 4]

    @pytest.mark.parametrize("layout", ["labeled", "one-per-line"])
    def test_counts_must_stay_in_int64_once_shifted(self, layout):
        rows = ["journal,citations", "A,0"] if layout == "labeled" else ["7", "0"]
        [ds] = parse_counts("\n".join(rows + [rows[-1][:-1] + str(2**63 - 2)]))
        # the largest raw count parses to the int64 maximum
        assert ds.counts.tolist()[-2:] == [1, 2**63 - 1]
        for count in (2**63 - 1, 2**63, 10**20):
            text = "\n".join(rows + [rows[-1][:-1] + str(count)])
            with pytest.raises(ParseError, match="largest supported count") as err:
                parse_counts(text)
            assert err.value.line == 3

    def test_first_non_blank_line_names_the_layout(self):
        [ds] = parse_counts("\n\n3\n\n0\n", label="single")
        assert ds.label == "single" and ds.counts.tolist() == [4, 1]
        datasets = parse_counts("journal,citations\nA,2\n\nB,1\n")
        assert [(d.label, d.counts.tolist()) for d in datasets] == [("A", [3]), ("B", [2])]
        with pytest.raises(ParseError, match="line 2: count is not an integer: 'A,2'"):
            parse_counts("3\nA,2\n")
        with pytest.raises(ParseError, match="line 2: expected 'journal,citations'"):
            parse_counts("A,2\n3\n")
        with pytest.raises(ParseError, match="no counts"):
            parse_counts("\n \n")

    @pytest.mark.parametrize("layout", ["labeled", "one-per-line"])
    def test_line_endings_parse_alike(self, tmp_path, layout):
        labeled = ["journal,citations", "A,2", "", "B, 7 ", "A,+0", "B,3"]
        single = ["", "4", " 9 ", "", "0"]
        rows = single if layout == "one-per-line" else labeled
        outcomes = []
        for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            for tail in (["x"], []):  # with a bad last row, and without
                path = tmp_path / f"{name}{len(tail)}.csv"
                bad = ["C,x"] if tail and layout != "one-per-line" else tail
                path.write_bytes((ending.join(rows + bad) + ending).encode())
                with data_io.open_text(path) as fh:
                    outcomes.append((len(tail), _parse_outcome(parse_counts, fh)))
        assert outcomes[0::2] == [outcomes[0]] * 3
        assert outcomes[1::2] == [outcomes[1]] * 3
        assert outcomes[0][1][0] == "ParseError" and outcomes[1][1][0] == "ok"

    @given(st.lists(st.one_of(_LABELED_ROWS, _COUNT_ROWS, _BLANK_ROWS, _HEADER_ROWS),
                    max_size=25),
           st.sampled_from(["", "\n"]))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_row_reference(self, rows, end):
        text = "\n".join(rows) + end
        assert (_parse_outcome(parse_counts, text)
                == _parse_outcome(reference_parse_counts, text))

    @staticmethod
    def _matches_reference_in_pieces(groups, ending, closed, chunk):
        # input is read a few characters at a time, so runs, labels, CRLF
        # endings and the header straddle the edges of the pieces
        text = ending.join(row for group in groups for row in group) + (ending if closed else "")
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")  # a run numpy cannot read to its end warns
            patch.setattr(data_io, "_CHUNK", chunk)
            assert (_parse_outcome(parse_counts, text)
                    == _parse_outcome(reference_parse_counts, text))

    @given(_RUNS, st.sampled_from(["\n", "\r\n"]), st.booleans(), st.integers(1, 12))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_across_chunk_edges(self, groups, ending, closed, chunk):
        self._matches_reference_in_pieces(groups, ending, closed, chunk)

    @given(_PLAIN_RUNS, st.sampled_from(["\n", "\r\n"]), st.booleans(), st.integers(1, 12))
    @settings(max_examples=400, deadline=None)
    def test_one_per_line_matches_reference_across_chunk_edges(self, groups, ending, closed,
                                                               chunk):
        self._matches_reference_in_pieces(groups, ending, closed, chunk)

    @pytest.mark.parametrize("read_all", [False, True])
    def test_digest_covers_a_file_read_in_many_pieces(self, tmp_path, read_all):
        rows = [f"Journal {i // 700},{(i * 7919) % 1000}" for i in range(5000)]
        data = ("journal,citations\n" + "\n".join(rows) + "\n").encode()
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        assert len(data) > 5 * data_io._CHUNK
        digest = hashlib.sha256()
        with data_io.open_text(path, digest) as fh:
            if read_all:  # one read to the end goes through readall, not readinto
                datasets = parse_counts(fh.read())
            else:
                datasets = parse_counts(fh)
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
        assert sum(len(d) for d in datasets) == 5000 and len(datasets) == 8

    @pytest.mark.parametrize("tail", [b"1\xff\n4\n", b"1\xe2\x82\n4\n", b"1\xe2\x82"],
                             ids=["invalid-start", "cut-before-newline", "cut-at-end"])
    def test_decode_error_is_located_in_sized_reads(self, tmp_path, monkeypatch, tail):
        # the line and reason are those of decoding the whole file, found
        # without reading it whole: a read without a size fails here
        class SizedReads(io.BufferedReader):
            def read(self, size=-1):
                assert size is not None and size >= 0, "a read without a size"
                return super().read(size)

        monkeypatch.setattr(data_io, "open", lambda path, mode="r": SizedReads(io.FileIO(path)),
                            raising=False)
        data = b"\n" * 30000 + b"3\n" + tail
        path = tmp_path / "counts.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(ParseError) as located:
            with data_io.open_text(path) as fh:
                parse_counts(fh)
        assert located.value.line == data.count(b"\n", 0, whole.value.start) + 1 == 30002
        assert str(located.value) == (f"line 30002: {str(path)!r} is not UTF-8 text: "
                                      f"{whole.value.reason}")


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


def _stored(tmp_path, data, name="doc.json"):
    """The document read back from a file holding the JSON form ``data``."""
    path = tmp_path / name
    data_io.write_json(data, path)
    return read_result(path)


def _text(tmp_path, doc, name="doc.json"):
    """The text :func:`write_result` stores for ``doc``."""
    path = tmp_path / name
    write_result(doc, path)
    return path.read_text(encoding="utf-8")


def _as_version(data, version):
    """The JSON form ``data`` of a document as version 1, 2 or 3 wrote it.
    Each fit holds the flags that version 4 dropped, because its
    ``exit_reason`` fixes them.  Before version 3 the document also holds the
    keys that version 3 dropped, because another key fixes each, and writes
    a float that is not finite as such.  Version 1 traces hold no
    ``evaluations`` or ``exit_reason``."""
    data["schema_version"] = version
    for model in ("lognormal", "hooked"):
        fit, diag = data[model], data[f"{model}_diagnostics"]
        if fit is None:
            continue
        trace = fit["trace"]
        reason = trace["exit_reason"]
        fit.update(converged=reason not in (None, "budget"), alpha_capped=reason == "cap")
        trace["at_sigma_floor"] = reason == "sigma_floor"
        if version < 3:
            for owner, key in ((fit, "log_likelihood"), (trace, "init_log_likelihood")):
                owner[key] = -math.inf if owner[key] is None else owner[key]
            data[model] = {"model": model, **fit, "iterations": trace["evaluations"] - 1}
            if diag is not None:
                diag["segments"] = [{"index": j, **seg}
                                    for j, seg in enumerate(diag["segments"], 1)]
                data[f"{model}_diagnostics"] = {"model": model, **diag}
        if version == 1:
            del trace["evaluations"], trace["exit_reason"]
    if version < 3 and data["comparison"] is not None:
        data["comparison"]["n_articles"] = data["n_articles"]
    return data


class TestDocumentRoundTrip:
    def test_field_for_field_equality(self):
        doc = _document()
        again = data_io.from_json(ResultDocument, json.loads(json.dumps(data_io.to_json(doc))))
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

    def test_non_object_document_is_parse_error(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected an object"):
            read_result(path)

    @pytest.mark.parametrize("content, error", [
        (b'{"schema_version": 2, ', ParseError),
        (b"[1, 2]", ParseError),
        (b'{"schema_version": 99}', SchemaVersionError),
        (b'{"schema_version": 2, "label": "x"}', ParseError),
        (b'{"schema_version": 2, "kind": "recovery_report"}', ParseError),
        (b'{"label": "\xff"}', ParseError),
    ], ids=["truncated", "not-object", "version", "fields", "recovery-report", "not-utf8"])
    def test_every_error_names_the_file(self, tmp_path, content, error):
        path = tmp_path / "odd name.json"
        path.write_bytes(content)
        with pytest.raises(error, match=re.escape(repr(str(path)))):
            read_result(path)

    def test_version_error_names_both_versions(self, tmp_path):
        doc = _document()
        data = json.loads(_text(tmp_path, doc))
        data["schema_version"] = 99
        with pytest.raises(SchemaVersionError, match=r"99.*1"):
            _stored(tmp_path, data)

    def test_v2_round_trip_keeps_fit_telemetry(self, tmp_path):
        doc = _document()
        data = json.loads(_text(tmp_path, doc))
        assert data["schema_version"] == data_io.SCHEMA_VERSION == 4
        for model in ("lognormal", "hooked"):
            trace = data[model]["trace"]
            assert isinstance(trace["evaluations"], int) and trace["evaluations"] > 0
            assert trace["exit_reason"] in EXIT_REASONS
            assert "restarts" not in trace
        assert _stored(tmp_path, data) == doc
        # version 2 and 3 documents, with the keys versions 3 and 4 dropped,
        # read the same
        for version in (2, 3):
            assert _stored(tmp_path, _as_version(json.loads(json.dumps(data)), version)) == doc

    def test_v4_drops_the_keys_another_key_fixes(self, tmp_path):
        data = json.loads(_text(tmp_path, _document()))
        for model in ("lognormal", "hooked"):
            assert list(data[model]) == ["params", "log_likelihood", "n_articles", "trace"]
            assert list(data[model]["trace"]) == ["init_log_likelihood", "evaluations",
                                                  "exit_reason", "truncation_raised",
                                                  "warnings"]
            diag = data[f"{model}_diagnostics"]
            assert list(diag) == ["segments", "signed_max_diff"]
            assert all(list(seg) == ["start", "end", "empty"] for seg in diag["segments"])
        assert "n_articles" not in data["comparison"]

    def test_v1_document_still_reads(self, tmp_path):
        # version 1 traces described the simplex search; its fields are
        # dropped, the evaluations it lacked load as None and its exit reason
        # comes from its fit's flags
        original = _document()
        data = _as_version(json.loads(_text(tmp_path, original)), 1)
        for model in ("lognormal", "hooked"):
            data[model]["trace"].update(final_ll_spread=1e-12, final_simplex_diameter=5e-7,
                                        restarts=1)
        doc = _stored(tmp_path, data)
        assert doc.hooked.trace.evaluations is None
        assert doc.lognormal.trace.exit_reason == original.lognormal.trace.exit_reason
        assert doc.hooked.trace.exit_reason == original.hooked.trace.exit_reason
        assert doc.schema_version == data_io.SCHEMA_VERSION
        # it is written back as a version 4 document and reads the same
        text = _text(tmp_path, doc, "again.json")
        assert read_result(tmp_path / "again.json") == doc
        assert json.loads(text)["schema_version"] == 4

    @pytest.mark.parametrize("flags, reason", [
        ((True, True, False), "cap"),
        ((False, True, False), "cap"),
        ((False, False, True), "budget"),
        ((True, False, True), "sigma_floor"),
        ((True, False, False), "converged"),
    ])
    def test_v1_flags_name_the_exit_reason(self, tmp_path, flags, reason):
        data = _as_version(data_io.to_json(_document()), 1)
        converged, capped, at_floor = flags
        data["hooked"].update(converged=converged, alpha_capped=capped)
        data["hooked"]["trace"]["at_sigma_floor"] = at_floor
        fit = _stored(tmp_path, data).hooked
        assert fit.trace.exit_reason == reason
        assert (fit.converged, fit.alpha_capped) == (reason != "budget", reason == "cap")

    @pytest.mark.parametrize("ll", [None, -math.inf, math.nan])
    def test_v1_fit_without_a_finite_log_likelihood_has_no_exit_reason(self, tmp_path, ll):
        data = _as_version(data_io.to_json(_document()), 1)
        data["lognormal"]["log_likelihood"] = ll
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        fit = read_result(path).lognormal
        assert fit.trace.exit_reason is None and not fit.converged

    @pytest.mark.parametrize("version", [1, 2])
    def test_hooked_params_without_tail_flag_read_as_truncated(self, tmp_path, version):
        # documents written before the record carried its tail flag describe
        # the truncated law; the current layout holds the flag after truncation
        doc = _document()
        data = json.loads(_text(tmp_path, doc))
        params = data["hooked"]["params"]
        assert list(params) == ["kind", "alpha", "offset", "truncation", "tail_correction"]
        assert params.pop("tail_correction") is False
        back = _stored(tmp_path, _as_version(data, version))
        assert back.hooked.params.tail_correction is False
        assert back.hooked.params == doc.hooked.params

    def test_nan_z_round_trips_as_null(self, tmp_path):
        from citefit.selection import ComparisonResult, Winner

        doc = ResultDocument(
            label="tie", n_articles=4,
            comparison=ComparisonResult(-1.0, -1.0, float("nan"), float("nan"),
                                        Winner.UNDEFINED))
        write_result(doc, tmp_path / "doc.json")
        again = read_result(tmp_path / "doc.json")
        assert math.isnan(again.comparison.vuong_z)
        assert again.comparison.winner is Winner.UNDEFINED

    def test_label_preserved_byte_for_byte(self, tmp_path):
        label = "Ann. Phys. (Berl.), Sect. B/2 édition"
        doc = _document(label=label)
        write_result(doc, tmp_path / "doc.json")
        assert read_result(tmp_path / "doc.json").label == label


@pytest.mark.parametrize("style", ["parameters", "segments"])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_report_prints_the_same_bytes_for_each_version(tmp_path, capsys, version, style):
    # a capped hooked fit (the 10k cell), a lognormal fit on its sigma floor
    # and one whose log-likelihood is not finite, stored as version 4 and as
    # ``version`` stores the same fits
    ds = sample(DiscretisedLognormalParams(2.93, 0.73), 2000, SeededGenerator(3))
    rows = [f"Thin Tail,{c - 1}\n" for c in ds.counts.tolist()] + ["Floor,0\n"] * 50
    (tmp_path / "counts.csv").write_text("".join(rows))
    (tmp_path / "big.txt").write_text("3\n1000000000000000\n")
    new, old = tmp_path / "v4", tmp_path / f"v{version}"
    assert main(["fit", str(tmp_path / "counts.csv"), "--out", str(new)]) == EXIT_OK
    assert main(["fit", str(tmp_path / "big.txt"), "--model", "lognormal",
                 "--out", str(new)]) == EXIT_OK
    old.mkdir()
    reasons = set()
    for path in new.iterdir():
        data = json.loads(path.read_text(encoding="utf-8"))
        reasons.update(data[m]["trace"]["exit_reason"] for m in ("lognormal", "hooked")
                       if data[m])
        (old / path.name).write_text(json.dumps(_as_version(data, version)), encoding="utf-8")
    assert {"cap", "sigma_floor", None} <= reasons
    capsys.readouterr()
    outputs = []
    for folder in (new, old):
        assert main(["report", str(folder), "--style", style]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert style == "segments" or "10k" in outputs[0].out


def _tiny_document():
    return ResultDocument(
        label="tiny", n_articles=3,
        comparison=ComparisonResult(-4.5, -4.0, float("nan"), float("nan"),
                                    Winner.UNDEFINED))


def _capped_fit():
    return FitResult(HookedPowerLawParams(2.5, 1.0, 100), -4.0, 3,
                     FitTrace(-4.25, 9, "cap", warnings=("w",)))


def _v1_document():
    with tempfile.TemporaryDirectory() as folder:
        return _stored(pathlib.Path(folder), _as_version(data_io.to_json(_document()), 1))


# every type the codec persists, in the shapes that need its explicit rules
ROUND_TRIP_CASES = {
    "full": lambda: (ResultDocument, _document()),
    "all_optional_none": lambda: (ResultDocument, ResultDocument(label="bare", n_articles=1)),
    "undefined_winner_nan_z": lambda: (ResultDocument, _tiny_document()),
    "diagnostics_with_empty_segment": lambda: (SegmentDiagnostics, SegmentDiagnostics(
        (SegmentSpec(1, 3), SegmentSpec(0, 0, empty=True)), (0.125, 0.0))),
    "version_1": lambda: (ResultDocument, _v1_document()),
    "tail_corrected_hooked": lambda: (FitResult, replace(
        _capped_fit(), params=HookedPowerLawParams(2.5, 1.0, 100, tail_correction=True))),
    "recovery_lognormal": lambda: (RecoveryReport, recovery_experiment(
        DiscretisedLognormalParams(2.0, 1.0), 1000, seeds=[3, 4])),
    "recovery_hooked": lambda: (RecoveryReport, recovery_experiment(
        HookedPowerLawParams(6.0, 50.0, 5000), 1000, seeds=[3, 4])),
}

# The layout of the documents, as the hand-written serializer that the codec
# replaced wrote them: a change of key order, tags or null handling fails here.
TINY_DOCUMENT_TEXT = """{
  "schema_version": 4,
  "label": "tiny",
  "n_articles": 3,
  "lognormal": null,
  "hooked": null,
  "comparison": {
    "ll_lognormal": -4.5,
    "ll_hooked": -4.0,
    "vuong_z": null,
    "p_two_sided": null,
    "winner": "undefined"
  },
  "lognormal_diagnostics": null,
  "hooked_diagnostics": null,
  "provenance": {}
}
"""
CAPPED_FIT_JSON = (
    '{"params": {"kind": "hooked", "alpha": 2.5, "offset": 1.0, '
    '"truncation": 100, "tail_correction": false}, "log_likelihood": -4.0, "n_articles": 3, '
    '"trace": {"init_log_likelihood": -4.25, "evaluations": 9, "exit_reason": "cap", '
    '"truncation_raised": false, "warnings": ["w"]}}')


class TestCodec:
    @pytest.mark.parametrize("case", list(ROUND_TRIP_CASES))
    def test_round_trip(self, case):
        cls, value = ROUND_TRIP_CASES[case]()
        text = json.dumps(data_io.to_json(value))
        back = data_io.from_json(cls, json.loads(text))
        assert json.dumps(data_io.to_json(back)) == text
        if case != "undefined_winner_nan_z":  # NaN is not equal to itself
            assert back == value

    def test_pinned_layout(self, tmp_path):
        assert _text(tmp_path, _tiny_document()) == TINY_DOCUMENT_TEXT
        assert json.dumps(data_io.to_json(_capped_fit())) == CAPPED_FIT_JSON
        assert data_io.from_json(FitResult, json.loads(CAPPED_FIT_JSON)) == _capped_fit()

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("label"),
        lambda d: d.update(lognormal=[1, 2]),
        lambda d: d["hooked"]["params"].update(kind="pareto"),
        lambda d: d["hooked"]["params"].update(alpha=-1.0),
        lambda d: d["comparison"].update(winner="W"),
        lambda d: d["hooked"]["trace"].pop("init_log_likelihood"),
        lambda d: d["lognormal_diagnostics"].update(segments=3),
        # each value has its field's type
        lambda d: d["lognormal"].update(log_likelihood="abc"),
        lambda d: d.update(label=5),
        lambda d: d["comparison"].update(vuong_z="x"),
        lambda d: d["lognormal_diagnostics"].update(signed_max_diff=["a", "b", "c", "d"]),
        lambda d: d["hooked"]["trace"].update(exit_reason=True),
        lambda d: d["hooked"]["trace"].update(exit_reason=1),
        # an exit reason is one of EXIT_REASONS, and version 1 flags are booleans
        lambda d: d["hooked"]["trace"].update(exit_reason="bogus"),
        lambda d: _as_version(d, 1)["hooked"].update(alpha_capped="yes"),
        lambda d: _as_version(d, 1)["lognormal"]["trace"].update(at_sigma_floor=1),
        lambda d: d["hooked"].update(n_articles=2.0),
        lambda d: d["hooked"]["trace"].update(evaluations=True),
        lambda d: d["lognormal"]["params"].update(mu=False),
        lambda d: d["hooked"]["trace"].update(warnings="w"),
        lambda d: d.update(provenance=[]),
        # null only where the field admits None, or as a float's NaN
        lambda d: d.update(n_articles=None),
        lambda d: d.update(label=None),
        lambda d: d["hooked"].update(params=None),
        lambda d: d["comparison"].update(winner=None),
        lambda d: d["hooked"]["trace"].update(warnings=None),
    ])
    def test_malformed_document_is_parse_error(self, tmp_path, mutate):
        data = data_io.to_json(_document())
        mutate(data)
        with pytest.raises(ParseError, match="malformed"):
            _stored(tmp_path, data)


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
                comparison=ComparisonResult(-10.0, -11.0, -2.58, 0.0099, winner))
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
        from citefit.fitting import FitResult, FitTrace

        fit = FitResult(HookedPowerLawParams(10000.0, 250153.2, 10000),
                        -5167.0, 1240, FitTrace(-5200.0, 120, "cap"))
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
