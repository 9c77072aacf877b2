"""Tests for the command-line surface: commands, exit codes, outputs."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citefit
from citefit import synthesis
from citefit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    CliConfig,
    analyze_dataset,
    config_from_args,
    build_parser,
    main,
)
from citefit.data_io import STYLE_PARAMETERS, from_json, read_result, render_table
from citefit.distributions import DiscretisedLognormalParams, HookedPowerLawParams
from citefit.fitting import CitationDataset, FitConfig
from citefit.selection import total_log_likelihood
from citefit.synthesis import RecoveryReport, SeededGenerator, recovery_experiment, sample


SMOKE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "smoke_counts.csv")

# the tables round their values, so unlike the full-precision documents they
# hold across numpy builds
SMOKE_COMPARE = """\
Journal  Art.  Ln mu  Ln sigma   Ln LL  Hk alpha  Hk B   Hk LL  Vuong  Best
Smoke A    40   2.02      1.01  -137.9       6.3  51.5  -139.0  -0.91     L
Smoke B    40   0.72      0.90   -79.7       7.5  14.5   -79.8  -0.22     L
"""
SMOKE_DIAGNOSE = """\
Journal            S1 Ln  S2 Ln  S3 Ln  S4 Ln  S1 hk  S2 hk  S3 hk  S4 hk
Smoke A              -1%    -2%    11%    -7%    -6%    -6%    12%    -7%
Smoke B              -1%     4%    -3%    -1%    -2%     5%    -2%    -2%
Mean               -1.0%   1.0%   3.8%  -4.1%  -3.7%  -0.1%   4.9%  -4.1%
Median             -1.0%   1.0%   3.8%  -4.1%  -3.7%  -0.1%   4.9%  -4.1%
Total >0               0      1      1      0      0      1      1      0
Total <0               2      1      1      2      2      1      1      2
Total >1%              0      1      1      0      0      1      1      0
Total <-1%             1      1      1      2      2      1      1      2
Total in [-1%,1%]      1      0      0      0      0      0      0      0
"""


@pytest.fixture()
def labeled_input(tmp_path):
    path = tmp_path / "counts.csv"
    rows = ["journal,citations"]
    for label, mu, seed in (("Journal A", 2.0, 71), ("Journal B", 0.8, 72)):
        ds = sample(DiscretisedLognormalParams(mu, 1.0), 400, SeededGenerator(seed))
        rows += [f"{label},{c - 1}" for c in ds.counts]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestFitCommand:
    def test_writes_one_document_per_journal(self, labeled_input, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", str(labeled_input), "--out", str(out)]) == EXIT_OK
        files = sorted(os.listdir(out))
        assert files == ["Journal_A.json", "Journal_B.json"]
        doc = read_result(out / "Journal_A.json")
        assert doc.lognormal is not None and doc.hooked is not None
        assert doc.comparison is not None
        assert capsys.readouterr().out.count("lognormal LL=") == 2

    def test_single_model_selection(self, labeled_input, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", str(labeled_input), "--out", str(out),
                     "--model", "lognormal"]) == EXIT_OK
        doc = read_result(out / "Journal_A.json")
        assert doc.lognormal is not None
        assert doc.hooked is None and doc.comparison is None

    def test_requires_out(self, labeled_input, capsys):
        assert main(["fit", str(labeled_input)]) == EXIT_USAGE

    def test_provenance_records_config_and_digest(self, labeled_input, tmp_path):
        out = tmp_path / "out"
        main(["fit", str(labeled_input), "--out", str(out), "--alpha-cap", "50"])
        doc = read_result(out / "Journal_A.json")
        assert doc.provenance["config"]["alpha_cap"] == 50.0
        assert doc.provenance["input_sha256"] == hashlib.sha256(
            labeled_input.read_bytes()).hexdigest()
        assert "created" not in doc.provenance  # timestamps are opt-in

    def test_tail_corrected_document_scores_to_its_log_likelihood(self, tmp_path):
        # the stored hooked record names the tail-corrected law it was fitted
        # under, so scoring it after reading it back gives the stored value
        counts = SeededGenerator(11).stream().zipf(2.2, 3000) - 1
        path = tmp_path / "zipf.txt"
        path.write_text("".join(f"{c}\n" for c in counts))
        out = tmp_path / "out"
        assert main(["fit", str(path), "--tail-correct", "--out", str(out)]) == EXIT_OK
        doc = read_result(out / "zipf.json")
        assert doc.hooked.params.tail_correction is True
        assert doc.provenance["config"]["tail_correction"] is True
        ds = CitationDataset("zipf", counts + 1)
        for fit in (doc.hooked, doc.lognormal):
            assert total_log_likelihood(ds, fit.params) == pytest.approx(
                fit.log_likelihood, rel=1e-12)
        assert doc.comparison.ll_hooked == pytest.approx(doc.hooked.log_likelihood, rel=1e-12)

    def test_zero_mass_count_is_stored_as_not_converged(self, tmp_path, capsys):
        # the lognormal gives a count of 1e15 no mass at any parameters; its
        # infinite log-likelihood is stored as null and reads back as NaN
        path = tmp_path / "big.txt"
        path.write_text("3\n1000000000000000\n")
        out = tmp_path / "out"
        argv = ["fit", str(path), "--model", "lognormal", "--out", str(out)]
        assert main(argv) == EXIT_OK
        fit = read_result(out / "big.json").lognormal
        assert math.isnan(fit.log_likelihood) and not fit.converged
        assert fit.trace.exit_reason is None
        assert "zero model probability at shifted counts [1000000000000001]" in (
            fit.trace.warnings[-1])

    def test_documents_are_strict_json(self, tmp_path, capsys):
        # no NaN or Infinity, which RFC 8259 does not allow, even where the
        # log-likelihood is -inf
        def refuse(name):
            raise ValueError(f"non-finite constant {name}")

        path = tmp_path / "big.txt"
        path.write_text("3\n1000000000000000\n")
        out = tmp_path / "out"
        assert main(["fit", str(path), "--model", "lognormal", "--out", str(out)]) == EXIT_OK
        assert main(["fit", SMOKE, "--out", str(out)]) == EXIT_OK
        text = (out / "big.json").read_text(encoding="utf-8")
        fit = json.loads(text, parse_constant=refuse)["lognormal"]
        assert fit["log_likelihood"] is None and fit["trace"]["init_log_likelihood"] is None
        for name in os.listdir(out):
            json.loads((out / name).read_text(encoding="utf-8"), parse_constant=refuse)
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_OK
        [row] = [line.split() for line in capsys.readouterr().out.splitlines()
                 if line.startswith("big")]
        assert len(row) == 10 and row[4] == "-"  # the lognormal log-likelihood

    def test_input_is_read_in_one_pass(self, tmp_path):
        # CRLF rows, multi-byte labels and a file far larger than one read
        # buffer: the digest of the streamed bytes is that of the file, and
        # the file is opened once (counted through the interpreter's audit
        # events, in a child so the hook does not outlive the test)
        path = tmp_path / "big.csv"
        rows = [f"Zeitschrift für Physik {k % 3},{(k * 7) % 40}" for k in range(9000)]
        path.write_bytes(("journal,citations\r\n" + "\r\n".join(rows)).encode("utf-8"))
        out = tmp_path / "out"
        argv = ["fit", str(path), "--out", str(out), "--model", "lognormal"]
        script = (
            "import sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda e, a: e == 'open' and opened.append(str(a[0])))\n"
            "from citefit.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, opened.count({str(path)!r}))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(citefit.__file__)))
        child = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
        assert child.stdout.split()[-2:] == [str(EXIT_OK), "1"]
        doc = read_result(out / "Zeitschrift_f_r_Physik_0.json")
        assert doc.provenance["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc.n_articles == 3000


class TestCompareCommand:
    def test_prints_parameters_table(self, labeled_input, capsys):
        assert main(["compare", str(labeled_input)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Journal")
        assert "Journal A" in out and "Vuong" in out

    def test_smoke_fixture_table_is_pinned(self, capsys):
        assert main(["compare", SMOKE]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == SMOKE_COMPARE and captured.err == ""

    def test_starred_label_appears_for_clear_winner(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        ds = sample(DiscretisedLognormalParams(3.0, 1.0), 5000, SeededGenerator(2))
        path.write_text("\n".join(str(c - 1) for c in ds.counts), encoding="utf-8")
        assert main(["compare", str(path)]) == EXIT_OK
        table = capsys.readouterr().out
        row = [l for l in table.splitlines() if l.startswith("one")][0]
        assert row.endswith("L*")


    def test_one_article_journal_is_compared_without_a_winner(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("journal,citations\nA,3\nA,0\nA,7\nA,2\nSolo,4\nB,1\nB,9\nB,0\n")
        assert main(["compare", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        rows = {line.split()[0]: line.split() for line in captured.out.splitlines()[1:]}
        assert list(rows) == ["A", "Solo", "B"]
        assert rows["Solo"][1] == "1" and rows["Solo"][-2:] == ["-", "-"]
        assert "error" not in captured.err


class TestDiagnoseCommand:
    def test_prints_segments_and_writes_plots(self, labeled_input, tmp_path, capsys):
        plots = tmp_path / "plots"
        assert main(["diagnose", str(labeled_input), "--plot", str(plots)]) == EXIT_OK
        assert sorted(os.listdir(plots)) == [
            "Journal_A.csv", "Journal_A.svg", "Journal_B.csv", "Journal_B.svg"]
        out = capsys.readouterr().out
        assert "S1 Ln" in out and "Mean" in out

    def test_smoke_fixture_table_is_pinned(self, capsys):
        assert main(["diagnose", SMOKE]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == SMOKE_DIAGNOSE and captured.err == ""

    def test_extreme_count_plots_in_bounded_memory(self, tmp_path):
        # diagnostics and plots follow the distinct counts, not the largest
        # one; the child's address space is capped at 768 MiB
        pytest.importorskip("resource")
        ds = sample(DiscretisedLognormalParams(2.94, 1.03), 3000, SeededGenerator(5))
        path = tmp_path / "extreme.txt"
        path.write_text("".join(f"{c - 1}\n" for c in ds.counts) + "10000000\n")
        plots = tmp_path / "plots"
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
                  "from citefit.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(citefit.__file__)))
        child = subprocess.run(
            [sys.executable, "-c", script, "diagnose", str(path), "--plot", str(plots)],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == EXIT_OK, child.stderr
        assert sorted(os.listdir(plots)) == ["extreme.csv", "extreme.svg"]


class TestSimulateCommand:
    def test_recovery_prints_report(self, capsys):
        assert main(["simulate", "recovery", "--truth", "lognormal",
                     "--mu", "2.0", "--sigma", "1.0", "--n", "2000",
                     "--seeds", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "median abs errors" in out

    @pytest.mark.parametrize("truth, flags", [
        (DiscretisedLognormalParams(2.0, 1.0),
         ["--truth", "lognormal", "--mu", "2.0", "--sigma", "1.0"]),
        (HookedPowerLawParams(6.0, 50.0),
         ["--truth", "hooked", "--alpha", "6.0", "--offset", "50.0"]),
    ])
    def test_recovery_report_document(self, tmp_path, capsys, truth, flags):
        out = tmp_path / "out"
        assert main(["simulate", "recovery", *flags, "--n", "1000", "--seeds", "2",
                     "--seed", "4", "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "recovery_report.json").read_text(encoding="utf-8"))
        assert list(data) == ["schema_version", "kind", "truth", "n", "rows",
                              "median_errors", "worst_errors", "provenance"]
        assert data["kind"] == "recovery_report" and data["provenance"]["seed"] == 4
        assert from_json(RecoveryReport, data) == recovery_experiment(truth, 1000, [4, 5])

    def test_mixture_prints_table_and_components(self, capsys):
        assert main(["simulate", "mixture", "--component", "1,1,0.5",
                     "--component", "4,1,0.5", "--n", "2000",
                     "--seed", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sim:mixture" in out
        assert out.count("component mu=") == 2

    def test_mixture_requires_components(self, capsys):
        assert main(["simulate", "mixture", "--n", "2000"]) == EXIT_USAGE

    def test_bad_component_spec(self, capsys):
        assert main(["simulate", "mixture", "--component", "1;1;1",
                     "--n", "2000"]) == EXIT_USAGE


class TestReportCommand:
    def test_renders_from_directory(self, labeled_input, tmp_path, capsys):
        out = tmp_path / "out"
        main(["fit", str(labeled_input), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out), "--style", "segments"]) == EXIT_OK
        assert "Total >0" in capsys.readouterr().out

    @pytest.mark.parametrize("first, second", [(4, 2), (2, 4)])
    def test_different_segment_counts_are_a_parse_error(self, tmp_path, capsys,
                                                        first, second):
        # a table has one column per segment, so documents written with
        # different --segments values cannot share one
        for k in (first, second):
            assert main(["fit", SMOKE, "--segments", str(k),
                         "--out", str(tmp_path / f"k{k}")]) == EXIT_OK
        capsys.readouterr()
        argv = ["report", str(tmp_path / f"k{first}"), str(tmp_path / f"k{second}"),
                "--style", "segments"]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: parse: the documents hold different segment "
                                "counts, 2, 4; report each --segments value apart\n")

    def test_differences_short_of_the_segments_are_a_parse_error(self, tmp_path, capsys):
        # each segment needs its difference: a document that lists fewer is
        # refused when it is read, not when the table indexes past them
        out = tmp_path / "docs"
        assert main(["fit", SMOKE, "--out", str(out)]) == EXIT_OK
        path = sorted(out.iterdir())[0]
        data = json.loads(path.read_text())
        del data["hooked_diagnostics"]["signed_max_diff"][2:]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out), "--style", "segments"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: parse: {str(path)!r}: malformed ResultDocument")
        assert "4 segments but 2 signed maximum differences" in line

    @pytest.mark.parametrize("path, value", [
        (("lognormal", "log_likelihood"), "abc"),
        (("label",), 5),
        (("comparison", "vuong_z"), "x"),
        (("hooked_diagnostics", "signed_max_diff"), ["a", "b", "c", "d"]),
    ], ids=["ll", "label", "z", "differences"])
    def test_mistyped_value_is_a_parse_error(self, tmp_path, capsys, path, value):
        # values the tables would format or index: refused when read
        out = tmp_path / "docs"
        assert main(["fit", SMOKE, "--out", str(out)]) == EXIT_OK
        doc_path = sorted(out.iterdir())[0]
        data = node = json.loads(doc_path.read_text())
        *parents, key = path
        for name in parents:
            node = node[name]
        node[key] = value
        doc_path.write_text(json.dumps(data))
        capsys.readouterr()
        for style in ("parameters", "segments"):
            assert main(["report", str(out), "--style", style]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"error: parse: {str(doc_path)!r}: malformed ResultDocument")

    def test_parameters_style_takes_any_segment_counts(self, tmp_path, capsys):
        # only the segments table needs one segment count
        for k in (4, 2):
            assert main(["fit", SMOKE, "--segments", str(k),
                         "--out", str(tmp_path / f"k{k}")]) == EXIT_OK
        capsys.readouterr()
        argv = ["report", str(tmp_path / "k4"), str(tmp_path / "k2"),
                "--style", "parameters"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        # a header, then the same two journals fitted alike in each directory
        lines = captured.out.splitlines()
        assert len(lines) == 5 and lines[1:3] == lines[3:5]

    def test_version_gate_surfaces_as_parse_error(self, labeled_input, tmp_path, capsys):
        out = tmp_path / "out"
        main(["fit", str(labeled_input), "--out", str(out)])
        doc_path = out / "Journal_A.json"
        data = json.loads(doc_path.read_text())
        data["schema_version"] = 7
        doc_path.write_text(json.dumps(data))
        assert main(["report", str(doc_path)]) == EXIT_PARSE
        assert str(doc_path) in capsys.readouterr().err

    def test_recovery_report_in_the_directory_is_named(self, tmp_path, capsys):
        # simulate recovery and fit share an output directory: report names
        # the file it cannot read and what that file is
        out = tmp_path / "out"
        assert main(["simulate", "recovery", "--truth", "lognormal", "--n", "1000",
                     "--seeds", "1", "--out", str(out)]) == EXIT_OK
        assert main(["fit", SMOKE, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: parse: {str(out / 'recovery_report.json')!r} "
                       "is a simulate recovery report, not a result document"]


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self, labeled_input, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", str(labeled_input), "--frobnicate", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_layout_flag_is_gone(self, labeled_input, capsys):
        # the first non-blank line names the layout; no flag overrides it
        assert main(["compare", str(labeled_input), "--format", "labeled"]) == EXIT_USAGE
        assert "--format" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("journal,citations\nA,-3\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "error: parse:" in capsys.readouterr().err

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "one-per-line"])
    @pytest.mark.parametrize("count", [2**63 - 1, 2**63, 10**20])
    def test_count_beyond_int64_is_parse_error(self, tmp_path, capsys, count, labeled):
        # a raw count must stay inside int64 once shifted by one
        path = tmp_path / "counts.csv"
        path.write_text(f"journal,citations\nA,3\nA,{count}\n" if labeled
                        else f"3\n5\n{count}\n")
        assert main(["compare", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: parse: line 3: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_header_after_blank_line(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("\njournal,citations\nA,2\nA,3\n")
        assert main(["compare", str(path)]) == EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == ["A"]

    def test_undecodable_input_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,1\nb,\xff\xfe3\n")
        assert main(["compare", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error: parse: line 2:" in err and "bad.csv" in err
        assert "Traceback" not in err

    def test_undecodable_document_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "doc.json"
        bad.write_bytes(b'{\n"label": "\xff"}\n')
        assert main(["report", str(bad)]) == EXIT_PARSE
        assert "error: parse: line 2:" in capsys.readouterr().err

    def test_zero_truncation_is_config_error(self, labeled_input, capsys):
        assert main(["compare", str(labeled_input), "--truncation", "0"]) == EXIT_USAGE
        assert "error: config: truncation must be >= 1" in capsys.readouterr().err

    def test_zero_seeds_is_config_error(self, capsys):
        assert main(["simulate", "recovery", "--seeds", "0", "--n", "2000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: config: seeds must be >= 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--mu", "6", "--sigma", "3"],
        ["--mu", "800", "--sigma", "3"],   # the tail quantile is beyond float range
        ["--truth", "hooked", "--truncation", "200000000"],
    ])
    def test_huge_truth_is_config_error(self, capsys, monkeypatch, flags):
        def no_table(params, xs):
            raise AssertionError("the inversion table must not be built")

        monkeypatch.setattr(synthesis, "cdf_values", no_table)
        assert main(["simulate", "recovery", *flags, "--n", "2000"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        if "800" in flags:
            assert "is beyond float range" in err[0]
        else:
            assert err[0].startswith("error: config: cannot sample ")
            assert "entries (limit 100000000)" in err[0]

    def test_truth_with_all_mass_at_one_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "recovery", "--truth", "lognormal", "--mu", "-100",
                     "--sigma", "1", "--n", "1000", "--seeds", "2",
                     "--out", str(out)]) == EXIT_OK
        assert "ll_gap=0.0000" in capsys.readouterr().out

    def test_exponent_cap_near_float_max_runs(self, capsys):
        # 2 alpha - B overflows to inf in the head length of the normalization,
        # and log masses near -1e308 overflow to the -inf they stand for
        assert main(["compare", SMOKE, "--alpha-cap", "1e308"]) == EXIT_OK
        assert main(["simulate", "recovery", "--truth", "hooked", "--alpha", "1e308",
                     "--alpha-cap", "1e308", "--n", "1000", "--seeds", "1"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [
        ["--alpha", "20000", "--offset", "5", "--n", "2000", "--seeds", "2"],
        ["--alpha", "1e308", "--n", "1000", "--seeds", "1"],
        ["--alpha", "50", "--alpha-cap", "20", "--n", "1000", "--seeds", "1"],
    ])
    def test_hooked_truth_above_the_cap_is_config_error(self, capsys, flags):
        # the fit stops at the cap, so the errors would measure the cap
        assert main(["simulate", "recovery", "--truth", "hooked", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: the true exponent ")
        assert "is above the fit's exponent cap" in err[0]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["inf", "nan", "1"])
    def test_bad_exponent_cap_is_config_error(self, capsys, cap):
        assert main(["compare", SMOKE, "--alpha-cap", cap]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("error: config: alpha_cap must be finite and > 1, "
                                f"got {float(cap)!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("z", ["-1", "0", "nan", "inf"])
    def test_bad_z_threshold_is_config_error(self, labeled_input, tmp_path, capsys, z):
        out = tmp_path / "out"
        assert main(["fit", str(labeled_input), "--model", "lognormal",
                     "--z-threshold", z, "--out", str(out)]) == EXIT_USAGE
        assert "error: config: z_threshold must be finite and positive" in (
            capsys.readouterr().err)
        assert not out.exists()  # rejected before any fit ran

    def test_warnings_print_as_one_line_per_journal(self, tmp_path, capsys):
        # all-zero journals get one degenerate diagnostic segment
        path = tmp_path / "counts.csv"
        path.write_text("journal,citations\nZ1,0\nZ1,0\nA,1\nA,5\nA,2\nA,0\nZ2,0\nZ2,0\n")
        out = tmp_path / "out"
        assert main(["compare", str(path), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert sorted(captured.err.splitlines()) == [
            f"warning: {label}: n_max = 0: single degenerate segment [1, 1]"
            for label in ("Z1", "Z2")]
        docs = [read_result(out / f"{label}.json") for label in ("Z1", "A", "Z2")]
        assert captured.out == render_table(docs, STYLE_PARAMETERS)

    @pytest.mark.parametrize("text", ["1\n2\n100000000000\n", "3\n1000000000000000\n"],
                             ids=["1e11", "1e15"])
    def test_count_too_large_for_memory_is_parse_error(self, tmp_path, text):
        # the diagnostics' per-count table would need 745 GiB or 7 PiB; on
        # the way there no warning is printed, such as numpy's inf - inf in
        # the lognormal derivatives at the larger count
        child = _compare_in_capped_child(tmp_path, text)
        assert child.returncode == EXIT_PARSE
        assert child.stderr.startswith("error: memory: ")
        assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr

    @pytest.mark.parametrize("count", [4611686018427387904, 9223372036854775806])
    def test_table_beyond_addressable_memory_is_refused(self, tmp_path, count):
        # the hooked CDF table would pass numpy's size limit, or its length
        # would overflow int64: refused before allocating, like any table
        # too large for memory, and with no warning printed before
        child = _compare_in_capped_child(tmp_path, f"3\n{count}\n")
        assert child.returncode == EXIT_PARSE
        assert child.stderr.splitlines() == [
            f"error: memory: input too large: a hooked CDF table of "
            f"{count + 1} entries is beyond addressable memory"]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO
        assert "error: io:" in capsys.readouterr().err


_EXIT_CODES = (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_IO)

# labels free of the characters that end a line when the input is read
_LABELS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                  max_size=6)


class TestBoundary:
    """Whatever the input, ``main`` returns one of the documented exit
    codes and raises nothing."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(_LABELS, st.integers(0, 10**6)), min_size=1, max_size=40),
           tail=st.booleans())
    def test_labeled_rows(self, tmp_path_factory, rows, tail):
        path = tmp_path_factory.mktemp("rows") / "counts.csv"
        path.write_text("".join(f"{label},{count}\n" for label, count in rows),
                        encoding="utf-8")
        argv = ["compare", str(path)] + ["--tail-correct"] * tail
        assert main(argv) in _EXIT_CODES

    def test_arbitrary_bytes(self, tmp_path):
        # in a child with a capped address space: bytes that happen to spell
        # a huge count must fail to allocate, not fill the memory of the host
        pytest.importorskip("resource")
        script = (
            "import os, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from hypothesis import given, settings, strategies as st\n"
            "from citefit.cli import main\n"
            "path = os.path.join(sys.argv[1], 'input')\n"
            "@settings(max_examples=50, deadline=None, database=None)\n"
            "@given(st.binary(max_size=300))\n"
            "def run(data):\n"
            "    with open(path, 'wb') as fh:\n"
            "        fh.write(data)\n"
            f"    assert main(['compare', path]) in {_EXIT_CODES!r}\n"
            "run()\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(citefit.__file__)))
        child = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr


def _compare_in_capped_child(tmp_path, text: str):
    """``citefit compare`` on the one-per-line counts ``text``, in a child
    whose address space is capped so that no huge allocation is made for real."""
    pytest.importorskip("resource")
    path = tmp_path / "huge.txt"
    path.write_text(text)
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from citefit.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(citefit.__file__)))
    return subprocess.run([sys.executable, "-c", script, "compare", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestDefaults:
    def test_defaults_reproduce_reference_setup(self):
        ns = build_parser().parse_args(["compare", "input.csv"])
        cfg = config_from_args(ns)
        assert cfg.fit.alpha_cap == 10000.0
        assert cfg.fit.truncation == 10000
        assert cfg.fit.tail_correction is False
        assert cfg.segments == 4
        assert cfg.z_threshold == 1.96

    def test_parser_defaults_are_the_fit_defaults(self):
        cfg = config_from_args(build_parser().parse_args(["compare", "x"]))
        assert cfg.fit == FitConfig()
        assert cfg == CliConfig(command="compare", input_path="x")

    @pytest.mark.parametrize("argv, want", [
        (["simulate", "mixture", "--alpha-cap", "50", "--truncation", "20",
          "--tail-correct", "--z-threshold", "2.5", "--segments", "3", "--timestamp",
          "--truth", "hooked", "--mu", "1.5", "--sigma", "0.5", "--alpha", "3",
          "--offset", "4", "--n", "2000", "--seeds", "2", "--seed", "7",
          "--component", "1,2,3", "--component", "4,5,6", "--out", "o"],
         CliConfig(command="simulate", simulate_kind="mixture",
                   fit=FitConfig(alpha_cap=50.0, truncation=20, tail_correction=True),
                   z_threshold=2.5, segments=3, timestamp=True, truth_model="hooked",
                   mu=1.5, sigma=0.5, alpha=3.0, offset=4.0, n=2000, n_seeds=2, seed=7,
                   components=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)), out_dir="o")),
        (["fit", "in.csv", "--model", "hooked", "--out", "o"],
         CliConfig(command="fit", input_path="in.csv", model="hooked", out_dir="o")),
        (["diagnose", "in.csv", "--plot", "p"],
         CliConfig(command="diagnose", input_path="in.csv", plot_dir="p")),
        (["report", "a.json", "docs", "--style", "segments"],
         CliConfig(command="report", doc_paths=("a.json", "docs"), style="segments")),
    ], ids=["simulate", "fit", "diagnose", "report"])
    def test_each_flag_sets_its_field(self, argv, want):
        assert config_from_args(build_parser().parse_args(argv)) == want

    def test_analyze_dataset_takes_shifted_counts(self):
        ds = CitationDataset("tiny", list(range(1, 41)))
        doc = analyze_dataset(ds, CliConfig(command="fit"))
        assert doc.n_articles == 40
        assert doc.lognormal is not None and doc.hooked is not None
        # the counts are fitted as given: the last segment ends at the largest
        assert doc.hooked_diagnostics.segments[-1].end == 40

    def test_comparison_totals_are_the_fits_own(self):
        # the Vuong test sums each model's log masses as its fit does, so a
        # document holds one total per model, down to the sign of a zero
        datasets = [sample(DiscretisedLognormalParams(mu, sigma), 2000, SeededGenerator(seed))
                    for seed, mu, sigma in ((40, 2.9, 1.0), (41, 1.2, 1.3), (42, 0.3, 0.8))]
        datasets += [sample(HookedPowerLawParams(3.5, 12.0), 2000, SeededGenerator(43)),
                     CitationDataset("uncited", [1] * 40)]
        for ds in datasets:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the uncited journal's one segment
                doc = analyze_dataset(ds, CliConfig(command="compare"))
            for fit, total in ((doc.lognormal, doc.comparison.ll_lognormal),
                               (doc.hooked, doc.comparison.ll_hooked)):
                assert repr(total) == repr(fit.log_likelihood), ds.label
