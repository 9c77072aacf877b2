"""Tests for the command-line surface: commands, exit codes, outputs."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

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
from citefit.synthesis import RecoveryReport, SeededGenerator, recovery_experiment, sample


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
        assert list(data) == ["schema_version", "kind", "model", "truth", "n", "rows",
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

    def test_version_gate_surfaces_as_parse_error(self, labeled_input, tmp_path, capsys):
        out = tmp_path / "out"
        main(["fit", str(labeled_input), "--out", str(out)])
        doc_path = out / "Journal_A.json"
        data = json.loads(doc_path.read_text())
        data["schema_version"] = 7
        doc_path.write_text(json.dumps(data))
        assert main(["report", str(doc_path)]) == EXIT_PARSE


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self, labeled_input, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", str(labeled_input), "--frobnicate", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("journal,citations\nA,-3\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "error: parse:" in capsys.readouterr().err

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
        ["--mu", "800", "--sigma", "3"],
        ["--truth", "hooked", "--truncation", "200000000"],
    ])
    def test_huge_truth_is_config_error(self, capsys, monkeypatch, flags):
        def no_table(params, xs):
            raise AssertionError("the inversion table must not be built")

        monkeypatch.setattr(synthesis, "cdf_values", no_table)
        assert main(["simulate", "recovery", *flags, "--n", "2000"]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: cannot sample ")
        assert "entries (limit 100000000)" in err[0]

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

    def test_count_too_large_for_memory_is_parse_error(self, tmp_path):
        # the diagnostics' per-count table would need 745 GiB; the child's
        # address space is capped so that no allocation is made for real
        pytest.importorskip("resource")
        path = tmp_path / "huge.txt"
        path.write_text("1\n2\n100000000000\n")
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from citefit.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(citefit.__file__)))
        child = subprocess.run([sys.executable, "-c", script, "compare", str(path)],
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == EXIT_PARSE
        assert child.stderr.startswith("error: memory: ")
        assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO
        assert "error: io:" in capsys.readouterr().err


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

    def test_analyze_dataset_accepts_raw_counts(self):
        raw = CitationDataset("tiny", list(range(40)))
        doc = analyze_dataset(raw, CliConfig(command="fit"))
        assert doc.n_articles == 40
        assert doc.lognormal is not None and doc.hooked is not None
