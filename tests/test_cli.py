"""Tests for the command-line surface: commands, exit codes, outputs."""

import hashlib
import json
import os

import pytest

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
from citefit.data_io import read_result
from citefit.distributions import DiscretisedLognormalParams
from citefit.fitting import CitationDataset
from citefit.synthesis import SeededGenerator, sample


@pytest.fixture()
def labeled_input(tmp_path):
    path = tmp_path / "counts.csv"
    rows = ["journal,citations"]
    for label, mu, seed in (("Journal A", 2.0, 71), ("Journal B", 0.8, 72)):
        ds = sample(DiscretisedLognormalParams(mu, 1.0), 400, SeededGenerator(seed))
        rows += [f"{label},{c - 1}" for c in ds.counts]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _tree_digest(root):
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                digests[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


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

    def test_jobs_flag_matches_serial(self, labeled_input, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        main(["fit", str(labeled_input), "--out", str(out1)])
        main(["fit", str(labeled_input), "--out", str(out2), "--jobs", "4"])
        assert _tree_digest(out1) == _tree_digest(out2)

    def test_provenance_records_config_and_digest(self, labeled_input, tmp_path):
        out = tmp_path / "out"
        main(["fit", str(labeled_input), "--out", str(out), "--alpha-cap", "50"])
        doc = read_result(out / "Journal_A.json")
        assert doc.provenance["config"]["alpha_cap"] == 50.0
        assert len(doc.provenance["input_sha256"]) == 64
        assert "created" not in doc.provenance  # timestamps are opt-in


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


class TestDiagnoseCommand:
    def test_prints_segments_and_writes_plots(self, labeled_input, tmp_path, capsys):
        plots = tmp_path / "plots"
        assert main(["diagnose", str(labeled_input), "--plot", str(plots)]) == EXIT_OK
        assert sorted(os.listdir(plots)) == [
            "Journal_A.csv", "Journal_A.svg", "Journal_B.csv", "Journal_B.svg"]
        out = capsys.readouterr().out
        assert "S1 Ln" in out and "Mean" in out


class TestSimulateCommand:
    def test_recovery_prints_report(self, capsys):
        assert main(["simulate", "recovery", "--truth", "lognormal",
                     "--mu", "2.0", "--sigma", "1.0", "--n", "2000",
                     "--seeds", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "median abs errors" in out

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

    def test_analyze_dataset_accepts_raw_counts(self):
        raw = CitationDataset("tiny", list(range(40)))
        doc = analyze_dataset(raw, CliConfig(command="fit"))
        assert doc.n_articles == 40
        assert doc.lognormal is not None and doc.hooked is not None
