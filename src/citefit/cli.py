"""Command-line surface: fit, compare, diagnose, simulate, report.

Runs are deterministic: identical inputs, flags and seed produce
byte-identical result documents, tables and plot files.  Documents are
written atomically, one per journal, so concurrent fitting (``--jobs``)
never interleaves file contents.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import data_io, diagnostics, selection, synthesis
from .distributions import DiscretisedLognormalParams, HookedPowerLawParams
from .errors import (
    CitefitError,
    ConfigError,
    OutputError,
    ParseError,
    SchemaVersionError,
)
from .fitting import CitationDataset, FitConfig, fit_hooked, fit_lognormal, shift_counts
from .synthesis import MixtureSpec, SeededGenerator

EXIT_OK = 0
EXIT_USAGE = 2      # bad flags or conflicting configuration
EXIT_PARSE = 3      # malformed input data or documents
EXIT_IO = 4         # unreadable/unwritable files

_EXIT_DOC = (
    "exit codes: 0 success, 2 usage or configuration conflict, "
    "3 input parse error, 4 I/O error"
)

MODEL_CHOICES = ("lognormal", "hooked", "both")


@dataclass(frozen=True)
class CliConfig:
    """One fully-resolved invocation; every field maps onto exactly one
    fitting, selection or diagnostics parameter.  Defaults reproduce the
    reference setup: cap 10000, truncation 10000, 4 segments, threshold 1.96.
    """

    command: str
    input_path: str | None = None
    input_format: str = "auto"
    out_dir: str | None = None
    plot_dir: str | None = None
    model: str = "both"
    fit: FitConfig = field(default_factory=FitConfig)
    segments: int = diagnostics.DEFAULT_SEGMENTS
    z_threshold: float = selection.DEFAULT_Z_THRESHOLD
    seed: int = 0
    jobs: int = 1
    timestamp: bool = False
    style: str = data_io.STYLE_PARAMETERS
    doc_paths: tuple[str, ...] = ()
    simulate_kind: str | None = None
    truth_model: str = "lognormal"
    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 2.0
    offset: float = 1.0
    n: int = 10000
    n_seeds: int = 10
    components: tuple[tuple[float, float, float], ...] = ()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _detect_format(path: str) -> str:
    with data_io.open_text(path) as fh:
        for line in fh:
            if line.strip():
                return (data_io.FORMAT_LABELED if "," in line
                        else data_io.FORMAT_ONE_PER_LINE)
    return data_io.FORMAT_ONE_PER_LINE


def _load_datasets(cfg: CliConfig) -> list[CitationDataset]:
    path = cfg.input_path
    fmt = cfg.input_format
    if fmt == "auto":
        fmt = _detect_format(path)
    default_label = os.path.splitext(os.path.basename(path))[0]
    with data_io.open_text(path) as fh:
        return data_io.parse_counts(fh, fmt, label=default_label)


def _provenance(cfg: CliConfig, extra: dict | None = None) -> dict:
    prov = {
        "tool": "citefit",
        "config": {
            "model": cfg.model,
            "alpha_cap": cfg.fit.alpha_cap,
            "truncation": cfg.fit.truncation,
            "tail_correction": cfg.fit.tail_correction,
            "segments": cfg.segments,
            "z_threshold": cfg.z_threshold,
        },
    }
    if cfg.input_path:
        with open(cfg.input_path, "rb") as fh:
            prov["input_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if cfg.timestamp:
        import datetime

        prov["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if extra:
        prov.update(extra)
    return prov


def analyze_dataset(raw: CitationDataset, cfg: CliConfig,
                    provenance: dict | None = None) -> data_io.ResultDocument:
    """Shift, fit the selected models, compare and diagnose one dataset."""
    ds = raw if raw.shifted else shift_counts(raw)
    fit_ln = fit_hk = comparison = diag_ln = diag_hk = None
    if cfg.model in ("lognormal", "both"):
        fit_ln = fit_lognormal(ds, cfg.fit)
    if cfg.model in ("hooked", "both"):
        fit_hk = fit_hooked(ds, cfg.fit)
    if fit_ln and fit_hk:
        comparison = selection.vuong_test(
            ds, fit_hk.params, fit_ln.params, cfg.z_threshold,
            cfg.fit.tail_correction)
    segments = diagnostics.make_segments(int(ds.counts.max()) - 1, cfg.segments)
    if fit_ln:
        diag_ln = diagnostics.segment_differences(
            ds, fit_ln.params, segments, cfg.fit.tail_correction)
    if fit_hk:
        diag_hk = diagnostics.segment_differences(
            ds, fit_hk.params, segments, cfg.fit.tail_correction)
    return data_io.ResultDocument(
        label=ds.label,
        n_articles=len(ds),
        lognormal=fit_ln,
        hooked=fit_hk,
        comparison=comparison,
        lognormal_diagnostics=diag_ln,
        hooked_diagnostics=diag_hk,
        provenance=provenance if provenance is not None else {},
    )


def _analyze_all(datasets, cfg: CliConfig, provenance: dict) -> list[data_io.ResultDocument]:
    if cfg.jobs > 1 and len(datasets) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(lambda ds: analyze_dataset(ds, cfg, provenance),
                                 datasets))
    return [analyze_dataset(ds, cfg, provenance) for ds in datasets]


def _slug(label: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_") or "dataset"
    slug = base
    k = 2
    while slug in taken:
        slug = f"{base}_{k}"
        k += 1
    taken.add(slug)
    return slug


def _write_documents(docs, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    taken: set[str] = set()
    paths = []
    for doc in docs:
        path = os.path.join(out_dir, _slug(doc.label, taken) + ".json")
        data_io.write_result(doc, path)
        paths.append(path)
    return paths


def _write_plots(docs, datasets, cfg: CliConfig) -> list[str]:
    os.makedirs(cfg.plot_dir, exist_ok=True)
    taken: set[str] = set()
    paths = []
    by_label = {d.label: d for d in datasets}
    for doc in docs:
        raw = by_label[doc.label]
        ds = raw if raw.shifted else shift_counts(raw)
        models = []
        if doc.lognormal:
            models.append(("lognormal", doc.lognormal.params))
        if doc.hooked:
            models.append(("hooked", doc.hooked.params))
        series = diagnostics.plot_series(ds, models, cfg.fit.tail_correction)
        path = os.path.join(cfg.plot_dir, _slug(doc.label, taken) + ".svg")
        series.write(path)
        paths.append(path)
    return paths


def _status_line(doc: data_io.ResultDocument) -> str:
    bits = [f"{doc.label}: n={doc.n_articles}"]
    if doc.lognormal:
        bits.append(f"lognormal LL={doc.lognormal.log_likelihood:.1f}")
    if doc.hooked:
        capped = " (capped)" if doc.hooked.alpha_capped else ""
        bits.append(f"hooked LL={doc.hooked.log_likelihood:.1f}{capped}")
    if doc.comparison:
        bits.append(f"z={data_io._fmt_z(doc.comparison)}"
                    f" best={data_io._fmt_winner(doc.comparison)}")
    return "  ".join(bits)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_fit(cfg: CliConfig) -> int:
    if not cfg.out_dir:
        raise ConfigError("fit requires --out DIR for the result documents")
    datasets = _load_datasets(cfg)
    docs = _analyze_all(datasets, cfg, _provenance(cfg))
    for doc, path in zip(docs, _write_documents(docs, cfg.out_dir)):
        print(f"{_status_line(doc)}  -> {path}")
    return EXIT_OK


def _cmd_compare(cfg: CliConfig) -> int:
    cfg = replace(cfg, model="both")
    datasets = _load_datasets(cfg)
    docs = _analyze_all(datasets, cfg, _provenance(cfg))
    if cfg.out_dir:
        _write_documents(docs, cfg.out_dir)
    sys.stdout.write(data_io.render_table(docs, data_io.STYLE_PARAMETERS))
    return EXIT_OK


def _cmd_diagnose(cfg: CliConfig) -> int:
    cfg = replace(cfg, model="both")
    datasets = _load_datasets(cfg)
    docs = _analyze_all(datasets, cfg, _provenance(cfg))
    if cfg.out_dir:
        _write_documents(docs, cfg.out_dir)
    if cfg.plot_dir:
        for path in _write_plots(docs, datasets, cfg):
            print(f"wrote {path}")
    sys.stdout.write(data_io.render_table(docs, data_io.STYLE_SEGMENTS))
    return EXIT_OK


def _truth_params(cfg: CliConfig):
    if cfg.truth_model == "lognormal":
        return DiscretisedLognormalParams(cfg.mu, cfg.sigma)
    return HookedPowerLawParams(cfg.alpha, cfg.offset, cfg.fit.truncation)


def _cmd_simulate(cfg: CliConfig) -> int:
    if cfg.simulate_kind == "recovery":
        truth = _truth_params(cfg)
        seeds = list(range(cfg.seed, cfg.seed + cfg.n_seeds))
        report = synthesis.recovery_experiment(truth, cfg.n, seeds, cfg.fit)
        print(f"recovery: model={report.model.value} truth={truth} "
              f"n={report.n} seeds={seeds}")
        for row in report.rows:
            errs = " ".join(f"|d {k}|={v:.4f}" for k, v in row.errors.items())
            print(f"  seed={row.seed}  {errs}  ll_gap={row.ll_gap:.4f}  "
                  f"converged={row.converged}")
        med = " ".join(f"{k}={v:.4f}" for k, v in report.median_errors.items())
        worst = " ".join(f"{k}={v:.4f}" for k, v in report.worst_errors.items())
        print(f"  median abs errors: {med}")
        print(f"  worst abs errors:  {worst}")
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
            path = os.path.join(cfg.out_dir, "recovery_report.json")
            _write_json(path, _recovery_to_dict(report, cfg))
            print(f"wrote {path}")
        return EXIT_OK

    if cfg.simulate_kind == "mixture":
        if not cfg.components:
            raise ConfigError("mixture requires at least one --component MU,SIGMA,WEIGHT")
        spec = MixtureSpec(tuple(
            (DiscretisedLognormalParams(mu, sigma), weight)
            for mu, sigma, weight in cfg.components))
        report = synthesis.mixture_experiment(
            spec, cfg.n, SeededGenerator(cfg.seed), cfg.fit, cfg.z_threshold)
        doc = data_io.ResultDocument(
            label="sim:mixture",
            n_articles=report.n,
            lognormal=report.lognormal_fit,
            hooked=report.hooked_fit,
            comparison=report.comparison,
            provenance=_provenance(cfg, {
                "seed": report.seed,
                "mixture": [
                    {"mu": p.mu, "sigma": p.sigma, "weight": w}
                    for p, w in spec.components
                ],
                "component_counts": list(report.component_counts),
            }),
        )
        sys.stdout.write(data_io.render_table([doc], data_io.STYLE_PARAMETERS))
        for (params, weight), size in zip(spec.components, report.component_counts):
            print(f"  component mu={params.mu} sigma={params.sigma} "
                  f"weight={weight:.4f}: {size} draws")
        if cfg.out_dir:
            _write_documents([doc], cfg.out_dir)
        return EXIT_OK

    raise ConfigError(f"unknown simulate kind {cfg.simulate_kind!r}")


def _recovery_to_dict(report, cfg: CliConfig) -> dict:
    return {
        "schema_version": data_io.SCHEMA_VERSION,
        "kind": "recovery_report",
        "model": report.model.value,
        "truth": data_io._params_to_dict(report.truth),
        "n": report.n,
        "rows": [
            {
                "seed": r.seed,
                "fitted": data_io._params_to_dict(r.fitted),
                "errors": r.errors,
                "ll_gap": r.ll_gap,
                "converged": r.converged,
            }
            for r in report.rows
        ],
        "median_errors": report.median_errors,
        "worst_errors": report.worst_errors,
        "provenance": _provenance(cfg, {"seed": cfg.seed}),
    }


def _write_json(path: str, data: dict) -> None:
    try:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(data, indent=2, ensure_ascii=False) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write report {path!r}: {exc}") from exc


def _cmd_report(cfg: CliConfig) -> int:
    paths = []
    for p in cfg.doc_paths:
        if os.path.isdir(p):
            paths.extend(sorted(
                os.path.join(p, name) for name in os.listdir(p)
                if name.endswith(".json")))
        else:
            paths.append(p)
    if not paths:
        raise ConfigError("report needs at least one result document or directory")
    docs = [data_io.read_result(p) for p in paths]
    sys.stdout.write(data_io.render_table(docs, cfg.style))
    return EXIT_OK


def run(cfg: CliConfig) -> int:
    """Execute one resolved invocation; returns the process exit status."""
    handler = {
        "fit": _cmd_fit,
        "compare": _cmd_compare,
        "diagnose": _cmd_diagnose,
        "simulate": _cmd_simulate,
        "report": _cmd_report,
    }.get(cfg.command)
    if handler is None:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return handler(cfg)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefit",
        description="Fit and compare discretised lognormal and hooked power "
                    "law models for citation count data.",
        epilog=_EXIT_DOC,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_opts = argparse.ArgumentParser(add_help=False)
    fit_opts.add_argument("--alpha-cap", type=float, default=10000.0,
                          help="upper bound on the hooked exponent; fits that "
                               "reach it are clamped and flagged (default: 10000)")
    fit_opts.add_argument("--truncation", type=int, default=10000,
                          help="length of the hooked normalization sum "
                               "(default: 10000; raised automatically to cover "
                               "larger counts)")
    fit_opts.add_argument("--tail-correct", action="store_true",
                          help="add the integral tail bound to the hooked "
                               "normalization (default: off, truncated sum only)")
    fit_opts.add_argument("--z-threshold", type=float, default=1.96,
                          help="two-sided significance threshold for the Vuong "
                               "z statistic (default: 1.96)")
    fit_opts.add_argument("--segments", type=int, default=4,
                          help="number of log-spaced diagnostic intervals "
                               "(default: 4)")
    fit_opts.add_argument("--jobs", type=int, default=1,
                          help="fit this many journals concurrently (default: 1)")
    fit_opts.add_argument("--timestamp", action="store_true",
                          help="record a wall-clock timestamp in provenance "
                               "(default: off, keeping runs byte-reproducible)")

    data_opts = argparse.ArgumentParser(add_help=False)
    data_opts.add_argument("input", help="counts file (one per line, or "
                                         "journal,citations rows)")
    data_opts.add_argument("--format", dest="input_format", default="auto",
                           choices=["auto", data_io.FORMAT_ONE_PER_LINE,
                                    data_io.FORMAT_LABELED],
                           help="input layout (default: auto-detect by comma)")

    p_fit = sub.add_parser("fit", parents=[data_opts, fit_opts],
                           help="fit models and write result documents")
    p_fit.add_argument("--model", choices=MODEL_CHOICES, default="both",
                       help="which model(s) to fit (default: both)")
    p_fit.add_argument("--out", dest="out_dir", required=True,
                       help="directory for per-journal result documents")

    p_cmp = sub.add_parser("compare", parents=[data_opts, fit_opts],
                           help="fit both models and print the parameters table")
    p_cmp.add_argument("--out", dest="out_dir",
                       help="also write result documents here")

    p_diag = sub.add_parser("diagnose", parents=[data_opts, fit_opts],
                            help="fit both models, print the segments table, "
                                 "optionally write CDF plots")
    p_diag.add_argument("--out", dest="out_dir",
                        help="also write result documents here")
    p_diag.add_argument("--plot", dest="plot_dir",
                        help="directory for per-journal SVG/CSV plot files")

    p_sim = sub.add_parser("simulate", parents=[fit_opts],
                           help="run recovery or mixture experiments on "
                                "synthetic data")
    p_sim.add_argument("kind", choices=["recovery", "mixture"])
    p_sim.add_argument("--truth", dest="truth_model", default="lognormal",
                       choices=["lognormal", "hooked"],
                       help="generator family for recovery (default: lognormal)")
    p_sim.add_argument("--mu", type=float, default=0.0)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--alpha", type=float, default=2.0)
    p_sim.add_argument("--offset", type=float, default=1.0)
    p_sim.add_argument("--n", type=int, default=10000,
                       help="sample size per draw (default: 10000)")
    p_sim.add_argument("--seeds", dest="n_seeds", type=int, default=10,
                       help="number of consecutive seeds for recovery "
                            "(default: 10)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="base seed (default: 0)")
    p_sim.add_argument("--component", dest="components", action="append",
                       default=[], metavar="MU,SIGMA,WEIGHT",
                       help="mixture component (repeatable)")
    p_sim.add_argument("--out", dest="out_dir",
                       help="write the experiment report here")

    p_rep = sub.add_parser("report", help="render tables from stored documents")
    p_rep.add_argument("docs", nargs="+",
                       help="result documents or directories of them")
    p_rep.add_argument("--style", default=data_io.STYLE_PARAMETERS,
                       choices=[data_io.STYLE_PARAMETERS, data_io.STYLE_SEGMENTS])

    return parser


def _parse_component(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--component expects MU,SIGMA,WEIGHT, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"--component expects numbers, got {text!r}") from None


def config_from_args(ns: argparse.Namespace) -> CliConfig:
    fit_cfg = FitConfig(
        alpha_cap=getattr(ns, "alpha_cap", 10000.0),
        truncation=getattr(ns, "truncation", 10000),
        tail_correction=getattr(ns, "tail_correct", False),
    )
    return CliConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        input_format=getattr(ns, "input_format", "auto"),
        out_dir=getattr(ns, "out_dir", None),
        plot_dir=getattr(ns, "plot_dir", None),
        model=getattr(ns, "model", "both"),
        fit=fit_cfg,
        segments=getattr(ns, "segments", diagnostics.DEFAULT_SEGMENTS),
        z_threshold=getattr(ns, "z_threshold", selection.DEFAULT_Z_THRESHOLD),
        seed=getattr(ns, "seed", 0),
        jobs=getattr(ns, "jobs", 1),
        timestamp=getattr(ns, "timestamp", False),
        style=getattr(ns, "style", data_io.STYLE_PARAMETERS),
        doc_paths=tuple(getattr(ns, "docs", ())),
        simulate_kind=getattr(ns, "kind", None),
        truth_model=getattr(ns, "truth_model", "lognormal"),
        mu=getattr(ns, "mu", 0.0),
        sigma=getattr(ns, "sigma", 1.0),
        alpha=getattr(ns, "alpha", 2.0),
        offset=getattr(ns, "offset", 1.0),
        n=getattr(ns, "n", 10000),
        n_seeds=getattr(ns, "n_seeds", 10),
        components=tuple(_parse_component(c)
                         for c in getattr(ns, "components", [])),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = config_from_args(ns)
        return run(cfg)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaVersionError) as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OutputError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except CitefitError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
