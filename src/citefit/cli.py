"""Command-line surface: fit, compare, diagnose, simulate, report.

Runs are deterministic: identical inputs, flags and seed produce
byte-identical result documents, tables and plot files.  Journals are
analysed one after another, and each document is written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

from . import data_io, diagnostics, selection, synthesis
from .distributions import DiscretisedLognormalParams, HookedPowerLawParams
from .errors import (
    CitefitError,
    ConfigError,
    OutputError,
    ParseError,
    SchemaVersionError,
)
from .fitting import CitationDataset, FitConfig, fit_hooked, fit_lognormal
from .synthesis import MixtureSpec, SeededGenerator

EXIT_OK = 0
EXIT_USAGE = 2      # bad flags or conflicting configuration
EXIT_PARSE = 3      # malformed input data or documents, or input too large for memory
EXIT_IO = 4         # unreadable/unwritable files

_EXIT_DOC = (
    "exit codes: 0 success, 2 usage or configuration conflict, "
    "3 input parse error or input too large for memory, 4 I/O error"
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
    out_dir: str | None = None
    plot_dir: str | None = None
    model: str = "both"
    fit: FitConfig = field(default_factory=FitConfig)
    segments: int = diagnostics.DEFAULT_SEGMENTS
    z_threshold: float = selection.DEFAULT_Z_THRESHOLD
    seed: int = 0
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

    def __post_init__(self):
        if not (math.isfinite(self.z_threshold) and self.z_threshold > 0):
            raise ConfigError(
                f"z_threshold must be finite and positive, got {self.z_threshold!r}")
        if self.n_seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.n_seeds!r}")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _load_datasets(cfg: CliConfig) -> tuple[list[CitationDataset], dict]:
    """Parse the input in one streamed pass that also hashes its bytes for
    the provenance."""
    digest = hashlib.sha256()
    label = os.path.splitext(os.path.basename(cfg.input_path))[0]
    with data_io.open_text(cfg.input_path, digest) as fh:
        datasets = data_io.parse_counts(fh, label=label)
    return datasets, _provenance(cfg, input_sha256=digest.hexdigest())


def _provenance(cfg: CliConfig, extra: dict | None = None,
                input_sha256: str | None = None) -> dict:
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
    if input_sha256:
        prov["input_sha256"] = input_sha256
    if cfg.timestamp:
        import datetime

        prov["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if extra:
        prov.update(extra)
    return prov


def analyze_dataset(ds: CitationDataset, cfg: CliConfig,
                    provenance: dict | None = None) -> data_io.ResultDocument:
    """Fit the selected models, compare and diagnose one dataset."""
    fit_ln = fit_hk = comparison = diag_ln = diag_hk = None
    if cfg.model in ("lognormal", "both"):
        fit_ln = fit_lognormal(ds, cfg.fit)
    if cfg.model in ("hooked", "both"):
        fit_hk = fit_hooked(ds, cfg.fit)
    if fit_ln and fit_hk:
        comparison = selection.vuong_test(ds, fit_hk.params, fit_ln.params, cfg.z_threshold)
    segments = diagnostics.make_segments(int(ds.counts.max()) - 1, cfg.segments)
    if fit_ln:
        diag_ln = diagnostics.segment_differences(ds, fit_ln.params, segments)
    if fit_hk:
        diag_hk = diagnostics.segment_differences(ds, fit_hk.params, segments)
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


@contextmanager
def _warning_lines():
    """Print every warning raised inside as one stderr line,
    ``warning: <label>: <message>``, where the label is the one last set on
    the yielded holder; without one the line is ``warning: <message>``."""
    holder = SimpleNamespace(label=None)

    def show(message, category, filename, lineno, file=None, line=None):
        prefix = "warning: " if holder.label is None else f"warning: {holder.label}: "
        print(prefix + str(message).replace("\n", " "), file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield holder


def _analyze_all(datasets, cfg: CliConfig, provenance: dict) -> list[data_io.ResultDocument]:
    docs = []
    with _warning_lines() as current:
        for ds in datasets:
            current.label = ds.label
            docs.append(analyze_dataset(ds, cfg, provenance))
    return docs


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
    for doc, ds in zip(docs, datasets):
        models = []
        if doc.lognormal:
            models.append(("lognormal", doc.lognormal.params))
        if doc.hooked:
            models.append(("hooked", doc.hooked.params))
        series = diagnostics.plot_series(ds, models)
        path = os.path.join(cfg.plot_dir, _slug(doc.label, taken) + ".svg")
        series.write(path)
        paths.append(path)
    return paths


def _status_line(doc: data_io.ResultDocument) -> str:
    bits = [f"{doc.label}: n={doc.n_articles}"]
    if doc.lognormal:
        bits.append(f"lognormal LL={data_io.ll_cell(doc.lognormal)}")
    if doc.hooked:
        capped = " (capped)" if doc.hooked.alpha_capped else ""
        bits.append(f"hooked LL={data_io.ll_cell(doc.hooked)}{capped}")
    if doc.comparison:
        z, best = data_io.vuong_cells(doc.comparison)
        bits.append(f"z={z} best={best}")
    return "  ".join(bits)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_fit(cfg: CliConfig) -> int:
    if not cfg.out_dir:
        raise ConfigError("fit requires --out DIR for the result documents")
    datasets, provenance = _load_datasets(cfg)
    docs = _analyze_all(datasets, cfg, provenance)
    for doc, path in zip(docs, _write_documents(docs, cfg.out_dir)):
        print(f"{_status_line(doc)}  -> {path}")
    return EXIT_OK


def _cmd_compare(cfg: CliConfig) -> int:
    cfg = replace(cfg, model="both")
    datasets, provenance = _load_datasets(cfg)
    docs = _analyze_all(datasets, cfg, provenance)
    if cfg.out_dir:
        _write_documents(docs, cfg.out_dir)
    sys.stdout.write(data_io.render_table(docs, data_io.STYLE_PARAMETERS))
    return EXIT_OK


def _cmd_diagnose(cfg: CliConfig) -> int:
    cfg = replace(cfg, model="both")
    datasets, provenance = _load_datasets(cfg)
    docs = _analyze_all(datasets, cfg, provenance)
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
        print(f"recovery: model={report.truth.model.value} truth={truth} "
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
            data_io.write_json({
                "schema_version": data_io.SCHEMA_VERSION,
                "kind": "recovery_report",
                **data_io.to_json(report),
                "provenance": _provenance(cfg, {"seed": cfg.seed}),
            }, path)
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
    """The command-line parser.  Each destination is the name of a
    :class:`CliConfig` or :class:`FitConfig` field, and a flag left out sets
    nothing, so the field keeps the default its dataclass declares."""
    parser = argparse.ArgumentParser(
        prog="citefit",
        description="Fit and compare discretised lognormal and hooked power "
                    "law models for citation count data.",
        epilog=_EXIT_DOC,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    unset = argparse.SUPPRESS

    fit_opts = argparse.ArgumentParser(add_help=False, argument_default=unset)
    fit_opts.add_argument("--alpha-cap", type=float,
                          help="upper bound on the hooked exponent; fits that "
                               "reach it are clamped and flagged "
                               f"(default: {FitConfig.alpha_cap:g})")
    fit_opts.add_argument("--truncation", type=int,
                          help="length of the hooked normalization sum "
                               f"(default: {FitConfig.truncation}; raised "
                               "automatically to cover larger counts)")
    fit_opts.add_argument("--tail-correct", dest="tail_correction", action="store_true",
                          help="normalize the hooked law over all n >= 1, the "
                               "Hurwitz zeta function, for alpha > 1 (default: "
                               "off, the sum to the truncation length)")
    fit_opts.add_argument("--z-threshold", type=float,
                          help="two-sided significance threshold for the Vuong "
                               f"z statistic (default: {CliConfig.z_threshold:g})")
    fit_opts.add_argument("--segments", type=int,
                          help="number of log-spaced diagnostic intervals "
                               f"(default: {CliConfig.segments})")
    fit_opts.add_argument("--timestamp", action="store_true",
                          help="record a wall-clock timestamp in provenance "
                               "(default: off, keeping runs byte-reproducible)")

    data_opts = argparse.ArgumentParser(add_help=False, argument_default=unset)
    data_opts.add_argument("input_path", metavar="input",
                           help="counts file: one per line, or journal,citations "
                                "rows if its first non-blank line holds a comma")

    p_fit = sub.add_parser("fit", parents=[data_opts, fit_opts], argument_default=unset,
                           help="fit models and write result documents")
    p_fit.add_argument("--model", choices=MODEL_CHOICES,
                       help=f"which model(s) to fit (default: {CliConfig.model})")
    p_fit.add_argument("--out", dest="out_dir", required=True,
                       help="directory for per-journal result documents")

    p_cmp = sub.add_parser("compare", parents=[data_opts, fit_opts], argument_default=unset,
                           help="fit both models and print the parameters table")
    p_cmp.add_argument("--out", dest="out_dir",
                       help="also write result documents here")

    p_diag = sub.add_parser("diagnose", parents=[data_opts, fit_opts],
                            argument_default=unset,
                            help="fit both models, print the segments table, "
                                 "optionally write CDF plots")
    p_diag.add_argument("--out", dest="out_dir",
                        help="also write result documents here")
    p_diag.add_argument("--plot", dest="plot_dir",
                        help="directory for per-journal SVG/CSV plot files")

    p_sim = sub.add_parser("simulate", parents=[fit_opts], argument_default=unset,
                           help="run recovery or mixture experiments on "
                                "synthetic data")
    p_sim.add_argument("simulate_kind", choices=["recovery", "mixture"])
    p_sim.add_argument("--truth", dest="truth_model", choices=["lognormal", "hooked"],
                       help="generator family for recovery "
                            f"(default: {CliConfig.truth_model})")
    p_sim.add_argument("--mu", type=float)
    p_sim.add_argument("--sigma", type=float)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--offset", type=float)
    p_sim.add_argument("--n", type=int,
                       help=f"sample size per draw (default: {CliConfig.n})")
    p_sim.add_argument("--seeds", dest="n_seeds", type=int,
                       help="number of consecutive seeds for recovery "
                            f"(default: {CliConfig.n_seeds})")
    p_sim.add_argument("--seed", type=int,
                       help=f"base seed (default: {CliConfig.seed})")
    p_sim.add_argument("--component", dest="components", action="append",
                       metavar="MU,SIGMA,WEIGHT",
                       help="mixture component (repeatable)")
    p_sim.add_argument("--out", dest="out_dir",
                       help="write the experiment report here")

    p_rep = sub.add_parser("report", argument_default=unset,
                           help="render tables from stored documents")
    p_rep.add_argument("doc_paths", metavar="docs", nargs="+",
                       help="result documents or directories of them")
    p_rep.add_argument("--style",
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
    """The invocation ``ns`` names, field by field; what it leaves out keeps
    its dataclass default."""
    given = dict(vars(ns))
    fit_cfg = FitConfig(**{f.name: given.pop(f.name) for f in fields(FitConfig)
                           if f.name in given})
    if "components" in given:
        given["components"] = tuple(_parse_component(c) for c in given["components"])
    if "doc_paths" in given:
        given["doc_paths"] = tuple(given["doc_paths"])
    return CliConfig(fit=fit_cfg, **given)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = config_from_args(ns)
        with _warning_lines():
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
    except MemoryError as exc:  # numpy's allocation failures included
        print(f"error: memory: input too large: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CitefitError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
