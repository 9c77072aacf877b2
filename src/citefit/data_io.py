"""Dataset ingestion, result persistence, and report table rendering.

Input is plain UTF-8 text: either one count per line, or labeled two-column
``journal,citations`` rows (header detected by a non-numeric second field).
Results persist as versioned JSON documents that round-trip exactly; tables
render with fixed, locale-independent formatting that mirrors the reference
layout (two decimals for the lognormal parameters, one for log-likelihoods,
capped exponents as ``10k``, whole-percent segment differences).
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Iterator, Sequence, TextIO

import numpy as np

from .distributions import DiscretisedLognormalParams, HookedPowerLawParams
from .errors import OutputError, ParseError, SchemaVersionError
from .fitting import CitationDataset, FitResult, FitTrace, Model
from .selection import ComparisonResult, Winner
from .diagnostics import SegmentDiagnostics, SegmentSpec

SCHEMA_VERSION = 2
# versions this build reads; version 1 documents predate the fit trace's
# ``evaluations`` and ``exit_reason``, which load as None.  A document read
# in is held, and written back, as the current version.
READABLE_VERSIONS = (1, 2)

FORMAT_ONE_PER_LINE = "one-per-line"
FORMAT_LABELED = "labeled"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_count(text: str, line_no: int) -> int:
    token = text.strip()
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"count is not an integer: {token!r}", line_no) from None
    if value < 0:
        raise ParseError(f"count must be non-negative, got {value}", line_no)
    return value


@contextmanager
def open_text(path) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8")`` for reading, except that bytes which
    are not UTF-8 raise :class:`ParseError` naming the file and their line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the stream decodes in chunks, so its error holds no file offset
            with open(path, "rb") as raw_fh:
                raw = raw_fh.read()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"{os.fspath(path)!r} is not UTF-8 text: {exc.reason}",
                    raw.count(b"\n", 0, exc.start) + 1) from None
            raise


def parse_counts(source: TextIO | str, format: str = FORMAT_ONE_PER_LINE,
                 label: str = "") -> list[CitationDataset]:
    """Parse raw (unshifted) citation counts from a text stream.

    ``one-per-line`` yields a single dataset (named by ``label``);
    ``labeled`` groups ``journal,citations`` rows by journal in first-seen
    order, splitting on the last comma so labels may themselves contain
    commas.  Raises :class:`ParseError` with the line number on bad input.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    if format == FORMAT_ONE_PER_LINE:
        counts = []
        for line_no, line in enumerate(source, start=1):
            if not line.strip():
                continue
            counts.append(_parse_count(line, line_no))
        if not counts:
            raise ParseError("no counts found in input")
        return [CitationDataset(label, counts, shifted=False)]

    if format == FORMAT_LABELED:
        groups: dict[str, list[int]] = {}
        for line_no, line in enumerate(source, start=1):
            row = line.rstrip("\r\n")
            if not row.strip():
                continue
            if "," not in row:
                raise ParseError("expected 'journal,citations'", line_no)
            name, count_text = row.rsplit(",", 1)
            if line_no == 1 and not count_text.strip().lstrip("+-").isdigit():
                continue  # header row
            value = _parse_count(count_text, line_no)
            groups.setdefault(name, []).append(value)
        if not groups:
            raise ParseError("no data rows found in input")
        return [CitationDataset(name, counts, shifted=False)
                for name, counts in groups.items()]

    raise ParseError(f"unknown input format {format!r}")


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultDocument:
    """Everything computed for one dataset, ready to persist or render."""

    label: str
    n_articles: int
    lognormal: FitResult | None = None
    hooked: FitResult | None = None
    comparison: ComparisonResult | None = None
    lognormal_diagnostics: SegmentDiagnostics | None = None
    hooked_diagnostics: SegmentDiagnostics | None = None
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def _params_to_dict(params) -> dict:
    if isinstance(params, HookedPowerLawParams):
        return {"kind": "hooked", "alpha": params.alpha, "offset": params.offset,
                "truncation": params.truncation}
    return {"kind": "lognormal", "mu": params.mu, "sigma": params.sigma}


def _params_from_dict(d: dict):
    if d["kind"] == "hooked":
        return HookedPowerLawParams(d["alpha"], d["offset"], d["truncation"])
    return DiscretisedLognormalParams(d["mu"], d["sigma"])


def _fit_to_dict(fit: FitResult) -> dict:
    return {
        "model": fit.model.value,
        "params": _params_to_dict(fit.params),
        "log_likelihood": fit.log_likelihood,
        "converged": fit.converged,
        "alpha_capped": fit.alpha_capped,
        "iterations": fit.iterations,
        "n_articles": fit.n_articles,
        "trace": {
            "init_log_likelihood": fit.trace.init_log_likelihood,
            "evaluations": fit.trace.evaluations,
            "exit_reason": fit.trace.exit_reason,
            "at_sigma_floor": fit.trace.at_sigma_floor,
            "truncation_raised": fit.trace.truncation_raised,
            "warnings": list(fit.trace.warnings),
        },
    }


def _fit_from_dict(d: dict) -> FitResult:
    t = d["trace"]
    return FitResult(
        model=Model(d["model"]),
        params=_params_from_dict(d["params"]),
        log_likelihood=d["log_likelihood"],
        converged=d["converged"],
        alpha_capped=d["alpha_capped"],
        iterations=d["iterations"],
        n_articles=d["n_articles"],
        trace=FitTrace(
            init_log_likelihood=t["init_log_likelihood"],
            evaluations=t.get("evaluations"),
            exit_reason=t.get("exit_reason"),
            at_sigma_floor=t["at_sigma_floor"],
            truncation_raised=t["truncation_raised"],
            warnings=tuple(t["warnings"]),
        ),
    )


def _comparison_to_dict(c: ComparisonResult) -> dict:
    return {
        "ll_lognormal": c.ll_lognormal,
        "ll_hooked": c.ll_hooked,
        "vuong_z": None if math.isnan(c.vuong_z) else c.vuong_z,
        "p_two_sided": None if math.isnan(c.p_two_sided) else c.p_two_sided,
        "winner": c.winner.value,
        "n_articles": c.n_articles,
    }


def _comparison_from_dict(d: dict) -> ComparisonResult:
    nan = float("nan")
    return ComparisonResult(
        ll_lognormal=d["ll_lognormal"],
        ll_hooked=d["ll_hooked"],
        vuong_z=nan if d["vuong_z"] is None else d["vuong_z"],
        p_two_sided=nan if d["p_two_sided"] is None else d["p_two_sided"],
        winner=Winner(d["winner"]),
        n_articles=d["n_articles"],
    )


def _diag_to_dict(diag: SegmentDiagnostics) -> dict:
    return {
        "model": diag.model.value if isinstance(diag.model, Model) else str(diag.model),
        "segments": [
            {"index": s.index, "start": s.start, "end": s.end, "empty": s.empty}
            for s in diag.segments
        ],
        "signed_max_diff": list(diag.signed_max_diff),
    }


def _diag_from_dict(d: dict) -> SegmentDiagnostics:
    model = d["model"]
    if model in (m.value for m in Model):
        model = Model(model)
    return SegmentDiagnostics(
        model,
        tuple(SegmentSpec(s["index"], s["start"], s["end"], s["empty"])
              for s in d["segments"]),
        tuple(d["signed_max_diff"]),
    )


def document_to_dict(doc: ResultDocument) -> dict:
    opt = lambda value, conv: None if value is None else conv(value)
    return {
        "schema_version": doc.schema_version,
        "label": doc.label,
        "n_articles": doc.n_articles,
        "lognormal": opt(doc.lognormal, _fit_to_dict),
        "hooked": opt(doc.hooked, _fit_to_dict),
        "comparison": opt(doc.comparison, _comparison_to_dict),
        "lognormal_diagnostics": opt(doc.lognormal_diagnostics, _diag_to_dict),
        "hooked_diagnostics": opt(doc.hooked_diagnostics, _diag_to_dict),
        "provenance": doc.provenance,
    }


def document_from_dict(data: dict) -> ResultDocument:
    version = data.get("schema_version")
    if version not in READABLE_VERSIONS:
        raise SchemaVersionError(version, READABLE_VERSIONS)
    opt = lambda value, conv: None if value is None else conv(value)
    try:
        return ResultDocument(
            label=data["label"],
            n_articles=data["n_articles"],
            lognormal=opt(data["lognormal"], _fit_from_dict),
            hooked=opt(data["hooked"], _fit_from_dict),
            comparison=opt(data["comparison"], _comparison_from_dict),
            lognormal_diagnostics=opt(data["lognormal_diagnostics"], _diag_from_dict),
            hooked_diagnostics=opt(data["hooked_diagnostics"], _diag_from_dict),
            provenance=data.get("provenance", {}),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed result document: {exc!r}") from exc


def dumps_result(doc: ResultDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2, ensure_ascii=False) + "\n"


def loads_result(text: str) -> ResultDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed result document: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("malformed result document: expected an object")
    return document_from_dict(data)


def write_result(doc: ResultDocument, path) -> None:
    """Persist atomically: the document appears complete or not at all."""
    text = dumps_result(doc)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write result document {path!r}: {exc}") from exc


def read_result(path) -> ResultDocument:
    with open_text(path) as fh:
        return loads_result(fh.read())


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

STYLE_PARAMETERS = "parameters"
STYLE_SEGMENTS = "segments"


def _fmt_alpha(fit: FitResult) -> str:
    if fit.alpha_capped:
        cap = fit.params.alpha
        if cap >= 1000 and cap == int(cap) and int(cap) % 1000 == 0:
            return f"{int(cap) // 1000}k"
        return f"{cap:g}"
    return f"{fit.params.alpha:.1f}"


def _fmt_offset(value: float) -> str:
    return f"{value:.0f}" if value >= 1e5 else f"{value:.1f}"


def _fmt_z(c: ComparisonResult | None) -> str:
    if c is None or math.isnan(c.vuong_z):
        return "-"
    return f"{c.vuong_z:.2f}"


def _fmt_winner(c: ComparisonResult | None) -> str:
    if c is None:
        return "-"
    return c.winner.value if c.winner is not Winner.UNDEFINED else "-"


def _layout(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"


def _parameters_table(results: Sequence[ResultDocument]) -> str:
    rows = [["Journal", "Art.", "Ln mu", "Ln sigma", "Ln LL", "Hk alpha",
             "Hk B", "Hk LL", "Vuong", "Best"]]
    for doc in results:
        ln, hk = doc.lognormal, doc.hooked
        rows.append([
            doc.label,
            str(doc.n_articles),
            f"{ln.params.mu:.2f}" if ln else "-",
            f"{ln.params.sigma:.2f}" if ln else "-",
            f"{ln.log_likelihood:.1f}" if ln else "-",
            _fmt_alpha(hk) if hk else "-",
            _fmt_offset(hk.params.offset) if hk else "-",
            f"{hk.log_likelihood:.1f}" if hk else "-",
            _fmt_z(doc.comparison),
            _fmt_winner(doc.comparison),
        ])
    return _layout(rows)


def _percent_whole(value: float) -> str:
    pct = value * 100.0
    rounded = math.floor(pct + 0.5) if pct >= 0 else math.ceil(pct - 0.5)
    return f"{int(rounded)}%"


def _segments_table(results: Sequence[ResultDocument]) -> str:
    k = None
    for doc in results:
        for diag in (doc.lognormal_diagnostics, doc.hooked_diagnostics):
            if diag is not None:
                k = len(diag.segments)
                break
        if k:
            break
    if not k:
        raise ParseError("no segment diagnostics present in the given documents")

    header = (["Journal"] + [f"S{j} Ln" for j in range(1, k + 1)]
              + [f"S{j} hk" for j in range(1, k + 1)])
    rows = [header]
    columns: list[list[float]] = [[] for _ in range(2 * k)]
    for doc in results:
        cells = [doc.label]
        for base, diag in ((0, doc.lognormal_diagnostics), (k, doc.hooked_diagnostics)):
            for j in range(k):
                if diag is None:
                    cells.append("-")
                else:
                    value = diag.signed_max_diff[j]
                    columns[base + j].append(value)
                    cells.append(_percent_whole(value))
        rows.append(cells)

    def summary(name: str, fn) -> list[str]:
        return [name] + [fn(col) if col else "-" for col in columns]

    rows.append(summary("Mean", lambda col: f"{100 * sum(col) / len(col):.1f}%"))
    rows.append(summary("Median", lambda col: f"{100 * median(col):.1f}%"))
    rows.append(summary("Total >0", lambda col: str(sum(1 for v in col if v > 0))))
    rows.append(summary("Total <0", lambda col: str(sum(1 for v in col if v < 0))))
    rows.append(summary("Total >1%", lambda col: str(sum(1 for v in col if v > 0.01))))
    rows.append(summary("Total <-1%", lambda col: str(sum(1 for v in col if v < -0.01))))
    rows.append(summary("Total in [-1%,1%]",
                        lambda col: str(sum(1 for v in col if -0.01 <= v <= 0.01))))
    return _layout(rows)


def render_table(results: Sequence[ResultDocument], style: str = STYLE_PARAMETERS) -> str:
    """Render stored results as a plain-text table.

    ``parameters`` mirrors the per-journal fit summary (one row per dataset,
    capped exponents shown as ``10k``); ``segments`` emits the per-segment
    signed differences as whole percents with Mean/Median/Total summary rows.
    """
    if not results:
        raise ParseError("render_table needs at least one result document")
    if style == STYLE_PARAMETERS:
        return _parameters_table(results)
    if style == STYLE_SEGMENTS:
        return _segments_table(results)
    raise ParseError(f"unknown table style {style!r}")
