"""Dataset ingestion, result persistence, and report table rendering.

Input is plain UTF-8 text: either one count per line, or labeled two-column
``journal,citations`` rows (an optional header is the first non-blank row,
detected by a non-numeric second field).
Results persist as versioned JSON documents that round-trip exactly; tables
render with fixed, locale-independent formatting that mirrors the reference
layout (two decimals for the lognormal parameters, one for log-likelihoods,
capped exponents as ``10k``, whole-percent segment differences).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, EnumMeta
from functools import lru_cache
from statistics import median
from types import NoneType, UnionType
from typing import Iterator, Sequence, TextIO, Union, get_args, get_origin, get_type_hints

from .distributions import DiscretisedLognormalParams, HookedPowerLawParams, ModelParams
from .errors import OutputError, ParseError, SchemaVersionError
from .fitting import CitationDataset, FitResult, model_of
from .selection import ComparisonResult, Winner
from .diagnostics import SegmentDiagnostics

SCHEMA_VERSION = 2
# versions this build reads; version 1 documents predate the fit trace's
# ``evaluations`` and ``exit_reason``, which load as None.  A document read
# in is held, and written back, as the current version.
READABLE_VERSIONS = (1, 2)

FORMAT_AUTO = "auto"
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


class _DigestingFile(io.FileIO):
    """A raw file reader that feeds every byte it reads to a hashlib digest."""

    def __init__(self, path, digest):
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.digest.update(buffer[:n])
        return n


@contextmanager
def open_text(path, digest=None) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8")`` for reading, except that bytes which
    are not UTF-8 raise :class:`ParseError` naming the file and their line.
    A hashlib ``digest``, if given, is updated with every byte as it is read,
    so one pass both decodes and hashes the file."""
    binary = io.FileIO(path) if digest is None else _DigestingFile(path, digest)
    with io.TextIOWrapper(io.BufferedReader(binary), encoding="utf-8") as fh:
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
    commas, and skips the first non-blank row as a header if its count field
    is not an integer; ``auto`` reads ``labeled`` rows if the first non-blank
    line holds a comma and one count per line otherwise.  The stream is read
    once.
    Raises :class:`ParseError` with the line number on bad input.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = enumerate(source, start=1)
    if format == FORMAT_AUTO:
        first = next(((n, line) for n, line in lines if line.strip()), (0, ""))
        format = FORMAT_LABELED if "," in first[1] else FORMAT_ONE_PER_LINE
        lines = itertools.chain([first], lines)
    if format == FORMAT_ONE_PER_LINE:
        counts = []
        for line_no, line in lines:
            if not line.strip():
                continue
            counts.append(_parse_count(line, line_no))
        if not counts:
            raise ParseError("no counts found in input")
        return [CitationDataset(label, counts, shifted=False)]

    if format == FORMAT_LABELED:
        groups: dict[str, list[int]] = {}
        rows = 0
        for line_no, line in lines:
            row = line.rstrip("\r\n")
            if not row.strip():
                continue
            rows += 1
            if "," not in row:
                raise ParseError("expected 'journal,citations'", line_no)
            name, count_text = row.rsplit(",", 1)
            if rows == 1 and not count_text.strip().lstrip("+-").isdigit():
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
    """Everything computed for one dataset, ready to persist or render.  It
    is always the current schema version, whatever version it was read from."""

    schema_version: int = field(default=SCHEMA_VERSION, init=False)
    label: str
    n_articles: int
    lognormal: FitResult | None = None
    hooked: FitResult | None = None
    comparison: ComparisonResult | None = None
    lognormal_diagnostics: SegmentDiagnostics | None = None
    hooked_diagnostics: SegmentDiagnostics | None = None
    provenance: dict = field(default_factory=dict)


_PARAMS_BY_KIND = {"hooked": HookedPowerLawParams, "lognormal": DiscretisedLognormalParams}
_type_hints = lru_cache(maxsize=None)(get_type_hints)


def to_json(value):
    """The JSON form of a persisted dataclass: its fields in declaration
    order, parameter objects led by a ``"kind"`` tag naming their class,
    enums as their values and a NaN float as ``null``."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if is_dataclass(value):
        data = {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
        return {"kind": model_of(value).value, **data} if isinstance(value, ModelParams) else data
    return value


def _decode(hint, value):
    if hint == ModelParams:
        hint = _PARAMS_BY_KIND[value["kind"]]
    if value is None:
        return math.nan if hint is float else None
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # ``X | None``
        [member] = [a for a in args if a is not NoneType]
        return _decode(member, value)
    if origin is tuple:
        return tuple(_decode(args[0], v) for v in value)
    if origin is dict:
        return {k: _decode(args[1], v) for k, v in value.items()}
    if is_dataclass(hint):
        hints = _type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], value.get(f.name))
                       for f in fields(hint) if f.init and (
                           f.name in value or NoneType in get_args(hints[f.name]))})
    return hint(value) if isinstance(hint, EnumMeta) else value


def from_json(cls, data):
    """Rebuild a ``cls`` from its :func:`to_json` form.  A key missing from
    ``data`` loads as ``None`` where the field admits it (the telemetry a
    version 1 trace lacks) and as the field's default otherwise."""
    try:
        return _decode(cls, data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {cls.__name__}: {exc!r}") from exc


def document_from_dict(data: dict) -> ResultDocument:
    version = data.get("schema_version")
    if version not in READABLE_VERSIONS:
        raise SchemaVersionError(version, READABLE_VERSIONS)
    return from_json(ResultDocument, data)


def _dumps(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def write_json(data, path) -> None:
    """Persist ``data`` as JSON atomically: the file appears complete or not
    at all."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(_dumps(data))
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc}") from exc


def dumps_result(doc: ResultDocument) -> str:
    return _dumps(to_json(doc))


def loads_result(text: str) -> ResultDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed result document: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("malformed result document: expected an object")
    return document_from_dict(data)


def write_result(doc: ResultDocument, path) -> None:
    write_json(to_json(doc), path)


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


def vuong_cells(c: ComparisonResult | None) -> tuple[str, str]:
    """The Vuong z and best-model cells of a row, ``-`` where undefined."""
    if c is None:
        return "-", "-"
    z = "-" if math.isnan(c.vuong_z) else f"{c.vuong_z:.2f}"
    return z, "-" if c.winner is Winner.UNDEFINED else c.winner.value


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
            *vuong_cells(doc.comparison),
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
