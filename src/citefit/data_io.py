"""Dataset ingestion, result persistence, and report table rendering.

Input is plain UTF-8 text: either one count per line, or labeled two-column
``journal,citations`` rows, as a comma in the first non-blank row says (an
optional header is that row, detected by a non-numeric second field).
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
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, EnumMeta
from functools import lru_cache
from statistics import median
from types import NoneType, UnionType
from typing import Iterator, Sequence, TextIO, Union, get_args, get_origin, get_type_hints

import numpy as np

from .distributions import ModelParams
from .errors import OutputError, ParseError, SchemaVersionError
from .fitting import MAX_RAW_COUNT, CitationDataset, FitResult
from .selection import ComparisonResult, Winner
from .diagnostics import SegmentDiagnostics

SCHEMA_VERSION = 4
# versions this build reads; keys that versions 3 and 4 dropped are ignored, and a
# version 1 trace loads ``evaluations`` as None and ``exit_reason`` from its flags
READABLE_VERSIONS = (1, 2, 3, 4)

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
    if value > MAX_RAW_COUNT:
        raise ParseError(f"count exceeds the largest supported count, {MAX_RAW_COUNT}",
                         line_no)
    return value


class _DigestingFile(io.FileIO):
    """A raw file reader that feeds every byte it reads to a hashlib digest,
    through ``readinto`` (sized reads) or ``readall`` (a read to the end)."""

    def __init__(self, path, digest):
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.digest.update(buffer[:n])
        return n

    def readall(self) -> bytes:
        data = super().readall()
        self.digest.update(data)
        return data


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
            # the stream's error holds no file offset; as no UTF-8 character
            # holds byte 0x0A, the first line that fails to decode holds it
            with open(path, "rb") as raw_fh:
                for line_no, line in enumerate(raw_fh, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ParseError(f"{os.fspath(path)!r} is not UTF-8 text: "
                                         f"{exc.reason}", line_no) from None
            raise


# one plain count to a line: at most 18 ASCII digits, so never past
# MAX_RAW_COUNT, after an optional plus sign, between spaces or tabs, before
# an optional carriage return
_COUNT = r"[ \t]*\+?[0-9]{1,18}[ \t]*\r?\n"
# a maximal run of labeled rows that share one label prefix (the text up to
# and with the last comma, without a NUL, which numpy's separator cannot
# hold) and hold plain counts ...
_RUN = re.compile(rf"([^\n\x00]*,){_COUNT}(?:\1{_COUNT})*")
# ... and of plain counts, whose label prefix is empty
_COUNT_RUN = re.compile(rf"()(?:{_COUNT})+")
# input is read in pieces of about this many characters, each completed to a
# line end
_CHUNK = 8192


def _line_chunks(source: TextIO) -> Iterator[str]:
    """``source`` in pieces of about :data:`_CHUNK` characters, each ending
    at a line end (or the end)."""
    while chunk := source.read(_CHUNK):
        if chunk[-1] != "\n":
            chunk += source.readline()
        yield chunk


def parse_counts(source: TextIO | str, *, label: str = "") -> list[CitationDataset]:
    """Parse citation counts from a text stream into datasets of shifted
    counts: each dataset holds the counts read plus one, so uncited articles
    sit at 1.  A count read may be 0 to :data:`MAX_RAW_COUNT`.

    The first non-blank line names the layout.  Without a comma the input
    holds one count per line, read as a single dataset named by ``label``.
    With one it holds ``journal,citations`` rows, grouped by journal in
    first-seen order and split on the last comma so labels may themselves
    contain commas; that first line is skipped as a header if its count field
    is not an integer.  The stream is read once, a run at a time: a maximal
    run of plain counts under one label is matched at once and its counts
    converted in one call; any other line (blank, the first, a count with a
    minus sign, other padding or other digits, or an error) is read on its own.
    Raises :class:`ParseError` with the line number on bad input.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    groups: dict[str, list] = {}  # each label's counts, as arrays and lists
    run = None  # the run pattern of the layout, once the first line sets it
    name = parts = None  # the label of the previous row and its parts
    line_no = 0  # lines read so far
    for chunk in _line_chunks(source):
        pos, end = 0, len(chunk)
        while pos < end:  # a run of rows, or else one line
            match = run and run.match(chunk, pos)
            if match:
                prefix = match.group(1)
                # past the first prefix, numpy reads the counts between
                # separators "\n<prefix>", whose newline stands for any run of
                # whitespace, such as a count's padding and "\r"
                counts = np.fromstring(chunk[pos + len(prefix):match.end()],
                                       dtype=np.int64, sep="\n" + prefix)
                row_name = prefix[:-1] if prefix else label
                pos = match.end()
                line_no += len(counts)
            else:
                stop = chunk.find("\n", pos) + 1 or end
                line = chunk[pos:stop]
                pos = stop
                line_no += 1
                if not line.strip():
                    continue
                row_name, comma, count_text = line.rpartition(",")
                if run is None:
                    run = _RUN if comma else _COUNT_RUN
                    if comma and not count_text.strip().lstrip("+-").isdigit():
                        continue  # header row
                if run is _COUNT_RUN:
                    row_name, count_text = label, line
                elif not comma:
                    raise ParseError("expected 'journal,citations'", line_no)
                count = _parse_count(count_text, line_no)
            if row_name != name:
                name = row_name
                parts = groups.setdefault(name, [])
            if match:
                parts.append(counts)
            elif parts and isinstance(parts[-1], list):
                parts[-1].append(count)  # single rows extend one list
            else:
                parts.append([count])
    if not groups:
        raise ParseError("no data rows found in input" if run is _RUN
                         else "no counts found in input")
    return [CitationDataset(name, np.add(np.concatenate(parts), 1))
            for name, parts in groups.items()]


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


_PARAMS_BY_KIND = {cls.model.value: cls for cls in get_args(ModelParams)}
_type_hints = lru_cache(maxsize=None)(get_type_hints)


def to_json(value):
    """The JSON form of a persisted dataclass: its fields in declaration
    order, parameter objects led by a ``"kind"`` tag naming their class,
    enums as their values and a float that is not finite as ``null``."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if is_dataclass(value):
        data = {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
        return {"kind": value.model.value, **data} if isinstance(value, ModelParams) else data
    return value


def _decode(hint, value):
    if hint == ModelParams:
        hint = _PARAMS_BY_KIND[value["kind"]]
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # ``X | None``
        [member] = [a for a in args if a is not NoneType]
        return None if value is None else _decode(member, value)
    if isinstance(hint, EnumMeta):
        return hint(value)
    # its JSON type; a float takes an int or null (as NaN); a bool is no number
    kind = (list if origin is tuple else dict if origin is dict or is_dataclass(hint)
            else (int, float, NoneType) if hint is float else hint)
    if not isinstance(value, kind) or (isinstance(value, bool) and hint is not bool):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    if origin is tuple:
        return tuple(_decode(args[0], v) for v in value)
    if origin is dict:
        return {k: _decode(args[1], v) for k, v in value.items()}
    if is_dataclass(hint):
        hints = _type_hints(hint)
        return hint(**{f.name: _decode(hints[f.name], value.get(f.name))
                       for f in fields(hint) if f.init and (
                           f.name in value or NoneType in get_args(hints[f.name]))})
    return math.nan if value is None else value


def from_json(cls, data):
    """Rebuild a ``cls`` from its :func:`to_json` form.  A key missing from
    ``data`` loads as ``None`` where the field admits it (the telemetry a
    version 1 trace lacks) and as the field's default otherwise; other keys
    are ignored, and each value must be of its field's type."""
    try:
        return _decode(cls, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {cls.__name__}: {exc!r}") from exc


def write_json(data, path) -> None:
    """Persist ``data`` as indented, strict JSON (no NaN or infinity)
    atomically: the file appears complete or not at all."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(data, indent=2, ensure_ascii=False, allow_nan=False) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc}") from exc


def write_result(doc: ResultDocument, path) -> None:
    write_json(to_json(doc), path)


def _v1_exit_reason(fit: dict) -> str | None:
    """How a version 1 fit ended, from the three flags it stored instead."""
    flags = fit.get("alpha_capped"), fit.get("converged"), fit["trace"].get("at_sigma_floor")
    if not all(isinstance(flag, bool) for flag in flags):
        raise ParseError(f"malformed version 1 fit: flags {flags!r} are not all booleans")
    ll, (capped, converged, at_floor) = fit.get("log_likelihood"), flags
    if not isinstance(ll, (int, float)) or not -math.inf < ll < math.inf:
        return None
    return ("cap" if capped else "budget" if not converged
            else "sigma_floor" if at_floor else "converged")


def read_result(path) -> ResultDocument:
    """The document stored at ``path`` by :func:`write_result`, from any of
    :data:`READABLE_VERSIONS`; anything else raises :class:`ParseError` or
    :class:`SchemaVersionError` naming ``path``."""
    name = repr(os.fspath(path))
    with open_text(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{name}: malformed result document: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{name}: malformed result document: expected an object")
    if data.get("kind") == "recovery_report":
        raise ParseError(f"{name} is a simulate recovery report, not a result document")
    version = data.get("schema_version")
    if version not in READABLE_VERSIONS:
        raise SchemaVersionError(name, version, READABLE_VERSIONS)
    try:
        if version == 1:
            for fit in (data.get("lognormal"), data.get("hooked")):
                if isinstance(fit, dict) and isinstance(fit.get("trace"), dict):
                    fit["trace"]["exit_reason"] = _v1_exit_reason(fit)
        return from_json(ResultDocument, data)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from exc


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


def ll_cell(fit: FitResult | None) -> str:
    """A fit's log-likelihood cell, ``-`` where there is none or it is not finite."""
    return f"{fit.log_likelihood:.1f}" if fit and math.isfinite(fit.log_likelihood) else "-"


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
            ll_cell(ln),
            _fmt_alpha(hk) if hk else "-",
            _fmt_offset(hk.params.offset) if hk else "-",
            ll_cell(hk),
            *vuong_cells(doc.comparison),
        ])
    return _layout(rows)


def _percent_whole(value: float) -> str:
    pct = value * 100.0
    rounded = math.floor(pct + 0.5) if pct >= 0 else math.ceil(pct - 0.5)
    return f"{int(rounded)}%"


def _segments_table(results: Sequence[ResultDocument]) -> str:
    ks = sorted({len(diag.segments) for doc in results
                 for diag in (doc.lognormal_diagnostics, doc.hooked_diagnostics)
                 if diag is not None})
    if len(ks) > 1:
        raise ParseError("the documents hold different segment counts, "
                         f"{', '.join(map(str, ks))}; report each --segments value apart")
    if not ks or not ks[0]:
        raise ParseError("no segment diagnostics present in the given documents")
    [k] = ks

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
