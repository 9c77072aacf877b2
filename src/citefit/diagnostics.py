"""Shape diagnostics: empirical CDFs, the four log-spaced segments, signed
maximum CDF differences, and cumulative-distribution plot series.

The segment heuristic splits the shifted-count axis ``[1, 1 + n_max]`` into
intervals of (approximately) equal width on the log scale, then reports, for
each interval and model, the empirical-minus-theoretical CDF difference of
largest magnitude.  Positive values mean the model underestimates cumulative
mass on that interval.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings as _warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import ModelParams, cdf_values
from .errors import DomainError, OutputError
from .fitting import CitationDataset

DEFAULT_SEGMENTS = 4


@dataclass(frozen=True)
class SegmentSpec:
    """One closed interval of shifted counts, numbered by its place from 1;
    ``empty`` marks one whose rounded start passed its rounded end."""

    start: int
    end: int
    empty: bool = False


@dataclass(frozen=True)
class SegmentDiagnostics:
    """One model's signed maximum CDF difference on each segment."""

    segments: tuple[SegmentSpec, ...]
    signed_max_diff: tuple[float, ...]

    def __post_init__(self):
        if len(self.signed_max_diff) != len(self.segments):
            raise ValueError(f"{len(self.segments)} segments but "
                             f"{len(self.signed_max_diff)} signed maximum differences")


def empirical_cdf(ds: CitationDataset, xs: np.ndarray) -> np.ndarray:
    """``#(counts <= x) / n`` at each of the integer points ``xs``."""
    values, mult = ds.distinct
    below = np.concatenate(([0], np.cumsum(mult)))
    return below[np.searchsorted(values, xs, "right")] / len(ds)


def make_segments(n_max: int, k: int = DEFAULT_SEGMENTS) -> list[SegmentSpec]:
    """Split ``[1, 1 + n_max]`` (shifted counts) into ``k`` log-spaced segments.

    Breakpoints sit at equal steps of ``ln(1 + n_max) / k``; each segment
    start is rounded up and each end rounded down, the first start is pinned
    at 1 (the shifted value of uncited articles) and the last end at
    ``1 + n_max``.  Starts are additionally bumped past the previous end so
    the segments stay disjoint even when a breakpoint lands on an integer.
    """
    if k < 1:
        raise DomainError(f"segment count must be >= 1, got {k!r}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max!r}")
    if n_max == 0:  # every breakpoint is 1: [1, 1], then empty segments
        _warnings.warn("n_max = 0: single degenerate segment [1, 1]",
                       stacklevel=2)
    top = 1 + n_max
    log_top = math.log(top)
    breakpoints = [math.exp(j * log_top / k) for j in range(k + 1)]

    def snap(p: float) -> float:
        # exp/log dust: treat values within 1e-9 (relative) of an integer as it
        r = round(p)
        return float(r) if abs(p - r) <= 1e-9 * max(1.0, abs(p)) else p

    segments: list[SegmentSpec] = []
    prev_end = 0
    for j in range(1, k + 1):
        start = 1 if j == 1 else math.ceil(snap(breakpoints[j - 1]))
        end = top if j == k else math.floor(snap(breakpoints[j]))
        start = max(start, prev_end + 1)
        if start > end:
            segments.append(SegmentSpec(0, 0, empty=True))
        else:
            segments.append(SegmentSpec(start, end))
            prev_end = end
    return segments


def _knots(ds: CitationDataset, segments: Sequence[SegmentSpec] = ()) -> np.ndarray:
    """Every distinct count v, v - 1 where that is >= 1, and the ends of each
    non-empty segment, sorted and without repeats.  The empirical CDF is flat
    from one distinct count to the point before the next, and a model CDF
    does not decrease there, so their difference peaks at one of these."""
    values, _ = ds.distinct
    ends = np.array([p for seg in segments if not seg.empty
                     for p in (seg.start, seg.end)], dtype=np.int64)
    pts = np.sort(np.concatenate((values, values - 1, ends)))
    pts = pts[pts >= 1]
    # a mask, not np.unique, which would import numpy.ma
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def segment_differences(
    ds: CitationDataset,
    params: ModelParams,
    segments: Sequence[SegmentSpec],
) -> SegmentDiagnostics:
    """Signed maximum CDF difference (empirical minus model) per segment.

    The differences are those at every integer of the segment, evaluated
    only at the segment's knots (see :func:`_knots`), which give the same
    value; empty segments report 0.
    """
    xs = _knots(ds, segments)
    d = empirical_cdf(ds, xs) - cdf_values(params, xs)
    diffs: list[float] = []
    for seg in segments:
        if seg.empty:
            diffs.append(0.0)
            continue
        lo, hi = np.searchsorted(xs, (seg.start, seg.end + 1))
        part = d[lo:hi]
        diffs.append(float(part[np.argmax(np.abs(part))]))
    return SegmentDiagnostics(tuple(segments), tuple(diffs))


# ---------------------------------------------------------------------------
# plot series
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 760, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 40, 48
_COLORS = ("#000000", "#1f77b4", "#d62728", "#2ca02c", "#9467bd")


@dataclass(frozen=True)
class PlotSeries:
    """Cumulative-distribution curves for one dataset: the empirical CDF plus
    one column per model, tabulated at the empirical CDF's knots: each
    distinct count and the point before it."""

    label: str
    xs: np.ndarray
    columns: tuple[tuple[str, np.ndarray], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x"] + [name for name, _ in self.columns])
        for i, x in enumerate(self.xs):
            writer.writerow([int(x)] + [f"{col[i]:.12g}" for _, col in self.columns])
        return buf.getvalue()

    def to_svg(self) -> str:
        x_top = float(self.xs[-1])
        log_top = math.log10(x_top) if x_top > 1 else 1.0
        plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
        plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

        def px(x: float) -> float:
            return _MARGIN_L + plot_w * (math.log10(x) / log_top)

        def py(y: float) -> float:
            return _MARGIN_T + plot_h * (1.0 - y)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
            f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
            f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
            f'<text x="{_SVG_W / 2:.1f}" y="24" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{_xml_escape(self.label)}</text>',
        ]
        # axes
        x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
        parts.append(
            f'<path d="M {x0} {_MARGIN_T} L {x0} {y0} L {x0 + plot_w} {y0}" '
            'stroke="black" fill="none" stroke-width="1"/>')
        for frac in range(0, 11, 2):
            y = frac / 10.0
            parts.append(
                f'<line x1="{x0 - 4}" y1="{py(y):.2f}" x2="{x0}" y2="{py(y):.2f}" '
                'stroke="black" stroke-width="1"/>')
            parts.append(
                f'<text x="{x0 - 8}" y="{py(y) + 4:.2f}" font-family="sans-serif" '
                f'font-size="11" text-anchor="end">{y:.1f}</text>')
        decade = 1
        while decade <= x_top:
            parts.append(
                f'<line x1="{px(decade):.2f}" y1="{y0}" x2="{px(decade):.2f}" '
                f'y2="{y0 + 4}" stroke="black" stroke-width="1"/>')
            parts.append(
                f'<text x="{px(decade):.2f}" y="{y0 + 18}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle">{decade}</text>')
            decade *= 10
        parts.append(
            f'<text x="{x0 + plot_w / 2:.1f}" y="{_SVG_H - 10}" '
            'font-family="sans-serif" font-size="12" text-anchor="middle">'
            'shifted citation count</text>')
        parts.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" '
            'font-family="sans-serif" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">'
            'cumulative probability</text>')
        # curves + legend
        for idx, (name, col) in enumerate(self.columns):
            color = _COLORS[idx % len(_COLORS)]
            points = " ".join(
                f"{px(float(x)):.2f},{py(float(col[i])):.2f}"
                for i, x in enumerate(self.xs))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>')
            ly = _MARGIN_T + 14 + 16 * idx
            parts.append(
                f'<line x1="{x0 + 10}" y1="{ly}" x2="{x0 + 34}" y2="{ly}" '
                f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{x0 + 40}" y="{ly + 4}" font-family="sans-serif" '
                f'font-size="11">{_xml_escape(name)}</text>')
        parts.append('</svg>')
        return "\n".join(parts) + "\n"

    def write(self, svg_path) -> None:
        """Write the SVG chart, and its table beside it under the same stem
        with a .csv suffix.  Output is byte-identical across runs."""
        csv_path = os.path.splitext(str(svg_path))[0] + ".csv"
        for path, text in ((svg_path, self.to_svg()), (csv_path, self.to_csv())):
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise OutputError(f"cannot write plot file {path!r}: {exc}") from exc


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def plot_series(
    ds: CitationDataset,
    models: Sequence[tuple[str, ModelParams]],
) -> PlotSeries:
    """Build the empirical-vs-model cumulative curves for one dataset.

    Returns a :class:`PlotSeries`; writing files is the caller's move via
    :meth:`PlotSeries.write`.
    """
    if len(models) < 1:
        raise DomainError("plot_series needs at least one model")
    xs = _knots(ds)
    columns = [("empirical", empirical_cdf(ds, xs))]
    columns += [(name, cdf_values(params, xs)) for name, params in models]
    return PlotSeries(ds.label, xs, tuple(columns))
