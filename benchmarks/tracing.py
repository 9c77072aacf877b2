"""Spans around citefit's public functions, installed from outside.

Modules bind names at import (``from .fitting import fit_hooked``), so a
wrapper on the defining module alone would miss most calls.  Every wrapper is
therefore bound in each citefit module that holds the function, and
:meth:`Tracer.install` fails if one of :data:`REQUIRED_SITES` was missed.

A span is ``(name, start, end, parent, dataset, thread, extra)``; spans are
kept in memory and written out once the run ends.  The dataset id is the
label carried by the first argument, if any, inherited by child spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from collections import defaultdict

import citefit.cli
import citefit.data_io
import citefit.diagnostics
import citefit.distributions
import citefit.fitting
import citefit.selection
import citefit.synthesis

# span name -> (defining module, attribute).  The wrapper replaces the
# function in every citefit module that binds it, which covers each place a
# caller looks the name up.
SPANS = {
    "cli.analyze_dataset": ("cli", "analyze_dataset"),
    "data_io.parse_counts": ("data_io", "parse_counts"),
    "data_io.write_result": ("data_io", "write_result"),
    "data_io.render_table": ("data_io", "render_table"),
    "fitting.fit_hooked": ("fitting", "fit_hooked"),
    "fitting.fit_lognormal": ("fitting", "fit_lognormal"),
    "fitting.init_hooked": ("fitting", "init_hooked"),
    "distributions.log_pmf_values": ("distributions", "log_pmf_values"),
    "distributions.cdf_values": ("distributions", "cdf_values"),
    "selection.vuong_test": ("selection", "vuong_test"),
    "diagnostics.segment_differences": ("diagnostics", "segment_differences"),
    "diagnostics.plot_series": ("diagnostics", "plot_series"),
    "synthesis.sample": ("synthesis", "sample"),
}

_MODULES = ("cli", "data_io", "diagnostics", "distributions", "fitting",
            "selection", "synthesis")

# call sites that the pipeline uses; install() fails unless each one holds
# its wrapper, so a refactor that moves a lookup cannot silently drop spans
REQUIRED_SITES = (
    "cli.fit_hooked", "cli.fit_lognormal", "cli.analyze_dataset",
    "fitting.log_pmf_values", "fitting.init_hooked",
    "selection.log_pmf_values", "selection.vuong_test",
    "diagnostics.cdf_values", "diagnostics.segment_differences",
    "diagnostics.plot_series", "synthesis.cdf_values", "synthesis.fit_lognormal",
    "synthesis.sample", "data_io.parse_counts", "data_io.render_table",
    "data_io.write_result",
)

# spans whose name is refined by the model family of their first argument
_BY_MODEL = {"distributions.log_pmf_values", "distributions.cdf_values"}
_MODEL_SUFFIX = {"HookedPowerLawParams": ".hooked",
                 "DiscretisedLognormalParams": ".lognormal"}


def _dataset_of(args) -> str | None:
    for a in args[:1]:
        label = getattr(a, "label", None)
        if isinstance(label, str):
            return label
    return None


def _fit_extra(args, kwargs, result) -> dict:
    return {"ll": result.log_likelihood, "n": result.n_articles,
            "capped": bool(result.alpha_capped)}


def _parse_extra(args, kwargs, result) -> dict:
    return {"rows": sum(len(ds) for ds in result)}


def _write_plot_extra(args, kwargs, result) -> dict:
    svg = str(args[1] if len(args) > 1 else kwargs["svg_path"])
    csv = args[2] if len(args) > 2 else kwargs.get("csv_path")
    csv = str(csv) if csv is not None else os.path.splitext(svg)[0] + ".csv"
    return {"bytes": os.path.getsize(svg) + os.path.getsize(csv)}


_EXTRA = {
    "fitting.fit_hooked": _fit_extra,
    "fitting.fit_lognormal": _fit_extra,
    "data_io.parse_counts": _parse_extra,
    "diagnostics.PlotSeries.write": _write_plot_extra,
}


class Tracer:
    """Records one span per intercepted call; thread-safe for ``--jobs``."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    def _wrap(self, name: str, fn):
        extra_of = _EXTRA.get(name)
        by_model = name in _BY_MODEL
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            dataset = _dataset_of(args) or (parent[1] if parent else None)
            span_name = name
            if by_model:
                span_name += _MODEL_SUFFIX.get(type(args[0]).__name__, ".other")
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append((index, dataset))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = [span_name, start, end,
                                       parent[0] if parent else -1, dataset,
                                       threading.get_ident(), None]
            if extra_of is not None:
                tracer.spans[index][6] = extra_of(args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Bind every wrapper at all its call sites; raise if a required
        site was missed."""
        modules = {short: getattr(citefit, short) for short in _MODULES}
        for name, (home, attr) in SPANS.items():
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in (citefit, *modules.values()):
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        plot = citefit.diagnostics.PlotSeries
        self._patch(plot, "write", self._wrap("diagnostics.PlotSeries.write", plot.write))
        missing = [site for site in REQUIRED_SITES
                   if not hasattr(getattr(modules[site.split(".")[0]],
                                          site.split(".")[1]), "__traced__")]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer did not intercept {', '.join(missing)}; "
                               "update SPANS in benchmarks/tracing.py")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis of recorded spans (runs in the benchmark process)
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list, main_wall_s: float) -> dict:
    """Per-layer busy/self time, counts and ratios from one traced run."""
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        children.setdefault(sp[3], []).append(i)

    def self_time(i: int) -> float:
        s, e = spans[i][1], spans[i][2]
        covered = _union_length([(spans[c][1], spans[c][2])
                                 for c in children.get(i, ())])
        return (e - s) - covered

    def ancestor_named(i: int, prefix: str) -> bool:
        p = spans[i][3]
        while p != -1:
            if spans[p][0].startswith(prefix):
                return True
            p = spans[p][3]
        return False

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        by_name[sp[0]].append(i)

    def busy(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in by_name[name])

    def self_s(name: str) -> float:
        return sum(self_time(i) for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def evals_within(prefix: str) -> int:
        return sum(1 for i in by_name["distributions.log_pmf_values.hooked"]
                   + by_name["distributions.log_pmf_values.lognormal"]
                   if ancestor_named(i, prefix))

    m: dict[str, float] = {}
    for name in ("distributions.log_pmf_values.hooked",
                 "distributions.log_pmf_values.lognormal"):
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.calls"] = calls(name)
    m["distributions.cdf_values.busy_s"] = (
        busy("distributions.cdf_values.hooked")
        + busy("distributions.cdf_values.lognormal"))
    m["distributions.cdf_values.calls"] = (
        calls("distributions.cdf_values.hooked")
        + calls("distributions.cdf_values.lognormal"))

    hk_evals = evals_within("fitting.fit_hooked")
    grid_evals = evals_within("fitting.init_hooked")
    hk_fits = [spans[i][6] for i in by_name["fitting.fit_hooked"]]
    for name in ("fitting.fit_hooked", "fitting.init_hooked", "fitting.fit_lognormal",
                 "selection.vuong_test", "diagnostics.segment_differences",
                 "diagnostics.plot_series", "diagnostics.PlotSeries.write",
                 "data_io.parse_counts", "data_io.write_result",
                 "data_io.render_table", "synthesis.sample", "cli.analyze_dataset"):
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    m["fitting.fit_hooked.evals"] = hk_evals
    m["fitting.fit_hooked.capped"] = sum(1 for f in hk_fits if f["capped"])
    m["fitting.fit_hooked.ll_per_article"] = (
        sum(f["ll"] for f in hk_fits) / sum(f["n"] for f in hk_fits)
        if hk_fits else 0.0)
    m["fitting.init_hooked.evals"] = grid_evals
    m["fitting.init_hooked.eval_share"] = grid_evals / hk_evals if hk_evals else 0.0
    m["fitting.fit_lognormal.evals"] = evals_within("fitting.fit_lognormal")
    m["diagnostics.PlotSeries.write.bytes"] = sum(
        spans[i][6]["bytes"] for i in by_name["diagnostics.PlotSeries.write"])
    rows = sum(spans[i][6]["rows"] for i in by_name["data_io.parse_counts"])
    parse_s = busy("data_io.parse_counts")
    m["data_io.parse_counts.rows_per_s"] = rows / parse_s if parse_s > 0 else 0.0

    analyze = by_name["cli.analyze_dataset"]
    ms = sorted(1e3 * (spans[i][2] - spans[i][1]) for i in analyze)
    m["cli.analyze_dataset.p50_ms"] = statistics.median(ms) if ms else 0.0
    if len(ms) >= 100:
        m["cli.analyze_dataset.p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    if analyze:
        span = (max(spans[i][2] for i in analyze) - min(spans[i][1] for i in analyze))
        m["cli.analyze.concurrency"] = busy("cli.analyze_dataset") / span
    else:
        m["cli.analyze.concurrency"] = 0.0
    m["cli.main.busy_s"] = main_wall_s
    m["spans"] = len(spans)
    return m
