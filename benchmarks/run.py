#!/usr/bin/env python3
"""citefit benchmark: cold-process CLI runs on generated corpora.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload reference50 --seed 1 --seconds 60 --trace 0

Every timed run is a fresh interpreter calling ``citefit.cli.main(argv)``
(see ``child.py`` for why), with BLAS/OpenMP pinned to one thread.  The run
prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from a traced run (see ``tracing.py``), and the
interception and cold-start self-checks run.  End-to-end timings are
scaled by a host-speed probe timed between calls (see ``CALIBRATION``).
Outputs are checked outside the timed region (``checks.py``).  Scratch
files live under ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# one BLAS/OpenMP thread per process, so that --jobs 2 runs no more threads
# than the two cores it was written for; set before numpy loads here too
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

# metric names and units are defined once, in BENCHMARK.json
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _DEFINITION = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}
WHY = {w["name"]: w["why"] for w in _DEFINITION["workloads"]}
# the plotting layer runs only on heavy_tail, which BENCHMARK.json leaves out;
# a traced run prints these in its report, outside the JSON result
PLOT_LAYER = {"diagnostics.plot_series.busy_s": "s", "diagnostics.plot_series.self_s": "s",
              "diagnostics.PlotSeries.write.busy_s": "s",
              "diagnostics.PlotSeries.write.bytes": "bytes"}

# the seed's init_hooked scores a 17 x 17 grid, one log_pmf_values call each
GRID_EVALS_PER_FIT = 289
MIN_TIMED_RUNS = 3
MIN_SETUP_SAMPLES = 5
# a cold run this much faster than the median means a warm process
WARM_SPEEDUP = 2.0
CHILD_TIMEOUT_S = 150
# Host-speed probe: a fresh interpreter importing citefit's third-party
# dependencies and nothing of citefit, so no change to citefit moves it.  On
# a shared host the speed of a cold call drifts by 20-50% over minutes, and
# this probe drifts with it; the timings in the result are scaled to the
# host speed at which the probe takes CALIBRATION_REF_S.
CALIBRATION = "import numpy, scipy.special, mpmath, time; print(time.monotonic())"
CALIBRATION_REF_S = 0.5
# one probe per this much timed call, at least one per call
PROBE_EVERY_S = 2.5


def _fail_setup(message: str) -> None:
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "citefit", "cli.py")):
    _fail_setup(f"no citefit sources under {SRC}")
sys.path.insert(0, SRC)
try:
    import corpus
    import checks
    import numpy
    import scipy
except ImportError as exc:   # e.g. a directory holding only the benchmark
    _fail_setup(f"{exc}")
if not os.path.isfile(corpus.REFERENCE_TABLE):
    _fail_setup(f"missing {corpus.REFERENCE_TABLE}")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": "BLAS/OpenMP pinned to 1"}


class Bench:
    """One workload at one seed, with its scratch directory."""

    def __init__(self, workload: str, seed: int):
        self.w = corpus.build(workload, seed)
        again = corpus.build(workload, seed)
        if again.digest != self.w.digest:
            raise RuntimeError("corpus generator is not deterministic")
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work)
        self.dirs = {"out": os.path.join(self.work, "out"),
                     "plots": os.path.join(self.work, "plots")}
        input_path = os.path.join(self.work, "input.csv")
        with open(input_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.w.csv_text)
        self.argv = [a.format(input=input_path, **self.dirs) for a in self.w.argv]
        self.env = dict(os.environ, PYTHONPATH=SRC, **PINNED_THREADS)
        self._spec_no = 0
        # recovery reports by seed; the journal corpora by label
        keys = self.w.recovery_seeds or [j.label for j in self.w.journals]
        self.refs = {k: checks.lognormal_reference(j.counts, j.mu, j.sigma)
                     for k, j in zip(keys, self.w.journals)}
        self.n_articles = {k: int(j.counts.size) for k, j in zip(keys, self.w.journals)}
        self.datasets = [str(k) for k in keys]
        self.hooked_fits = 0 if self.w.recovery_seeds else len(self.datasets)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    def child(self, mode: str, **spec) -> tuple[dict | None, str, float]:
        """Run one fresh interpreter; returns (result, stderr, spawn time)."""
        self._spec_no += 1
        spec_path = os.path.join(self.work, f"spec{self._spec_no}.json")
        result_path = os.path.join(self.work, f"result{self._spec_no}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(dict(spec, mode=mode, result=result_path), fh)
        if mode == "run":
            for d in self.dirs.values():
                shutil.rmtree(d, ignore_errors=True)
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, CHILD, spec_path], env=self.env,
                              cwd=self.work, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        result = None
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        for p in (spec_path, result_path):
            if os.path.exists(p):
                os.remove(p)
        return result, proc.stderr, spawned

    def setup_sample(self) -> float:
        result, stderr, spawned = self.child("import")
        if result is None:
            raise RuntimeError(f"citefit does not import:\n{stderr}")
        return result["ready_monotonic"] - spawned

    def calibration_sample(self) -> float:
        """Spawn to imports done, timed like ``setup_sample``."""
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", CALIBRATION], env=self.env,
                              cwd=self.work, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"host-speed probe failed:\n{proc.stderr}")
        return float(proc.stdout) - spawned

    def outputs(self, call: dict) -> checks.RunOutputs:
        return checks.collect(call["exit"], call["stdout"], self.dirs)

    def check(self, run: checks.RunOutputs) -> checks.Verdict:
        if self.w.recovery_seeds:
            return checks.check_recovery(run, self.refs)
        return checks.check_journals(run, self.refs, self.n_articles,
                                     plots="{plots}" in self.w.argv)


def cold_start_violations(runs: list[dict]) -> list[str]:
    """Reasons to believe a timed run did not start from a fresh interpreter."""
    problems = []
    pids = [r["pid"] for r in runs]
    if len(set(pids)) != len(pids):
        problems.append(f"timed runs share a process: pids {pids}")
    for r in runs:
        if r["warm_modules"] or r["cache_at_start"]:
            problems.append(f"pid {r['pid']} started with citefit loaded or "
                            f"{r['cache_at_start']} cached normalizations")
    walls = [r["wall_s"] for r in runs]
    if len(walls) >= 2:
        typical = statistics.median(walls)
        problems += [f"run of {w:.3f}s is {typical / w:.1f}x faster than the "
                     f"median {typical:.3f}s" for w in walls
                     if w * WARM_SPEEDUP < typical]
    return problems


def _as_runs(result: dict) -> list[dict]:
    return [dict(call, pid=result["pid"], warm_modules=result["warm_modules"])
            for call in result["calls"]]


def timed(b: Bench, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    setups, runs, walls, rss, cpus, probes = [], [], [], [], [], []
    attempted = failed = 0
    reasons: list[str] = []
    first = verdict0 = None
    begin = time.monotonic()
    while True:
        cycle = time.monotonic()
        result, stderr, spawned = b.child("run", argv=b.argv)
        attempted += len(b.datasets)
        if result is None:
            failed += len(b.datasets)
            reasons.append(f"child failed: {stderr[-500:]}")
            break
        call = result["calls"][0]
        probes += [b.calibration_sample()
                   for _ in range(max(1, round(call["wall_s"] / PROBE_EVERY_S)))]
        setups.append(result["ready_monotonic"] - spawned)
        runs += _as_runs(result)
        walls.append(call["wall_s"])
        cpus.append(call["cpu_s"])
        rss.append(result["peak_rss_mb"])
        run = b.outputs(call)
        verdict = b.check(run)
        if first is None:
            first, verdict0 = run, verdict
        else:
            repeat = checks.check_repeat(first, run, b.datasets)
            verdict.failed |= repeat.failed
            verdict.reasons += repeat.reasons
        failed += len(verdict.failed & set(b.datasets))
        reasons += verdict.reasons
        elapsed = time.monotonic() - begin
        last = time.monotonic() - cycle
        if len(walls) >= MIN_TIMED_RUNS and elapsed + last > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(b.setup_sample())
    guard = cold_start_violations(runs)
    setup_raw = statistics.median(setups)
    metrics = {}
    if walls:
        # > 1 on a host slower than the reference speed
        slowdown = statistics.median(probes) / CALIBRATION_REF_S
        metrics["setup_s"] = setup_raw / slowdown
        # datasets completed over the whole run's timed calls: steadier than
        # the median of a handful of calls
        rate_raw = len(b.datasets) * len(walls) / sum(walls)
        metrics["datasets_per_s"] = rate_raw * slowdown
        metrics["peak_rss_mb"] = statistics.median(rss)
    info = [f"timed runs: {len(walls)}, wall s: "
            + " ".join(f"{w:.3f}" for w in walls) + ", cpu s: "
            + " ".join(f"{c:.3f}" for c in cpus) + ", peak MB: "
            + " ".join(f"{r:.1f}" for r in rss)
            + f", median per call {statistics.median(walls) if walls else 0:.3f} s",
            f"setup samples: {len(setups)}"]
    if walls:
        info.append(f"host-speed probe: median {statistics.median(probes):.3f} s over "
                    f"{len(probes)} samples, slowdown {slowdown:.4f} against "
                    f"{CALIBRATION_REF_S} s; unscaled datasets_per_s {rate_raw:.4f} 1/s, "
                    f"setup_s {setup_raw:.4f} s")
    if verdict0 is not None:
        # share of the attainable likelihood gain over the generating
        # parameters that the fits reached; 1 for an exact optimizer
        if verdict0.ln_best_gain_nats > 0:
            metrics["ln_ll_gain_share"] = (verdict0.ln_gain_nats
                                           / verdict0.ln_best_gain_nats)
        info.append(f"ln_ll_gain_nats {verdict0.ln_gain_nats:.6f} nats")
        if verdict0.hk_articles:
            info.append(f"hk_ll_per_article "
                        f"{verdict0.hk_ll / verdict0.hk_articles:.9f} nats")
    info.append(f"failed_ratio {failed / attempted:.6f} ratio "
                f"({failed} of {attempted} datasets)")
    return metrics, attempted, failed, reasons + guard, info


def import_breakdown(b: Bench, repeats: int = 3) -> dict:
    """``setup.*`` from ``python -X importtime``; medians over fresh runs."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import citefit, citefit.cli"],
            env=b.env, cwd=b.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
        cumulative, own = {}, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue          # the header line
            name = fields[2].strip()
            cumulative.setdefault(name, cum_us)
            if name == "citefit" or name.startswith("citefit."):
                own += self_us
        for key, value in (("numpy", cumulative.get("numpy", 0)),
                           ("scipy_special", cumulative.get("scipy.special", 0)),
                           ("mpmath", cumulative.get("mpmath", 0)),
                           ("citefit", own)):
            samples.setdefault(f"setup.{key}_s", []).append(value / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def traced(b: Bench, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    import tracing

    begin = time.monotonic()
    reasons: list[str] = []
    attempted = failed = 0
    # untraced reference run; its second call in the same process is the
    # negative control for the cold-start guard
    plain, stderr, _ = b.child("run", argv=b.argv, repeat=2)
    if plain is None:
        raise RuntimeError(f"untraced run failed:\n{stderr}")
    plain_run = b.outputs(plain["calls"][1])
    attempted += len(b.datasets)
    verdict = b.check(plain_run)
    failed += len(verdict.failed & set(b.datasets))
    reasons += verdict.reasons
    cold, warm = _as_runs(plain)
    if not cold_start_violations([cold, warm]):
        reasons.append("cold-start guard failed to flag a second run in one process")
    if plain["calls"][0]["stdout"] != plain["calls"][1]["stdout"]:
        reasons.append("a second call in one process printed different output")

    summaries, cold_runs = [], [cold]
    while True:
        cycle = time.monotonic()
        result, stderr, _ = b.child("run", argv=b.argv, trace=True)
        attempted += len(b.datasets)
        if result is None:
            failed += len(b.datasets)
            reasons.append(f"traced child failed: {stderr[-500:]}")
            break
        call = result["calls"][0]
        cold_runs += _as_runs(result)
        run = b.outputs(call)
        same = checks.check_repeat(plain_run, run, b.datasets)
        if same.failed:
            reasons += ["traced output differs from untraced: " + r for r in same.reasons]
        failed += len(same.failed & set(b.datasets))
        summaries.append(tracing.summarize(result["spans"], call["wall_s"]))
        now = time.monotonic()
        if now - begin + (now - cycle) > seconds:
            break
    reasons += cold_start_violations(cold_runs)
    if not summaries:
        return {}, attempted, failed, reasons, []
    counts = summaries[0]
    expected = {
        "fitting.fit_hooked.calls": b.hooked_fits,
        "fitting.init_hooked.calls": b.hooked_fits,
        "fitting.init_hooked.evals": GRID_EVALS_PER_FIT * b.hooked_fits,
        "fitting.fit_lognormal.calls": len(b.datasets),
    }
    for key, want in expected.items():
        if counts[key] != want:
            reasons.append(f"interception: {key} = {counts[key]}, expected {want}")
    for key, unit in PER_LAYER.items():
        if unit == "count" and any(s.get(key) != counts.get(key) for s in summaries):
            reasons.append(f"count {key} differs between traced runs")

    metrics = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries if key in s]
        metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = metrics["cli.main.busy_s"] - cold["wall_s"]
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / cold["wall_s"]
    metrics["fitting.fit_lognormal.ll_gain_nats"] = verdict.ln_gain_nats
    micro, stderr, _ = b.child("micro", seed=corpus.derive_seed("micro", 0))
    if micro is None:
        raise RuntimeError(f"microbenchmark failed:\n{stderr}")
    metrics["distributions.hooked_log_norm.n1e4_us"] = micro["n1e4_us"]
    metrics["distributions.hooked_log_norm.n1e6_us"] = micro["n1e6_us"]
    metrics["distributions.log_pmf_values.hooked.micro_us"] = micro["log_pmf_hooked_us"]
    metrics["distributions.log_pmf_values.lognormal.micro_us"] = micro["log_pmf_lognormal_us"]
    metrics.update(import_breakdown(b))
    info = [f"traced runs: {len(summaries)}, spans per run: {counts['spans']}",
            f"untraced wall {cold['wall_s']:.3f}s, warm second call "
            f"{warm['wall_s']:.3f}s ({warm['cache_at_start']} cached entries)",
            f"micro support: {micro['support']} distinct counts"]
    if "cli.analyze_dataset.p90_ms" in metrics:
        info.append(f"cli.analyze_dataset.p90_ms {metrics['cli.analyze_dataset.p90_ms']:.3f} ms")
    return metrics, attempted, failed, reasons, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    b = Bench(args.workload, args.seed)
    try:
        w = b.w
        print(f"workload {w.name}: {WHY.get(w.name, 'not listed in BENCHMARK.json')}")
        print(f"  argv: citefit {' '.join(w.argv)}")
        print(f"  corpus: {len(w.journals)} datasets, {w.articles} articles, "
              f"largest count {w.max_count}, sha256 {w.digest[:16]}")
        print("  environment: " + json.dumps(environment()))
        b.setup_sample()   # untimed: compiles bytecode, warms the page cache
        run = traced if args.trace else timed
        metrics, attempted, failed, reasons, info = run(b, args.seconds)
    finally:
        b.close()
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [k for k in wanted if k not in metrics]
    reasons += [f"metric {k} was not measured" for k in missing]
    for line in info:
        print(f"  {line}")
    for name, unit in (wanted | PLOT_LAYER if args.trace else wanted).items():
        if name in metrics:
            print(f"  {name:52s} {metrics[name]:.6g} {unit}")
    for reason in reasons:
        print(f"  CHECK FAILED: {reason}")
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in wanted.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
