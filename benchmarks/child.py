"""One measured interpreter.  Usage: ``python3 child.py SPEC.json``.

The benchmark starts a fresh process for every timed run, because citefit
keeps process-wide caches (the hooked normalization ``lru_cache``) that make a
second run in the same process 2-3x faster than any run a user starts.

Modes (``spec["mode"]``):

``import``  import ``citefit`` and ``citefit.cli`` and report when ``main``
            became callable (the parent turns that into ``setup_s``);
``run``     call ``citefit.cli.main(argv)`` ``repeat`` times with stdout
            captured, optionally under the tracer;
``micro``   per-call microbenchmarks of the normalization and log-PMF.

The result is written as JSON to ``spec["result"]``.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def _peak_rss_mb() -> float:
    """Peak resident memory of this process.  ``ru_maxrss`` would also count
    the parent's resident set copied at fork, so read the memory map's own
    high-water mark where the kernel reports it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_entries(distributions) -> int:
    """Entries held by citefit's process-wide caches, 0 when cold."""
    total = 0
    for name in ("_hooked_log_norm", "_hooked_prefix"):
        info = getattr(getattr(distributions, name, None), "cache_info", None)
        if info is not None:
            total += info().currsize
    return total


def _run(spec: dict, out: dict) -> None:
    import citefit.cli
    import citefit.distributions

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for _ in range(spec.get("repeat", 1)):
        cache_at_start = _cache_entries(citefit.distributions)
        buf = io.StringIO()
        with redirect_stdout(buf):
            c0 = time.process_time()
            t0 = time.perf_counter()
            code = citefit.cli.main(list(spec["argv"]))
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        calls.append({"exit": code, "wall_s": wall, "cpu_s": cpu,
                      "stdout": buf.getvalue(), "cache_at_start": cache_at_start})
    out["calls"] = calls
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.spans


def _per_call_us(fn, args_list) -> float:
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e6 * times[len(times) // 2]


def _micro(spec: dict, out: dict) -> None:
    """Distinct (alpha, B) on every call, so no cached normalization is hit."""
    from citefit import (DiscretisedLognormalParams, HookedPowerLawParams,
                         SeededGenerator, hooked_log_norm, log_pmf_values, sample)
    import numpy as np

    def hooked(k, truncation):
        return HookedPowerLawParams(1.5 + 0.013 * k, 5.0 + 0.71 * k, truncation)

    out["n1e4_us"] = _per_call_us(
        hooked_log_norm, [(hooked(k, 10_000),) for k in range(300)])
    out["n1e6_us"] = _per_call_us(
        hooked_log_norm, [(hooked(k, 1_000_000),) for k in range(15)])
    ds = sample(DiscretisedLognormalParams(2.94, 1.03), 5000,
                SeededGenerator(spec["seed"]))
    support = np.unique(ds.counts).astype(np.float64)
    out["support"] = int(support.size)
    out["log_pmf_hooked_us"] = _per_call_us(
        log_pmf_values, [(hooked(k, 10_000), support) for k in range(1000, 1300)])
    out["log_pmf_lognormal_us"] = _per_call_us(
        log_pmf_values,
        [(DiscretisedLognormalParams(2.5 + 0.003 * k, 0.8 + 0.001 * k), support)
         for k in range(300)])


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"pid": os.getpid(), "warm_modules": "citefit.cli" in sys.modules}
    import citefit  # noqa: F401
    import citefit.cli  # noqa: F401
    out["ready_monotonic"] = time.monotonic()
    if spec["mode"] == "run":
        _run(spec, out)
    elif spec["mode"] == "micro":
        _micro(spec, out)
    out["peak_rss_mb"] = _peak_rss_mb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
