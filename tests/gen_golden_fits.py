"""Generate ``tests/golden_fits.json``, the fits that ``test_golden_fits.py``
holds the program to.

Usage (from the repository root)::

    python tests/gen_golden_fits.py

The inputs are the reference50 corpus at seeds 1, 13, 21 and 77 and the
heavy_tail corpus at seed 5, built by the recipe of the benchmark's corpus
module: every journal of ``reference_table.py`` (four of them for
heavy_tail) sampled by ``citefit.sample`` from its published (mu, sigma)
and article count, on a stream seeded from the corpus name, the seed and the
row index, and written as one ``journal,citations`` CSV.  heavy_tail then
raises each journal's largest count to a fixed extreme.  The golden file
holds each CSV's sha256 and, per journal, what ``cli.analyze_dataset``
returns under the default configuration: ``n_articles``, each fit's
log-likelihood, parameters, ``exit_reason`` and ``alpha_capped``, and the
comparison's winner and ``vuong_z``.

The script then runs itself again under other CPU and BLAS kernels
(:data:`KERNEL_SWITCHES`, numpy without its AVX-512 paths and OpenBLAS's
Haswell kernels), where sums run in other orders.  A journal whose
log-likelihoods agree there to 1e-12 while a parameter moves past the
test's tolerance sits on a flat ridge of its likelihood, where the
parameters are not identified: it is stored with ``"identified": false``.
"""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from citefit import DiscretisedLognormalParams, SeededGenerator, sample  # noqa: E402
from citefit.cli import CliConfig, analyze_dataset  # noqa: E402
from citefit.data_io import parse_counts  # noqa: E402
from reference_table import REFERENCE_ROWS  # noqa: E402

GOLDEN = os.path.join(HERE, "golden_fits.json")
INPUTS = (("reference50", 1), ("reference50", 13), ("reference50", 21),
          ("reference50", 77), ("heavy_tail", 5))
# heavy_tail: the rows of four journals, and the count each one's largest
# count is raised to
HEAVY_TAIL_ROWS = (3, 7, 25, 45)
HEAVY_TAIL_NMAX = (20000, 35000, 45000, 60000)
KERNEL_SWITCHES = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                   "OPENBLAS_CORETYPE": "Haswell"}
# the test's tolerance, and how close the log-likelihoods of a ridge agree
TOLERANCE = 1e-9
RIDGE_LL = 1e-12


def _seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def input_csv(corpus: str, seed: int) -> str:
    """The CSV text of one input, raw (unshifted) counts."""
    if corpus == "reference50":
        picked = [(i, row, None) for i, row in enumerate(REFERENCE_ROWS)]
    else:
        picked = [(i, REFERENCE_ROWS[i], n_max)
                  for i, n_max in zip(HEAVY_TAIL_ROWS, HEAVY_TAIL_NMAX)]
    lines = ["journal,citations"]
    for index, (label, articles, mu, sigma, *_), n_max in picked:
        ds = sample(DiscretisedLognormalParams(float(mu), float(sigma)), int(articles),
                    SeededGenerator(_seed(corpus, seed, index)), label=label)
        counts = np.array(ds.counts)
        if n_max is not None:
            counts[int(np.argmax(counts))] = n_max + 1  # shifted
        lines.extend(f"{label},{int(c) - 1}" for c in counts)
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(value: float):
    return value if math.isfinite(value) else None  # strict JSON


def _fit_record(fit) -> dict:
    params = {f.name: getattr(fit.params, f.name) for f in dataclasses.fields(fit.params)}
    return {"log_likelihood": _finite(fit.log_likelihood), "params": params,
            "exit_reason": fit.trace.exit_reason, "alpha_capped": fit.alpha_capped}


def fit_records(text: str) -> list[dict]:
    """Per journal of the CSV ``text``, what the golden file stores."""
    records = []
    for ds in parse_counts(io.StringIO(text)):
        doc = analyze_dataset(ds, CliConfig("compare"))
        records.append({"label": doc.label, "n_articles": doc.n_articles,
                        "identified": True,
                        "lognormal": _fit_record(doc.lognormal),
                        "hooked": _fit_record(doc.hooked),
                        "winner": doc.comparison.winner.value,
                        "vuong_z": _finite(doc.comparison.vuong_z)})
    return records


def close(got, want) -> bool:
    """Within the tolerance: relative, or absolute where ``|want| < 1``."""
    if got is None or want is None:
        return got is want
    return abs(got - want) <= TOLERANCE * max(abs(want), 1.0)


def mismatches(got: dict, want: dict) -> list[str]:
    """The fields where one journal's record ``got`` departs from the golden
    ``want``: floats past the tolerance, anything else at all.  Where
    ``want`` is not identified, only the log-likelihoods, the flags and the
    winner count."""
    found = []

    def check(name, g, w, exact):
        if (g != w) if exact else not close(g, w):
            found.append(f"{name}: {g!r}, golden {w!r}")

    for key in ("n_articles", "winner"):
        check(key, got[key], want[key], True)
    for model in ("lognormal", "hooked"):
        g, w = got[model], want[model]
        check(f"{model}.log_likelihood", g["log_likelihood"], w["log_likelihood"], False)
        for key in ("exit_reason", "alpha_capped"):
            check(f"{model}.{key}", g[key], w[key], True)
        if want["identified"]:
            for key, value in w["params"].items():
                check(f"{model}.params.{key}", g["params"][key], value,
                      not isinstance(value, float))
    if want["identified"]:
        check("vuong_z", got["vuong_z"], want["vuong_z"], False)
    return found


def input_name(corpus: str, seed: int) -> str:
    return f"{corpus}_{seed}"


def _golden() -> dict:
    inputs = {}
    for corpus, seed in INPUTS:
        text = input_csv(corpus, seed)
        inputs[input_name(corpus, seed)] = {"sha256": digest(text),
                                            "journals": fit_records(text)}
    return {"inputs": inputs}


def _ridge(here: dict, there: dict) -> bool:
    """Log-likelihoods agree to ``RIDGE_LL`` while a parameter does not
    agree within the tolerance."""
    moved = False
    for model in ("lognormal", "hooked"):
        a, b = here[model], there[model]
        if abs(a["log_likelihood"] - b["log_likelihood"]) > RIDGE_LL * abs(a["log_likelihood"]):
            return False
        moved |= any(not close(b["params"][k], v) for k, v in a["params"].items()
                     if isinstance(v, float))
    return moved


def main() -> None:
    if sys.argv[1:] == ["--stdout"]:
        json.dump(_golden(), sys.stdout)
        return
    golden = _golden()
    other = json.loads(subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--stdout"], check=True,
        capture_output=True, text=True, env={**os.environ, **KERNEL_SWITCHES}).stdout)
    moved = []
    for key, fits in golden["inputs"].items():
        for here, there in zip(fits["journals"], other["inputs"][key]["journals"]):
            if _ridge(here, there):
                here["identified"] = False
                print(f"{key}: {here['label']}: not identified", file=sys.stderr)
            moved += [f"{key}: {here['label']}: {m}" for m in mismatches(there, here)]
    if moved:  # the golden file must hold under both kernels
        sys.exit("the kernel switches move fits past the tolerance:\n" + "\n".join(moved))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
