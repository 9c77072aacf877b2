"""Deterministic workload inputs, built from the repository alone.

Every journal of ``tests/reference_table.py`` is sampled with
``citefit.sample`` from its published (mu, sigma) and article count.  Each
journal's stream seed is derived from the workload's corpus name, the
benchmark seed and the row index, so the same seed always gives
byte-identical inputs (checked through :attr:`Workload.digest`).  The program
under test only ever sees the generated CSV or command line.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np

from citefit import DiscretisedLognormalParams, SeededGenerator, sample

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_TABLE = os.path.join(ROOT, "tests", "reference_table.py")

# recovery: the README example, with a seed count that makes one cold
# invocation long enough to time against the interpreter start-up
RECOVERY_TRUTH = (2.94, 1.03)
RECOVERY_N = 20000
RECOVERY_SEEDS = 40

# heavy_tail: one injected extreme article per journal.  The largest count
# raises the hooked truncation to 2 * n_max, so the O(N) normalization runs
# at N = 4e4 .. 1.2e5; the values are fixed so that memory and run length do
# not depend on the seed (only the sampled bulk does).
HEAVY_TAIL_ROWS = (3, 7, 25, 45)           # APL, BBRC, J Immunol, PRL
HEAVY_TAIL_NMAX = (20000, 35000, 45000, 60000)


@dataclass(frozen=True)
class Journal:
    label: str
    mu: float
    sigma: float
    counts: np.ndarray   # shifted (support starts at 1), as ``sample`` returns


@dataclass
class Workload:
    name: str
    argv: list[str]                      # CLI arguments; {out} etc. filled later
    journals: list[Journal]              # for recovery, the sample of each seed
    csv_text: str = ""
    recovery_seeds: list[int] = field(default_factory=list)

    @property
    def articles(self) -> int:
        return sum(int(j.counts.size) for j in self.journals)

    @property
    def max_count(self) -> int:
        """Largest raw (unshifted) citation count in the input."""
        return max(int(j.counts.max()) - 1 for j in self.journals)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update("\0".join(self.argv).encode())
        h.update(self.csv_text.encode())
        h.update(repr(self.recovery_seeds).encode())
        return h.hexdigest()


def reference_rows() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("reference_table", REFERENCE_TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCE_ROWS


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sample_journal(corpus: str, seed: int, index: int, row) -> Journal:
    label, articles, mu, sigma = row[0], int(row[1]), float(row[2]), float(row[3])
    ds = sample(DiscretisedLognormalParams(mu, sigma), articles,
                SeededGenerator(derive_seed(corpus, seed, index)), label=label)
    return Journal(label, mu, sigma, np.array(ds.counts))


def _csv(journals: list[Journal]) -> str:
    lines = ["journal,citations"]
    for j in journals:
        # the CLI shifts counts by one, so write the raw (unshifted) values
        lines.extend(f"{j.label},{int(c) - 1}" for c in j.counts)
    return "\n".join(lines) + "\n"


def _recovery_samples(seeds: list[int]) -> list[Journal]:
    """The samples ``simulate recovery`` draws itself, one per seed."""
    mu, sigma = RECOVERY_TRUTH
    truth = DiscretisedLognormalParams(mu, sigma)
    return [Journal(f"seed={s}", mu, sigma,
                    np.array(sample(truth, RECOVERY_N, SeededGenerator(s)).counts))
            for s in seeds]


WORKLOADS = ("reference50", "reference50_jobs2", "heavy_tail", "recovery")


def build(name: str, seed: int) -> Workload:
    """Build workload ``name`` for benchmark seed ``seed``."""
    if name in ("reference50", "reference50_jobs2"):
        journals = [_sample_journal("reference50", seed, i, row)
                    for i, row in enumerate(reference_rows())]
        argv = ["compare", "{input}", "--out", "{out}"]
        if name == "reference50_jobs2":
            argv += ["--jobs", "2"]
        return Workload(name, argv, journals, _csv(journals))
    if name == "heavy_tail":
        rows = reference_rows()
        journals = []
        for index, n_max in zip(HEAVY_TAIL_ROWS, HEAVY_TAIL_NMAX):
            j = _sample_journal("heavy_tail", seed, index, rows[index])
            counts = j.counts.copy()
            counts[int(np.argmax(counts))] = n_max + 1   # shifted value
            journals.append(Journal(j.label, j.mu, j.sigma, counts))
        argv = ["diagnose", "{input}", "--plot", "{plots}", "--out", "{out}"]
        return Workload(name, argv, journals, _csv(journals))
    if name == "recovery":
        base = derive_seed("recovery", seed) % (2**63 - RECOVERY_SEEDS)
        mu, sigma = RECOVERY_TRUTH
        argv = ["simulate", "recovery", "--truth", "lognormal",
                "--mu", repr(mu), "--sigma", repr(sigma), "--n", str(RECOVERY_N),
                "--seeds", str(RECOVERY_SEEDS), "--seed", str(base), "--out", "{out}"]
        seeds = list(range(base, base + RECOVERY_SEEDS))
        return Workload(name, argv, _recovery_samples(seeds),
                        recovery_seeds=seeds)
    raise KeyError(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")
