"""Output checks, run outside the timed region.

A dataset (one journal, or one seed for ``recovery``) fails when the run
exits non-zero, when its table row or document is missing or unparseable,
when a log-likelihood is not finite or disagrees with its recomputation,
when its lognormal fit scores below the generating (mu, sigma) on the same
counts, or when its outputs differ from the first run with the same seed.

The lognormal log-likelihood is recomputed here with scipy alone, so the
fit-quality figures do not trust the program's own arithmetic.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_ndtr

# a fitted maximum may not fall below the generating parameters' value by
# more than this (nats, plus a relative part for sums over ~1e4 terms)
LL_ABS_TOL = 1e-6
LL_REL_TOL = 1e-9
# the program's stated accuracy for a discretised-lognormal mass (acceptance
# criterion 2): 1e-8 absolute, i.e. 1e-8 / p in the log of a mass p
MASS_ABS_TOL = 1e-8


def _tolerance(ll: float) -> float:
    return LL_ABS_TOL + LL_REL_TOL * abs(ll)


def dln_log_pmf(values: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Discretised-lognormal log mass of shifted counts ``values``: the
    lognormal mass of [n - 1/2, n + 1/2) renormalized to n >= 1."""
    lo = (np.log(values - 0.5) - mu) / sigma
    hi = (np.log(values + 0.5) - mu) / sigma
    # take the difference in whichever tail keeps it away from cancellation
    upper = lo > 0
    a = np.where(upper, log_ndtr(-lo), log_ndtr(hi))
    b = np.where(upper, log_ndtr(-hi), log_ndtr(lo))
    with np.errstate(divide="ignore"):
        log_mass = a + np.log1p(-np.exp(b - a))
    return log_mass - log_ndtr(-(math.log(0.5) - mu) / sigma)


@dataclass
class LognormalReference:
    """Truth and polished-maximum log-likelihoods of one sample."""

    values: np.ndarray
    mult: np.ndarray
    truth: tuple[float, float]     # generating (mu, sigma)
    truth_ll: float
    best_ll: float = -math.inf

    def ll(self, mu: float, sigma: float) -> float:
        return float(self.mult @ dln_log_pmf(self.values, mu, sigma))

    def accuracy(self, mu: float, sigma: float) -> float:
        """How far a log-likelihood at (mu, sigma) may be off when every
        mass is within MASS_ABS_TOL of the truth."""
        logp = dln_log_pmf(self.values, mu, sigma)
        with np.errstate(over="ignore"):
            return MASS_ABS_TOL * float(self.mult @ np.exp(-logp))

    def polish(self, mu: float, sigma: float) -> None:
        """Refine the maximum from ``(mu, sigma)`` with scipy's simplex."""
        res = minimize(lambda x: -self.ll(x[0], math.exp(x[1])),
                       [mu, math.log(sigma)], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-11, "maxiter": 4000})
        self.best_ll = max(self.best_ll, -float(res.fun), self.ll(mu, sigma))


def lognormal_reference(counts: np.ndarray, mu: float, sigma: float) -> LognormalReference:
    values, mult = np.unique(counts, return_counts=True)
    values, mult = values.astype(np.float64), mult.astype(np.float64)
    return LognormalReference(values, mult, (mu, sigma),
                              float(mult @ dln_log_pmf(values, mu, sigma)))


@dataclass
class RunOutputs:
    """What one invocation left behind."""

    exit_code: int
    stdout: str
    files: dict[str, bytes] = field(default_factory=dict)   # relative path -> bytes


def collect(exit_code: int, stdout: str, dirs: dict[str, str]) -> RunOutputs:
    out = RunOutputs(exit_code, stdout)
    for tag, path in dirs.items():
        if not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                out.files[f"{tag}/{name}"] = fh.read()
    return out


@dataclass
class Verdict:
    failed: set[str] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    ln_gain_nats: float = 0.0       # sum over datasets, fitted minus truth
    ln_best_gain_nats: float = 0.0  # same with the polished maximum
    hk_ll: float = 0.0
    hk_articles: int = 0

    def fail(self, dataset: str, reason: str) -> None:
        self.failed.add(dataset)
        if len(self.reasons) < 20:
            self.reasons.append(f"{dataset}: {reason}")


def _table_rows(stdout: str, labels: list[str]) -> dict[str, int]:
    """How many table rows start with each label as their whole first cell."""
    width = max([len("Journal")] + [len(label) for label in labels])
    found = {label: 0 for label in labels}
    for line in stdout.splitlines():
        cell = line[:width].rstrip()
        if cell in found and line[width:width + 2].strip() == "":
            found[cell] += 1
    return found


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_lognormal(v: Verdict, label: str, fit: dict, ref: LognormalReference) -> None:
    p = fit["params"]
    ll = ref.ll(p["mu"], p["sigma"])
    slack = ref.accuracy(p["mu"], p["sigma"]) + _tolerance(ll)
    if not _finite(ll) or abs(ll - fit["log_likelihood"]) > slack:
        v.fail(label, f"reported lognormal LL {fit['log_likelihood']!r} differs "
                      f"from the recomputed {ll!r} by more than {slack:.3g}")
        return
    if ll < ref.truth_ll - _tolerance(ref.truth_ll):
        v.fail(label, f"lognormal LL {ll!r} below the truth's {ref.truth_ll!r}")
        return
    if ref.best_ll == -math.inf:
        ref.polish(p["mu"], p["sigma"])
    v.ln_gain_nats += ll - ref.truth_ll
    v.ln_best_gain_nats += max(ref.best_ll, ll) - ref.truth_ll


def check_journals(run: RunOutputs, refs: dict[str, LognormalReference],
                   n_articles: dict[str, int], plots: bool) -> Verdict:
    """Checks for ``compare`` / ``diagnose`` over a labeled corpus."""
    v = Verdict()
    labels = list(refs)
    if run.exit_code != 0:
        for label in labels:
            v.fail(label, f"exit code {run.exit_code}")
        return v
    for label, rows in _table_rows(run.stdout, labels).items():
        if rows != 1:
            v.fail(label, f"{rows} table rows")
    docs = {}
    for path, blob in run.files.items():
        if not (path.startswith("out/") and path.endswith(".json")):
            continue
        try:
            doc = json.loads(blob)
            docs.setdefault(doc["label"], []).append(doc)
        except (ValueError, KeyError, TypeError) as exc:
            v.fail(path, f"unparseable document: {exc}")
    for label in labels:
        found = docs.get(label, [])
        if len(found) != 1:
            v.fail(label, f"{len(found)} documents")
            continue
        doc = found[0]
        try:
            ln, hk, cmp_ = doc["lognormal"], doc["hooked"], doc["comparison"]
            lls = (ln["log_likelihood"], hk["log_likelihood"],
                   cmp_["ll_lognormal"], cmp_["ll_hooked"])
            if not _finite(*lls):
                v.fail(label, f"non-finite log-likelihood in {lls!r}")
                continue
            # the Vuong test sums per-article terms, the fit sums per
            # distinct count: the two totals must agree
            for fit_ll, cmp_ll in ((lls[0], lls[2]), (lls[1], lls[3])):
                if abs(fit_ll - cmp_ll) > 1e-6 * max(1.0, abs(fit_ll)):
                    v.fail(label, f"fit LL {fit_ll!r} != comparison LL {cmp_ll!r}")
            if doc["n_articles"] != n_articles[label]:
                v.fail(label, f"n_articles {doc['n_articles']} != {n_articles[label]}")
            _check_lognormal(v, label, ln, refs[label])
            v.hk_ll += hk["log_likelihood"]
            v.hk_articles += n_articles[label]
        except (KeyError, TypeError) as exc:
            v.fail(label, f"malformed document: {exc!r}")
    if plots:
        wrote = sum(1 for line in run.stdout.splitlines() if line.startswith("wrote "))
        svgs = [p for p, b in run.files.items() if p.startswith("plots/")
                and p.endswith(".svg") and b]
        csvs = [p for p, b in run.files.items() if p.startswith("plots/")
                and p.endswith(".csv") and b]
        if not (wrote == len(svgs) == len(csvs) == len(labels)):
            for label in labels:
                v.fail(label, f"{wrote} plots reported, {len(svgs)} SVG and "
                              f"{len(csvs)} CSV files written")
    return v


def check_recovery(run: RunOutputs, refs: dict[int, LognormalReference]) -> Verdict:
    """Checks for ``simulate recovery``; one dataset per seed."""
    v = Verdict()
    seeds = list(refs)
    if run.exit_code != 0:
        for s in seeds:
            v.fail(str(s), f"exit code {run.exit_code}")
        return v
    printed = set(int(m) for m in re.findall(r"^  seed=(\d+)", run.stdout, re.M))
    try:
        report = json.loads(run.files["out/recovery_report.json"])
        rows = {r["seed"]: r for r in report["rows"]}
    except (KeyError, ValueError, TypeError) as exc:
        for s in seeds:
            v.fail(str(s), f"unparseable recovery report: {exc!r}")
        return v
    for s in seeds:
        row = rows.get(s)
        if row is None or s not in printed:
            v.fail(str(s), "missing report row or stdout line")
            continue
        ref = refs[s]
        fitted = row["fitted"]
        ll = ref.ll(fitted["mu"], fitted["sigma"])
        if not _finite(row["ll_gap"], ll):
            v.fail(str(s), f"non-finite ll_gap {row['ll_gap']!r}")
            continue
        slack = (ref.accuracy(fitted["mu"], fitted["sigma"])
                 + ref.accuracy(*ref.truth) + _tolerance(ll))
        if abs(row["ll_gap"] - (ll - ref.truth_ll)) > slack:
            v.fail(str(s), f"reported ll_gap {row['ll_gap']!r} differs from the "
                           f"recomputed {ll - ref.truth_ll!r} by more than {slack:.3g}")
            continue
        _check_lognormal(v, str(s), {"params": fitted, "log_likelihood": ll}, ref)
    return v


def check_repeat(first: RunOutputs, run: RunOutputs, datasets: list[str]) -> Verdict:
    """A repeated run with the same seed must reproduce every byte.  A
    differing file fails the dataset whose document shares its stem; any
    other difference fails them all."""
    v = Verdict()
    if run.stdout != first.stdout or set(run.files) != set(first.files):
        for d in datasets:
            v.fail(d, "stdout or file set differs from the first run")
        return v
    for path, blob in run.files.items():
        if blob == first.files[path]:
            continue
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            owner = json.loads(first.files[f"out/{stem}.json"])["label"]
        except (KeyError, ValueError, TypeError):
            owner = None
        for d in ([owner] if owner in datasets else datasets):
            v.fail(d, f"{path} differs from the first run")
    return v
