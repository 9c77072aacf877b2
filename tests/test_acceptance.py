"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 (end-to-end reproduction of the published per-journal table)
needs the raw counts dataset, which is not bundled; point the environment
variable ``CITEFIT_JOURNAL_DATA`` at a ``journal,citations`` CSV whose labels
match the reference table to enable it.  Without it the remaining criteria
stand alone as the full property-based suite.
"""

import hashlib
import math
import os
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

import citefit as cf
from citefit.cli import main
from citefit.distributions import (
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    cdf_values,
    log_pmf_values,
)
from citefit.selection import classify_winner, vuong_test
from citefit.synthesis import SeededGenerator, sample

from oracles import extended_sum_oracle, hurwitz_zeta, lognormal_interval_mass
from reference_table import REFERENCE_ROWS, Z_BEST_PAIRS

ALPHA_GRID = (1.5, 5.0, 77.0, 100.0, 10000.0)
OFFSET_GRID = (0.0, 0.1, 30.0, 100000.0)
MU_GRID = (-7.0, 0.0, 3.0)
SIGMA_GRID = (0.2, 1.0, 2.0)
N_GRID = (1, 2, 10, 100)


@contextmanager
def criterion(num, description, budget_s=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {description}")
        raise
    elapsed = time.time() - start
    print(f"[criterion {num}] PASS - {description} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed <= budget_s, f"criterion {num} exceeded {budget_s}s budget"


def test_criterion_1_normalization_oracle_equivalence():
    with criterion(1, "log-domain normalization agrees with the "
                      "arbitrary-precision oracle to 1e-10", budget_s=60):
        for alpha in ALPHA_GRID:
            for offset in OFFSET_GRID:
                params = HookedPowerLawParams(alpha, offset, 10000)
                fast = cf.hooked_log_norm(params)
                slow = extended_sum_oracle(alpha, offset, 10000)
                rel = abs(math.expm1(fast - slow))
                assert rel <= 1e-10, (alpha, offset, fast, slow, rel)
        # the regime where naive double summation degrades stays finite here
        special = cf.hooked_log_norm(HookedPowerLawParams(100.0, 200.0, 10000))
        assert math.isfinite(special)


def test_criterion_2_dln_pmf_vs_quadrature():
    with criterion(2, "discretised lognormal mass matches quadrature to "
                      "1e-8 absolute", budget_s=10):
        for mu in MU_GRID:
            for sigma in SIGMA_GRID:
                params = DiscretisedLognormalParams(mu, sigma)
                den = lognormal_interval_mass(0.5, math.inf, mu, sigma)
                for n in N_GRID:
                    fast = math.exp(log_pmf_values(params, [n])[0])
                    slow = float(
                        lognormal_interval_mass(n - 0.5, n + 0.5, mu, sigma) / den)
                    assert abs(fast - slow) <= 1e-8, (mu, sigma, n, fast, slow)


def _dln_total_mass(params, quantile=1 - 1e-12, chunk=1 << 20):
    top = cf.dln_quantile(params, quantile)
    total = 0.0
    for lo in range(1, top + 1, chunk):
        hi = min(top, lo + chunk - 1)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        total += float(np.exp(log_pmf_values(params, ns)).sum())
    return total, top


def test_criterion_3_normalization_with_tail_handling():
    with criterion(3, "each model's mass function totals 1 within 1e-6 over "
                      "its effective support", budget_s=30):
        for alpha in ALPHA_GRID:
            for offset in OFFSET_GRID:
                params = HookedPowerLawParams(alpha, offset, 10000, tail_correction=True)
                body = float(np.exp(log_pmf_values(params, np.arange(1, 10001))).sum())
                # the mass past N: zeta(alpha, B + N + 1) over the normalization
                with mp.workdps(40):
                    tail = float(hurwitz_zeta(alpha, offset + 10001)
                                 / mp.exp(cf.hooked_log_norm(params)))
                assert abs(body + tail - 1.0) <= 1e-6, (alpha, offset, body, tail)
        for mu in MU_GRID:
            for sigma in SIGMA_GRID:
                params = DiscretisedLognormalParams(mu, sigma)
                body, top = _dln_total_mass(params)
                tail = 1.0 - cdf_values(params, [top])[0]
                assert abs(body + tail - 1.0) <= 1e-6, (mu, sigma, body, tail)


def test_criterion_4_parameter_recovery():
    with criterion(4, "desk-scale parameter recovery from 20000-sample draws",
                   budget_s=120):
        truth_ln = DiscretisedLognormalParams(2.94, 1.03)
        hits = 0
        for seed in range(10):
            ds = sample(truth_ln, 20000, SeededGenerator(seed))
            fit = cf.fit_lognormal(ds)
            if (abs(fit.params.mu - truth_ln.mu) <= 0.03
                    and abs(fit.params.sigma - truth_ln.sigma) <= 0.03):
                hits += 1
        assert hits >= 9, f"lognormal recovery hit only {hits}/10 seeds"

        truth_hk = HookedPowerLawParams(7.7, 175.4, 10000)
        for seed in range(10):
            ds = sample(truth_hk, 20000, SeededGenerator(seed))
            fit = cf.fit_hooked(ds)
            ll_truth = cf.total_log_likelihood(ds, truth_hk)
            assert fit.log_likelihood >= ll_truth - 0.01, (seed, fit.log_likelihood,
                                                           ll_truth)


def test_criterion_5_vuong_direction_and_sign_coupling():
    with criterion(5, "Vuong z favors the generating lognormal and its sign "
                      "tracks the log-likelihood difference exactly"):
        truth = DiscretisedLognormalParams(3.0, 1.0)
        negatives = 0
        for seed in range(10):
            ds = sample(truth, 5000, SeededGenerator(seed))
            ln = cf.fit_lognormal(ds)
            hk = cf.fit_hooked(ds)
            result = vuong_test(ds, hk.params, ln.params)
            assert math.isfinite(result.vuong_z)
            assert math.copysign(1.0, result.vuong_z) == math.copysign(
                1.0, result.ll_hooked - result.ll_lognormal)
            if result.vuong_z < 0:
                negatives += 1
        assert negatives >= 9, f"z < 0 in only {negatives}/10 seeds"


def test_criterion_6_winner_labels_reproduce_reference_column():
    with criterion(6, "winner labels reproduce all 50 published (z, best) "
                      "pairs", budget_s=1):
        assert len(Z_BEST_PAIRS) == 50
        for z, best in Z_BEST_PAIRS:
            assert classify_winner(z).value == best, (z, best)


DATA_ENV = "CITEFIT_JOURNAL_DATA"


@pytest.mark.skipif(DATA_ENV not in os.environ,
                    reason=f"set {DATA_ENV} to the journal,citations CSV of raw "
                           "counts to enable the end-to-end table reproduction")
def test_criterion_7_reference_table_reproduction():
    with criterion(7, "per-journal fits reproduce the published table",
                   budget_s=1800):
        with open(os.environ[DATA_ENV], "r", encoding="utf-8") as fh:
            datasets = {ds.label: ds for ds in cf.parse_counts(fh)}
        failures = []
        for (journal, n_articles, mu, sigma, ll_ln, alpha, offset, ll_hk,
             z, best) in REFERENCE_ROWS:
            ds = datasets.get(journal)
            assert ds is not None, f"dataset for {journal!r} not found"
            fit_ln = cf.fit_lognormal(ds)
            fit_hk = cf.fit_hooked(ds)
            result = vuong_test(ds, fit_hk.params, fit_ln.params)
            problems = []
            if abs(fit_ln.params.mu - mu) > 0.02:
                problems.append(f"mu {fit_ln.params.mu:.3f} vs {mu}")
            if abs(fit_ln.params.sigma - sigma) > 0.02:
                problems.append(f"sigma {fit_ln.params.sigma:.3f} vs {sigma}")
            if abs(fit_ln.log_likelihood - ll_ln) > 1.0:
                problems.append(f"ln LL {fit_ln.log_likelihood:.1f} vs {ll_ln}")
            if abs(fit_hk.log_likelihood - ll_hk) > 1.0:
                problems.append(f"hk LL {fit_hk.log_likelihood:.1f} vs {ll_hk}")
            if abs(result.vuong_z - z) > 0.3:
                problems.append(f"z {result.vuong_z:.2f} vs {z}")
            if result.winner.value != best:
                problems.append(f"label {result.winner.value} vs {best}")
            if (alpha == "10k") != fit_hk.alpha_capped:
                problems.append(f"capped {fit_hk.alpha_capped} vs {alpha}")
            if problems:
                failures.append(f"{journal}: " + "; ".join(problems))
        for failure in failures:
            print(f"  reproduction miss - {failure}")
        assert len(failures) <= 2, (
            f"{len(failures)}/50 journals missed the published values")


def test_criterion_8_segment_self_consistency():
    with criterion(8, "self-sampled diagnostics stay below 0.02 and segments "
                      "stay disjoint/ordered", budget_s=60):
        for truth, seed in ((DiscretisedLognormalParams(2.94, 1.03), 101),
                            (HookedPowerLawParams(7.7, 175.4, 10000), 102)):
            base = sample(truth, 20000, SeededGenerator(seed))
            fit = (cf.fit_lognormal(base)
                   if isinstance(truth, DiscretisedLognormalParams)
                   else cf.fit_hooked(base))
            resampled = sample(fit.params, 50000, SeededGenerator(seed + 1))
            segments = cf.make_segments(int(resampled.counts.max()) - 1, 4)
            diag = cf.segment_differences(resampled, fit.params, segments)
            for spec, diff in zip(diag.segments, diag.signed_max_diff):
                if not spec.empty:
                    assert abs(diff) < 0.02, (truth, spec, diff)

        n_max_values = sorted(set(
            np.geomspace(1, 10**6, 400).astype(np.int64).tolist())
            | set(range(1, 200)))
        for n_max in n_max_values:
            segs = cf.make_segments(int(n_max), 4)
            prev_end = 0
            for s in segs:
                if s.empty:
                    continue
                assert s.start > prev_end
                assert s.start <= s.end <= 1 + n_max
                prev_end = s.end


def _digest_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    """Repeated runs on one machine, with one numpy and BLAS build, write
    byte-identical documents, plots and tables.

    That is the contract this test holds.  Across CPUs and BLAS kernels
    sums run in other orders: floats agree within 1e-9 relative, and flags,
    winners and printed tables exactly, except for a fit that is not
    identified, whose parameters, Vuong z and evaluation count can move
    along its flat ridge (README, "Runs are deterministic").
    """
    with criterion(9, "repeated CLI runs are byte-identical"):
        input_path = tmp_path / "counts.csv"
        rows = ["journal,citations"]
        for label, mu, seed in (("Alpha Journal", 2.4, 301),
                                ("Beta Journal", 1.1, 302)):
            ds = sample(DiscretisedLognormalParams(mu, 1.0), 1200,
                        SeededGenerator(seed))
            rows += [f"{label},{c - 1}" for c in ds.counts]
        input_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

        tables = []
        digests = []
        for run in (1, 2):
            out = tmp_path / f"docs{run}"
            plots = tmp_path / f"plots{run}"
            assert main(["fit", str(input_path), "--out", str(out)]) == 0
            assert main(["diagnose", str(input_path), "--plot", str(plots),
                         "--out", str(out / "diag")]) == 0
            capsys.readouterr()  # drop status lines (they echo the run's paths)
            assert main(["compare", str(input_path)]) == 0
            tables.append(capsys.readouterr().out)
            digests.append({"docs": _digest_tree(out),
                            "plots": _digest_tree(plots)})
        assert digests[0] == digests[1]
        assert tables[0] == tables[1]
        assert digests[0]["docs"], "no documents were produced"
        assert digests[0]["plots"], "no plots were produced"
