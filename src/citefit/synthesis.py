"""Seeded sampling from both models, parameter-recovery harnesses, and the
mixture experiment probing how pooling heterogeneous sources changes which
model wins.

All randomness flows through :class:`SeededGenerator` (PCG64), so every
experiment is reproducible bit-for-bit from its seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import median
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import (
    DiscretisedLognormalParams,
    Model,
    ModelParams,
    cdf_values,
    dln_quantile,
)
from .errors import DomainError
from .fitting import CitationDataset, FitConfig, FitResult, fit_hooked, fit_lognormal
from .selection import (
    DEFAULT_Z_THRESHOLD,
    ComparisonResult,
    total_log_likelihood,
    vuong_test,
)

#: Inversion tables extend to this cumulative level; draws landing beyond it
#: map to the quantile point (bias far below any tolerance used here).
TAIL_QUANTILE = 1.0 - 1e-12


@dataclass(frozen=True)
class SeededGenerator:
    """Deterministic random stream: numpy's PCG64 from ``seed``."""

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    def stream(self) -> np.random.Generator:
        """Fresh generator positioned at the start of the seed's stream."""
        return np.random.Generator(np.random.PCG64(self.seed))


def _as_stream(gen) -> np.random.Generator:
    return gen if isinstance(gen, np.random.Generator) else gen.stream()


#: Largest inversion table a truth may ask for (8 bytes per entry).
MAX_TABLE_ENTRIES = 10**8

#: Buckets of the guide table.  A power of two, so ``u * _GUIDE`` and
#: ``j / _GUIDE`` are exact and bucket ``floor(u * _GUIDE)`` really holds u.
_GUIDE = 4096


class _Inversion(NamedTuple):
    """CDF prefix table plus its Chen–Asau guide.

    ``guide[j]`` is the first index whose CDF reaches ``j / _GUIDE``, so the
    inverse of any u in bucket j lies in ``[guide[j], guide[j + 1]]``.
    """

    table: np.ndarray
    guide: np.ndarray


def _inversion_table(params: ModelParams) -> _Inversion:
    if params.model is Model.LOGNORMAL:
        top = dln_quantile(params, TAIL_QUANTILE)
    else:
        top = params.truncation  # truncated support; CDF reaches 1 at N
    if top > MAX_TABLE_ENTRIES:
        raise DomainError(
            f"cannot sample {params}: its inversion table would hold {top} "
            f"entries (limit {MAX_TABLE_ENTRIES})")
    return _with_guide(cdf_values(params, np.arange(1, top + 1, dtype=np.int64)))


def _with_guide(table: np.ndarray) -> _Inversion:
    guide = np.searchsorted(table, np.arange(_GUIDE + 1) / _GUIDE, side="left")
    return _Inversion(table, guide)


def _draw(inv: _Inversion, n: int, stream: np.random.Generator,
          label: str) -> CitationDataset:
    """Invert ``n`` uniforms through the guide.

    The counts equal ``min(searchsorted(table, u, "left"), T - 1) + 1``
    exactly, for any non-decreasing table.  A bucket spanning at most one
    table entry is settled by one comparison; draws in wider buckets fall
    back to the binary search.
    """
    table, guide = inv
    u = stream.random(n)
    bucket = (u * _GUIDE).astype(np.intp)
    lo = guide.take(bucket)
    idx = lo + (table.take(lo, mode="clip") < u)
    wide = np.flatnonzero((np.diff(guide) > 1).take(bucket))
    if wide.size:
        idx[wide] = np.searchsorted(table, u.take(wide), side="left")
    counts = np.minimum(idx, len(table) - 1) + 1
    return CitationDataset(label, counts)


def sample(params: ModelParams, n: int, gen, label: str | None = None) -> CitationDataset:
    """Draw ``n`` counts by inversion against the model CDF prefix table.

    Each uniform is located through a guide of 4096 equal buckets over
    [0, 1] (Chen & Asau's indexed search), with the same result as a binary
    search of the table.

    Returns a dataset of shifted counts (support starts at 1).
    Identical seeds give identical datasets.  Each call builds the table
    afresh; :func:`recovery_experiment` builds it once and draws every seed
    against it through the same inversion step.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    if label is None:
        label = f"sim:{params.model.value}"
    return _draw(_inversion_table(params), n, _as_stream(gen), label)


# ---------------------------------------------------------------------------
# parameter recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryRow:
    seed: int
    fitted: ModelParams
    errors: dict[str, float]
    ll_gap: float  # fitted minus truth log-likelihood on the same sample
    converged: bool


@dataclass(frozen=True)
class RecoveryReport:
    model: Model
    truth: ModelParams
    n: int
    rows: tuple[RecoveryRow, ...]
    median_errors: dict[str, float]
    worst_errors: dict[str, float]


def _param_errors(truth: ModelParams, fitted: ModelParams) -> dict[str, float]:
    if truth.model is Model.LOGNORMAL:
        return {
            "mu": abs(fitted.mu - truth.mu),
            "sigma": abs(fitted.sigma - truth.sigma),
        }
    return {
        "log_alpha": abs(math.log(fitted.alpha) - math.log(truth.alpha)),
        "log_offset1": abs(math.log(fitted.offset + 1) - math.log(truth.offset + 1)),
    }


def recovery_experiment(
    truth: ModelParams,
    n: int,
    seeds: Sequence[int],
    cfg: FitConfig = FitConfig(),
) -> RecoveryReport:
    """Sample/fit/score loop over fixed seeds for one generator truth.

    Each seed draws ``n`` counts from ``truth``, refits the same family and
    records absolute parameter errors plus the log-likelihood gap between the
    fitted and true parameters on that sample (non-negative for a working
    maximizer, up to optimizer tolerance).  The truth's inversion table is
    built once for all seeds, so each seed's counts equal
    ``sample(truth, n, SeededGenerator(seed))``; the truth is scored by
    :func:`total_log_likelihood`, once per distinct count.  A hooked truth
    whose exponent is above ``cfg.alpha_cap`` raises :class:`DomainError`.
    """
    if n < 1000:
        raise DomainError(f"recovery experiments need n >= 1000, got {n!r}")
    if not seeds:
        raise DomainError("recovery experiments need at least one seed")
    if truth.model is Model.HOOKED and truth.alpha > cfg.alpha_cap:
        # the fit stops at the cap, so its errors would measure the cap
        raise DomainError(f"the true exponent {truth.alpha!r} is above the fit's "
                          f"exponent cap {cfg.alpha_cap!r}")
    model = truth.model
    inv = _inversion_table(truth)
    rows = []
    for seed in seeds:
        ds = _draw(inv, n, SeededGenerator(int(seed)).stream(),
                   f"sim:{model.value}:seed={seed}")
        fit = fit_lognormal(ds, cfg) if model is Model.LOGNORMAL else fit_hooked(ds, cfg)
        truth_eval = truth
        if model is Model.HOOKED:  # the fit's law: its truncation, raised or not, and tail
            truth_eval = replace(truth, truncation=fit.params.truncation,
                                 tail_correction=fit.params.tail_correction)
        ll_truth = total_log_likelihood(ds, truth_eval)
        rows.append(RecoveryRow(
            seed=int(seed),
            fitted=fit.params,
            errors=_param_errors(truth, fit.params),
            ll_gap=fit.log_likelihood - ll_truth,
            converged=fit.converged,
        ))
    keys = rows[0].errors.keys()
    med = {k: median(r.errors[k] for r in rows) for k in keys}
    worst = {k: max(r.errors[k] for r in rows) for k in keys}
    return RecoveryReport(model, truth, n, tuple(rows), med, worst)


# ---------------------------------------------------------------------------
# mixture experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted lognormal components; weights are normalized on construction."""

    components: tuple[tuple[DiscretisedLognormalParams, float], ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise DomainError("mixture needs at least one component")
        weights = [w for _, w in self.components]
        if any(not (w > 0 and math.isfinite(w)) for w in weights):
            raise DomainError(f"weights must be positive and finite, got {weights!r}")
        total = float(sum(weights))
        normalized = tuple(
            (params, float(w) / total) for params, w in self.components
        )
        object.__setattr__(self, "components", normalized)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.components)


@dataclass(frozen=True)
class MixtureReport:
    spec: MixtureSpec
    n: int
    seed: int
    component_counts: tuple[int, ...]
    lognormal_fit: FitResult
    hooked_fit: FitResult
    comparison: ComparisonResult


def sample_mixture(spec: MixtureSpec, n: int, gen,
                   label: str = "sim:mixture") -> tuple[CitationDataset, tuple[int, ...]]:
    """Draw component labels by weight, then counts from each component.

    Returns the pooled shifted dataset plus the per-component draw counts.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    stream = _as_stream(gen)
    k = len(spec.components)
    labels = stream.choice(k, size=n, p=np.asarray(spec.weights))
    counts = np.empty(n, dtype=np.int64)
    sizes = []
    for c, (params, _) in enumerate(spec.components):
        mask = labels == c
        size = int(mask.sum())
        sizes.append(size)
        if size:
            counts[mask] = sample(params, size, stream).counts
    return CitationDataset(label, counts), tuple(sizes)


def mixture_experiment(
    spec: MixtureSpec,
    n: int,
    gen: SeededGenerator,
    cfg: FitConfig = FitConfig(),
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> MixtureReport:
    """Fit both models to data pooled from the mixture and compare them.

    The directional outcome (the hooked model gaining ground on heterogeneous
    pools) is reported for inspection, not asserted.
    """
    if n < 1000:
        raise DomainError(f"mixture experiments need n >= 1000, got {n!r}")
    ds, sizes = sample_mixture(spec, n, gen)
    ln_fit = fit_lognormal(ds, cfg)
    hk_fit = fit_hooked(ds, cfg)
    comparison = vuong_test(ds, hk_fit.params, ln_fit.params, z_threshold)
    return MixtureReport(spec, n, gen.seed, sizes, ln_fit, hk_fit, comparison)
