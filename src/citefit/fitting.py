"""Maximum-likelihood fitting of both models over a shifted count dataset.

Both fits run a derivative-free simplex search in transformed coordinates
(``(mu, ln sigma)`` for the lognormal, ``(ln alpha, ln(B + 1))`` for the
hooked power law) so every evaluated point is admissible.  The hooked
exponent is capped (default 10000) because its likelihood has a flat ridge
as ``alpha`` and ``B`` grow together; a search that exits through the cap is
clamped there, ``B`` is re-optimized alone, and the result is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import (
    DEFAULT_ALPHA_CAP,
    DEFAULT_TRUNCATION,
    SIGMA_MIN,
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    ModelParams,
    log_pmf_values,
)
from .errors import DomainError, DoubleShiftError

_GRID_POINTS = 17
_MAX_RESTARTS = 6
_MIN_WARN_SIZE = 30


class Model(str, Enum):
    LOGNORMAL = "lognormal"
    HOOKED = "hooked"


def model_of(params: ModelParams) -> Model:
    if isinstance(params, HookedPowerLawParams):
        return Model.HOOKED
    if isinstance(params, DiscretisedLognormalParams):
        return Model.LOGNORMAL
    raise TypeError(f"unknown parameter type {type(params)!r}")


class CitationDataset:
    """Labeled vector of citation counts with a shift flag.

    ``shifted=False`` holds raw counts (>= 0); after :func:`shift_counts`
    every count is incremented once and the support starts at 1.  The counts
    array is frozen so datasets can be shared freely across fits.
    """

    __slots__ = ("label", "counts", "shifted")

    def __init__(self, label: str, counts, shifted: bool = False):
        arr = np.asarray(counts)
        if arr.size == 0:
            raise DomainError("dataset must contain at least one count")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise DomainError("counts must be integers")
            arr = arr.astype(np.int64)
        else:
            arr = arr.astype(np.int64)
        low = 1 if shifted else 0
        if arr.min() < low:
            raise DomainError(
                f"counts must be >= {low} for shifted={shifted}, got {arr.min()}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "shifted", shifted)

    def __setattr__(self, name, value):
        raise AttributeError("CitationDataset is immutable")

    def __len__(self):
        return int(self.counts.size)

    def __eq__(self, other):
        if not isinstance(other, CitationDataset):
            return NotImplemented
        return (self.label == other.label and self.shifted == other.shifted
                and np.array_equal(self.counts, other.counts))

    def __repr__(self):
        return (f"CitationDataset(label={self.label!r}, n={len(self)}, "
                f"shifted={self.shifted})")


def shift_counts(ds: CitationDataset) -> CitationDataset:
    """Add 1 to every count so the support starts at 1 (applied exactly once)."""
    if ds.shifted:
        raise DoubleShiftError(f"dataset {ds.label!r} is already shifted")
    return CitationDataset(ds.label, ds.counts + 1, shifted=True)


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by both fits; the defaults reproduce the reference setup
    (exponent cap 10000, truncated normalization of length 10000)."""

    alpha_cap: float = DEFAULT_ALPHA_CAP
    truncation: int = DEFAULT_TRUNCATION
    tail_correction: bool = False
    max_iterations: int = 10000
    ll_tolerance: float = 1e-8
    simplex_tolerance: float = 1e-6
    sigma_min: float = SIGMA_MIN

    def __post_init__(self):
        if not self.alpha_cap > 1:
            raise DomainError(f"alpha_cap must be > 1, got {self.alpha_cap!r}")
        if self.truncation < 1:
            raise DomainError(f"truncation must be >= 1, got {self.truncation!r}")
        if self.max_iterations < 100:
            raise DomainError(
                f"max_iterations must be >= 100, got {self.max_iterations!r}"
            )


@dataclass(frozen=True)
class FitTrace:
    """Summary of the optimizer run attached to every result."""

    init_log_likelihood: float
    final_ll_spread: float
    final_simplex_diameter: float
    restarts: int
    at_sigma_floor: bool = False
    truncation_raised: bool = False
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitResult:
    model: Model
    params: ModelParams
    log_likelihood: float
    converged: bool
    alpha_capped: bool
    iterations: int
    n_articles: int
    trace: FitTrace


# ---------------------------------------------------------------------------
# simplex search
# ---------------------------------------------------------------------------


def _nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float,
    max_iter: int,
    f_tol: float,
    x_tol: float,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """Minimize ``fn`` with a projected Nelder-Mead simplex.

    Returns ``(x, f, iterations, converged, f_spread, diameter)`` where
    ``converged`` means both the relative spread of function values and the
    simplex diameter fell below their tolerances.
    """
    proj = project if project is not None else (lambda x: x)
    dim = x0.size
    pts = [proj(x0.copy())]
    for i in range(dim):
        x = x0.copy()
        x[i] += step
        pts.append(proj(x))
    simplex = [(p, fn(p)) for p in pts]
    simplex.sort(key=lambda e: e[1])

    def spread():
        fb, fw = simplex[0][1], simplex[-1][1]
        if math.isinf(fw):
            return math.inf
        return abs(fw - fb) / (abs(fb) + 1e-12)

    def diameter():
        best = simplex[0][0]
        return max(float(np.max(np.abs(p - best))) for p, _ in simplex[1:])

    iterations = 0
    converged = False
    while iterations < max_iter:
        if spread() <= f_tol and diameter() <= x_tol:
            converged = True
            break
        iterations += 1
        centroid = np.mean([p for p, _ in simplex[:-1]], axis=0)
        worst, f_worst = simplex[-1]

        reflected = proj(centroid + (centroid - worst))
        f_ref = fn(reflected)
        if simplex[0][1] <= f_ref < simplex[-2][1]:
            simplex[-1] = (reflected, f_ref)
        elif f_ref < simplex[0][1]:
            expanded = proj(centroid + 2.0 * (centroid - worst))
            f_exp = fn(expanded)
            simplex[-1] = (expanded, f_exp) if f_exp < f_ref else (reflected, f_ref)
        else:
            contracted = proj(centroid + 0.5 * (worst - centroid))
            f_con = fn(contracted)
            if f_con < f_worst:
                simplex[-1] = (contracted, f_con)
            else:
                best = simplex[0][0]
                simplex = [(best, simplex[0][1])] + [
                    (proj(best + 0.5 * (p - best)), None) for p, _ in simplex[1:]
                ]
                simplex = [(p, fn(p) if f is None else f) for p, f in simplex]
        simplex.sort(key=lambda e: e[1])

    x_best, f_best = simplex[0]
    return x_best, f_best, iterations, converged, spread(), diameter()


def _search_with_restarts(fn, x0, step, cfg: FitConfig, project=None):
    """Run the simplex search, restarting from the incumbent with a fresh
    simplex until a restart stops improving the objective.  Guards against
    premature collapse on ridge-shaped likelihoods."""
    budget = cfg.max_iterations
    x, f, used, converged, spr, diam = _nelder_mead(
        fn, np.asarray(x0, dtype=np.float64), step, budget,
        cfg.ll_tolerance, cfg.simplex_tolerance, project)
    total = used
    restarts = 0
    while restarts < _MAX_RESTARTS and total < budget and converged:
        x2, f2, used2, conv2, spr2, diam2 = _nelder_mead(
            fn, x, step, budget - total,
            cfg.ll_tolerance, cfg.simplex_tolerance, project)
        total += used2
        restarts += 1
        improved = f2 < f - cfg.ll_tolerance * (abs(f) + 1e-12)
        if f2 < f:
            x, f, converged, spr, diam = x2, f2, conv2, spr2, diam2
        if not improved:
            break
    return x, f, total, converged, spr, diam, restarts


# ---------------------------------------------------------------------------
# objective helpers
# ---------------------------------------------------------------------------


def _require_shifted(ds: CitationDataset) -> None:
    if not ds.shifted:
        raise DomainError(
            f"dataset {ds.label!r} must be shifted before fitting; "
            "call shift_counts first"
        )


def _compressed(ds: CitationDataset):
    values, mult = np.unique(ds.counts, return_counts=True)
    return values.astype(np.float64), mult.astype(np.float64)


def _weighted_ll(values, mult, params, tail_correction=False) -> float:
    logp = log_pmf_values(params, values, tail_correction)
    return float(mult @ logp)


# ---------------------------------------------------------------------------
# discretised lognormal fit
# ---------------------------------------------------------------------------


def init_lognormal(ds: CitationDataset, sigma_min: float = SIGMA_MIN) -> DiscretisedLognormalParams:
    """Moment starting point: mean and sample standard deviation of the log
    counts, with the scale floored at ``sigma_min``."""
    _require_shifted(ds)
    logs = np.log(ds.counts.astype(np.float64))
    mu0 = float(np.mean(logs))
    sd = float(np.std(logs, ddof=1)) if logs.size > 1 else 0.0
    return DiscretisedLognormalParams(mu0, max(sigma_min, sd))


def fit_lognormal(ds: CitationDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Maximize the discretised-lognormal likelihood over ``(mu, ln sigma)``.

    Never raises for non-convergence: the best point found is returned with
    ``converged=False`` when the iteration budget runs out.
    """
    _require_shifted(ds)
    warnings_: list[str] = []
    if len(ds) < _MIN_WARN_SIZE:
        warnings_.append(f"dataset has only {len(ds)} articles (< {_MIN_WARN_SIZE})")

    values, mult = _compressed(ds)
    init = init_lognormal(ds, cfg.sigma_min)
    ln_sigma_floor = math.log(cfg.sigma_min)

    def project(x):
        out = x.copy()
        out[1] = max(out[1], ln_sigma_floor)
        return out

    def objective(x):
        params = DiscretisedLognormalParams(float(x[0]), math.exp(float(x[1])))
        return -_weighted_ll(values, mult, params)

    x0 = np.array([init.mu, math.log(init.sigma)])
    init_ll = -objective(project(x0.copy()))
    x, f, iters, converged, spr, diam, restarts = _search_with_restarts(
        objective, x0, 0.25, cfg, project)

    at_floor = x[1] <= ln_sigma_floor + 1e-12
    sigma = cfg.sigma_min if at_floor else math.exp(float(x[1]))
    params = DiscretisedLognormalParams(float(x[0]), max(cfg.sigma_min, sigma))
    trace = FitTrace(
        init_log_likelihood=init_ll,
        final_ll_spread=spr,
        final_simplex_diameter=diam,
        restarts=restarts,
        at_sigma_floor=bool(at_floor),
        warnings=tuple(warnings_),
    )
    return FitResult(
        model=Model.LOGNORMAL,
        params=params,
        log_likelihood=-f,
        converged=converged,
        alpha_capped=False,
        iterations=iters,
        n_articles=len(ds),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# hooked power law fit
# ---------------------------------------------------------------------------


def _effective_truncation(ds: CitationDataset, cfg: FitConfig) -> tuple[int, bool]:
    n_max = int(ds.counts.max())
    if n_max > cfg.truncation:
        return max(DEFAULT_TRUNCATION, 2 * n_max), True
    return cfg.truncation, False


def init_hooked(ds: CitationDataset, cfg: FitConfig = FitConfig()) -> HookedPowerLawParams:
    """Coarse 17x17 grid search over ``ln alpha`` in [ln 1.01, ln alpha_cap]
    and ``ln(B + 1)`` in [0, ln(10 * max count)], returning the grid maximizer
    of the total log-likelihood."""
    _require_shifted(ds)
    values, mult = _compressed(ds)
    truncation, _ = _effective_truncation(ds, cfg)
    ln_alphas = np.linspace(math.log(1.01), math.log(cfg.alpha_cap), _GRID_POINTS)
    ln_b1s = np.linspace(0.0, math.log(10.0 * float(ds.counts.max())), _GRID_POINTS)
    best = None
    # descending alpha so exact ties (mass fully concentrated at 1) resolve
    # to the largest-exponent grid edge
    for la in ln_alphas[::-1]:
        for lb in ln_b1s:
            params = HookedPowerLawParams(math.exp(la), math.exp(lb) - 1.0, truncation)
            ll = _weighted_ll(values, mult, params, cfg.tail_correction)
            if best is None or ll > best[0]:
                best = (ll, params)
    return best[1]


def fit_hooked(ds: CitationDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Maximize the hooked likelihood over ``(ln alpha, ln(B + 1))``.

    If the search exits through the exponent cap, alpha is clamped there,
    the offset is re-optimized on its own, and ``alpha_capped`` is set: the
    likelihood keeps improving along an ``alpha, B -> inf`` ridge for data
    with sub-power-law tails, so the boundary optimum is the defined result.
    """
    _require_shifted(ds)
    warnings_: list[str] = []
    if len(ds) < _MIN_WARN_SIZE:
        warnings_.append(f"dataset has only {len(ds)} articles (< {_MIN_WARN_SIZE})")

    values, mult = _compressed(ds)
    truncation, raised = _effective_truncation(ds, cfg)
    if raised:
        warnings_.append(
            f"truncation raised to {truncation} to cover max count {int(ds.counts.max())}"
        )

    ln_cap = math.log(cfg.alpha_cap)
    ln_b1_max = math.log(1e9 + 1.0)

    def project(x):
        out = x.copy()
        out[0] = min(out[0], ln_cap)
        out[1] = min(max(out[1], 0.0), ln_b1_max)
        return out

    def params_at(x) -> HookedPowerLawParams:
        return HookedPowerLawParams(
            math.exp(float(x[0])), math.exp(float(x[1])) - 1.0, truncation)

    def objective(x):
        return -_weighted_ll(values, mult, params_at(x), cfg.tail_correction)

    init = init_hooked(ds, cfg)
    x0 = np.array([math.log(init.alpha), math.log(init.offset + 1.0)])
    init_ll = -objective(project(x0.copy()))
    x, f, iters, converged, spr, diam, restarts = _search_with_restarts(
        objective, x0, 0.5, cfg, project)

    # exit-through-boundary at the optimizer's own spatial resolution: a
    # converged simplex can settle within simplex_tolerance of the cap
    # without a vertex landing exactly on it
    capped = x[0] >= ln_cap - 10.0 * cfg.simplex_tolerance
    if capped:
        # clamp the exponent at the cap and re-optimize the offset alone
        x = np.array([ln_cap, float(x[1])])
        f = objective(x)

        def objective_b(xb):
            return objective(np.array([ln_cap, float(xb[0])]))

        def project_b(xb):
            out = xb.copy()
            out[0] = min(max(out[0], 0.0), ln_b1_max)
            return out

        xb, fb, iters_b, conv_b, spr, diam, restarts_b = _search_with_restarts(
            objective_b, np.array([x[1]]), 0.5, cfg, project_b)
        if fb <= f:
            f = fb
            x = np.array([ln_cap, float(xb[0])])
        converged = conv_b
        iters += iters_b
        restarts += restarts_b

    params = params_at(x)
    if capped:
        params = HookedPowerLawParams(cfg.alpha_cap, params.offset, truncation)
    trace = FitTrace(
        init_log_likelihood=init_ll,
        final_ll_spread=spr,
        final_simplex_diameter=diam,
        restarts=restarts,
        truncation_raised=raised,
        warnings=tuple(warnings_),
    )
    return FitResult(
        model=Model.HOOKED,
        params=params,
        log_likelihood=-f,
        converged=converged,
        alpha_capped=bool(capped),
        iterations=iters,
        n_articles=len(ds),
        trace=trace,
    )
