"""Maximum-likelihood fitting of both models over a shifted count dataset.

Both fits run one projected search on closed-form gradients, in coordinates
where the admissible set is a box: ``(mu / (1 + sigma**2), ln sigma)`` with
``sigma >= SIGMA_MIN`` for the lognormal, ``(ln alpha, ln(B + 1))`` with
``alpha <= alpha_cap`` and ``0 <= B <= 1e9`` for the hooked power law.  Both
searches also have the exact Hessian and take damped Newton steps on it over
the coordinates not held at a bound (``B`` alone on the exponent cap), the
Hessian shifted where it is not negative definite and the damping adapted to
how well each step's quadratic model predicted its gain.  Each point costs
one parameter record and one evaluation of its log masses, which the
lognormal derivatives then reuse; the hooked derivatives take one pass of
their own.  The hooked exponent is capped (default 10000)
because its likelihood has a flat ridge as ``alpha`` and ``B`` grow
together; a search that follows the ridge onto the cap ends there with
``B`` optimized alone, and the result is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    DEFAULT_ALPHA_CAP,
    DEFAULT_TRUNCATION,
    SIGMA_MIN,
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    Model,
    ModelParams,
    _dln_ll_derivatives,
    _hooked_ll_derivatives,
    log_pmf_values,
)
from .errors import DomainError

_GRID_POINTS = 17
# a search converges once the gain its next step predicts (the projected
# gradient in the metric of the step matrix) is below _GAIN_TOL of |ll|,
# where rounding in the log-likelihood hides any further gain
_GAIN_TOL = 1e-15
_ARMIJO = 1e-4  # the least share of its predicted gain a trial must make
# the search's budget of log-likelihood evaluations, its start included; each
# iteration that tries a point spends one, and a fit that spends them all
# exits for ``budget``
_MAX_ITERATIONS = 10000
_MIN_WARN_SIZE = 30
# the largest raw count: one above it the shift would leave int64
MAX_RAW_COUNT = np.iinfo(np.int64).max - 1
# distinct counts come from a frequency table up to this many times the
# number of counts, and from a sort beyond (the two cost about the same near 3)
_BINCOUNT_SPAN = 2
EXIT_REASONS = ("converged", "budget", "cap", "sigma_floor")


class CitationDataset:
    """Labeled vector of shifted citation counts, citations + 1 per article,
    from 1 to the int64 maximum.  The counts array is frozen so datasets can
    be shared freely across fits.
    """

    __slots__ = ("label", "counts", "_distinct")

    def __init__(self, label: str, counts):
        arr = np.asarray(counts)
        if arr.size == 0:
            raise DomainError("dataset must contain at least one count")
        if not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr)):
            raise DomainError("counts must be integers")
        # the extremes as Python numbers, which compare exactly with the
        # limits whatever the array holds (uint64, floats, Python integers)
        least, most = arr.item(arr.argmin()), arr.item(arr.argmax())
        if least < 1:
            raise DomainError(f"counts must be >= 1 (counts are citations + 1), got {least}")
        if most > MAX_RAW_COUNT + 1:
            raise DomainError(f"counts must be <= {MAX_RAW_COUNT + 1}, got {most}")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "_distinct", None)

    @property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct counts in increasing order and their multiplicities,
        ``np.unique(counts, return_counts=True)``, computed on first use and
        kept; both arrays are frozen.

        Where the largest count is at most :data:`_BINCOUNT_SPAN` times the
        number of counts, a frequency table finds them without sorting;
        wider ranges, such as one extreme article, sort.
        """
        if self._distinct is None:
            counts = self.counts
            if counts.item(counts.argmax()) <= _BINCOUNT_SPAN * counts.size:
                freq = np.bincount(counts)
                values = np.flatnonzero(freq)
                mult = freq[values]
            else:
                values, mult = np.unique(counts, return_counts=True)
            values.setflags(write=False)
            mult.setflags(write=False)
            object.__setattr__(self, "_distinct", (values, mult))
        return self._distinct

    def __setattr__(self, name, value):
        raise AttributeError("CitationDataset is immutable")

    def __len__(self):
        return int(self.counts.size)

    def __eq__(self, other):
        if not isinstance(other, CitationDataset):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.counts, other.counts)

    def __repr__(self):
        return f"CitationDataset(label={self.label!r}, n={len(self)})"


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by both fits; the defaults reproduce the reference setup
    (exponent cap 10000, truncated normalization of length 10000)."""

    alpha_cap: float = DEFAULT_ALPHA_CAP
    truncation: int = DEFAULT_TRUNCATION
    tail_correction: bool = False

    def __post_init__(self):
        if not 1 < self.alpha_cap < math.inf:
            raise DomainError(f"alpha_cap must be finite and > 1, got {self.alpha_cap!r}")
        if self.truncation < 1:
            raise DomainError(f"truncation must be >= 1, got {self.truncation!r}")


@dataclass(frozen=True)
class FitTrace:
    """Summary of the optimizer run attached to every result.

    ``evaluations`` counts the log-likelihood evaluations of the search from
    its start point on (the hooked fit's initial grid is not included).
    ``exit_reason`` is one of :data:`EXIT_REASONS`: converged inside the
    box, out of evaluations (``budget``), or converged with the hooked
    exponent on its cap or the lognormal scale on its floor.  Both are
    ``None`` in version 1 documents, hence ``at_sigma_floor`` beside them.
    """

    init_log_likelihood: float
    evaluations: int | None
    exit_reason: str | None
    at_sigma_floor: bool = False
    truncation_raised: bool = False
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitResult:
    """One fit's end point.  ``converged`` and ``alpha_capped`` repeat
    ``trace.exit_reason``, which version 1 documents lack; ``alpha_capped``
    and ``n_articles`` are read off a fit by ``benchmarks/tracing.py``."""

    params: ModelParams
    log_likelihood: float
    converged: bool
    alpha_capped: bool
    n_articles: int
    trace: FitTrace


# ---------------------------------------------------------------------------
# bounded damped-Newton search
# ---------------------------------------------------------------------------


class _Search(NamedTuple):
    x: list
    ll: float
    grad: tuple
    ll_start: float   # at the start point, moved into the box
    evaluations: int  # of ``score``, the start point included
    converged: bool


def _maximize_box(score, x, lower, upper, max_evals: int) -> _Search:
    """Maximize a log-likelihood over the box ``lower <= x <= upper`` in two
    coordinates by projected damped-Newton steps, one evaluation per trial.

    ``score(x)`` returns the log-likelihood at ``x`` and ``derive``, which
    gives the gradient there and the Hessian ``(h00, h01, h11)`` or None; the
    search derives only at the start and at each trial it accepts.  A step
    solves with minus the Hessian over the free coordinates, shifted as
    :func:`_step_matrix` says.  Its ``damp`` adapts to the ratio of the gain
    to the gain the step's quadratic model predicts (Levenberg-Marquardt, in
    the form of Moré 1978): it rises tenfold, to at least 1e-4, below a
    quarter, and halves, to 0 below 1e-4, above three quarters.  A trial is
    taken when that ratio is at least ``_ARMIJO``; values are exact and
    non-finite ones fail, so an error in the derivatives costs evaluations,
    never the optimum.

    A coordinate is held at a bound that its gradient pushes against, that a
    step lands on, or that a step would cross at once, and released, once
    the search over the other converges, if its gradient points back into
    the box.  Each step is cut at the first bound (landing on it exactly)
    and at a move of 1.  The search converges once the full step stays in
    the box and its predicted gain is negligible, so a rising ridge is
    followed onto its bound; ``converged`` is false if ``max_evals`` ran out
    first or the log-likelihood is not finite.
    """
    x = [min(max(x[i], lower[i]), upper[i]) for i in (0, 1)]
    ll, derive = score(x)
    g, hess = derive()
    ll_start, evals, damp = ll, 1, 0.0
    # settled: the held set the search last converged on, until the next trial
    held, settled = [False, False], None

    def against(i):  # at a bound, with the gradient pushing out of the box
        return (x[i] <= lower[i] and g[i] < 0.0) or (x[i] >= upper[i] and g[i] > 0.0)

    while evals < max_evals:
        if any(against(i) and not held[i] for i in (0, 1)):
            held = [held[i] or against(i) for i in (0, 1)]
        pg = [0.0 if held[i] else g[i] for i in (0, 1)]
        h00, h01, h11 = _step_matrix(hess, held, damp)
        d = [h00 * pg[0] + h01 * pg[1], h01 * pg[0] + h11 * pg[1]]
        slope = pg[0] * d[0] + pg[1] * d[1]
        # the step length at which each coordinate reaches its bound
        room = [((upper[i] if d[i] > 0.0 else lower[i]) - x[i]) / d[i] if d[i] else math.inf
                for i in (0, 1)]
        edge = 0 if room[0] <= room[1] else 1
        if room[edge] == 0.0:
            # the step leaves the box at once: hold that coordinate, which
            # ends the search if that restores the set it converged on
            held[edge] = True
            if held == settled:
                return _Search(x, ll, g, ll_start, evals, math.isfinite(ll))
            continue
        if not slope > 0.0 or (room[edge] >= 1.0 and slope <= _GAIN_TOL * (1.0 + abs(ll))):
            # converged over the free coordinates: release any held one whose
            # gradient points back into the box, or stop
            freed = [i for i in (0, 1) if held[i] and g[i] != 0.0 and not against(i)]
            if not freed:
                return _Search(x, ll, g, ll_start, evals, math.isfinite(ll))
            settled, held = held, [held[i] and i not in freed for i in (0, 1)]
            continue
        step = min(1.0, room[edge], 1.0 / max(abs(d[0]), abs(d[1])))
        trial = [x[0] + step * d[0], x[1] + step * d[1]]
        if step == room[edge]:
            trial[edge] = upper[edge] if d[edge] > 0.0 else lower[edge]
        ll_trial, derive = score(trial)
        evals, settled = evals + 1, None
        # the gain the quadratic model along d predicts for this step
        gain, predicted = ll_trial - ll, step * slope * (1.0 - 0.5 * step)
        if not gain >= 0.25 * predicted:
            damp = max(10.0 * damp, 1e-4)
        elif gain > 0.75 * predicted:
            damp = 0.5 * damp if damp >= 2e-4 else 0.0
        if gain >= _ARMIJO * predicted:
            g, hess = derive()
            if step == room[edge]:
                held[edge] = True
            x, ll = trial, ll_trial
    return _Search(x, ll, g, ll_start, evals, False)


def _step_matrix(hess, held, damp: float):
    """The matrix a step applies to the gradient, as ``(h00, h01, h11)``: the
    inverse of minus ``hess`` over the free coordinates (the identity where
    ``hess`` is None or not finite), shifted by the least multiple of the
    identity that lifts its least eigenvalue to 1e-8 of its largest in size,
    plus ``damp`` times that largest.  A held coordinate takes the free one's
    curvature and no coupling, so it moves neither the shift nor the step."""
    if hess is None or not all(map(math.isfinite, hess)):
        hess = (-1.0, 0.0, -1.0)
    a, b, c = -hess[0], -hess[1], -hess[2]
    if held[0]:
        a, b = c, 0.0
    if held[1]:
        b, c = 0.0, a
    mid, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    top = abs(mid) + radius or 1.0  # the largest eigenvalue in size
    shift = max(0.0, 1e-8 - (mid - radius) / top) + damp
    a, b, c = a / top + shift, b / top, c / top + shift
    det = (a * c - b * b) * top
    inv = (c / det, -b / det, a / det)
    return inv if all(map(math.isfinite, inv)) else (1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the fit driver
# ---------------------------------------------------------------------------


class _Problem(NamedTuple):
    """One family's search, set up for one dataset: the map from search
    coordinates to parameters, the ``score`` of :func:`_maximize_box` (one
    record and one ``log_pmf_values`` call per point), the start and the box,
    the rule that names the bound a search ended on (``cap``, ``sigma_floor``
    or None), and what the setup has to report (the raised truncation)."""

    params_at: Callable
    score: Callable
    start: list
    lower: tuple
    upper: tuple
    bound: Callable[[_Search], str | None]
    warnings: tuple[str, ...] = ()
    truncation_raised: bool = False


def _compressed(ds: CitationDataset):
    values, mult = ds.distinct
    return values.astype(np.float64), mult.astype(np.float64)


def _fit(ds: CitationDataset, cfg: FitConfig, problem) -> FitResult:
    """Run the search that ``problem(ds, cfg, values, mult)`` sets up over the
    distinct counts and their multiplicities, and package its end point.

    A search that converged with a parameter on its bound exits for that
    bound; ``alpha_capped`` and ``at_sigma_floor`` name which.  A search whose
    log-likelihood is not finite has no exit reason; its trace names the
    counts the model gives no mass.
    """
    warnings_ = ()
    if len(ds) < _MIN_WARN_SIZE:
        warnings_ = (f"dataset has only {len(ds)} articles (< {_MIN_WARN_SIZE})",)
    values, mult = _compressed(ds)
    p = problem(ds, cfg, values, mult)
    search = _maximize_box(p.score, p.start, p.lower, p.upper, _MAX_ITERATIONS)
    params = p.params_at(search.x)
    if math.isfinite(search.ll):
        bound = p.bound(search)
        exit_reason = (bound or "converged") if search.converged else "budget"
    else:
        bound = exit_reason = None
        zero = ds.distinct[0][np.isneginf(log_pmf_values(params, values))]
        warnings_ += (f"zero model probability at shifted counts {zero.tolist()}; "
                      "log-likelihood is -inf",)
    trace = FitTrace(
        init_log_likelihood=search.ll_start,
        evaluations=search.evaluations,
        exit_reason=exit_reason,
        at_sigma_floor=bound == "sigma_floor",
        truncation_raised=p.truncation_raised,
        warnings=warnings_ + p.warnings,
    )
    return FitResult(params=params, log_likelihood=search.ll, converged=search.converged,
                     alpha_capped=bound == "cap", n_articles=len(ds), trace=trace)


# ---------------------------------------------------------------------------
# discretised lognormal fit
# ---------------------------------------------------------------------------


def init_lognormal(ds: CitationDataset) -> DiscretisedLognormalParams:
    """Moment starting point: mean and sample standard deviation of the log
    counts, weighted over the distinct counts, with the scale floored at
    ``SIGMA_MIN``."""
    values, mult = _compressed(ds)
    logs = np.log(values)
    n = len(ds)
    mu0 = float(mult @ logs) / n
    logs -= mu0
    sd = math.sqrt(float(mult @ (logs * logs)) / (n - 1)) if n > 1 else 0.0
    return DiscretisedLognormalParams(mu0, max(SIGMA_MIN, sd))


def fit_lognormal(ds: CitationDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Maximize the discretised-lognormal likelihood over
    ``(mu / (1 + sigma**2), ln sigma)``.  There the ridge that data with
    almost every count at 1 can rise along without bound (``mu -> -inf``,
    ``mu / sigma**2`` nearly fixed, towards a power law) is straight.

    Never raises for non-convergence: the best point found is returned with
    ``converged=False`` when the iteration budget runs out.
    """
    return _fit(ds, cfg, _lognormal_problem)


def _lognormal_problem(ds: CitationDataset, cfg: FitConfig, values, mult) -> _Problem:
    init = init_lognormal(ds)
    ln_sigma_floor = math.log(SIGMA_MIN)

    def params_at(x) -> DiscretisedLognormalParams:
        sigma = SIGMA_MIN if x[1] <= ln_sigma_floor else math.exp(x[1])
        return DiscretisedLognormalParams(x[0] * (1.0 + sigma * sigma), sigma)

    def score(x):
        params = params_at(x)
        log_mass = log_pmf_values(params, values)

        def derive():
            (d_mu, d_s), (h_mu_mu, h_mu_s, h_s_s) = _dln_ll_derivatives(
                values, mult, params, log_mass)
            # from (mu, ln sigma): mu = x0 (1 + sigma**2) has first derivatives
            # 1 + sigma**2 and b = 2 x0 sigma**2, and second derivatives
            # 2 sigma**2 (mixed) and 2 b (in ln sigma)
            s2 = params.sigma ** 2
            a, b = 1.0 + s2, 2.0 * s2 * x[0]
            return ((a * d_mu, d_s + b * d_mu),
                    (a * a * h_mu_mu,
                     a * (h_mu_s + b * h_mu_mu) + 2.0 * s2 * d_mu,
                     h_s_s + b * (2.0 * h_mu_s + b * h_mu_mu) + 2.0 * b * d_mu))

        return float(mult @ log_mass), derive

    return _Problem(
        params_at, score,
        [init.mu / (1.0 + init.sigma ** 2), math.log(init.sigma)],
        (-math.inf, ln_sigma_floor), (math.inf, math.inf),
        bound=lambda search: "sigma_floor" if search.x[1] <= ln_sigma_floor else None)


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
    values, mult = _compressed(ds)
    truncation, _ = _effective_truncation(ds, cfg)
    ln_alphas = np.linspace(math.log(1.01), math.log(cfg.alpha_cap), _GRID_POINTS)
    ln_b1s = np.linspace(0.0, math.log(10.0 * float(ds.counts.max())), _GRID_POINTS)
    offsets = [math.exp(lb) - 1.0 for lb in ln_b1s.tolist()]
    best = None
    # descending alpha so exact ties (mass fully concentrated at 1) resolve
    # to the largest-exponent grid edge; under a cap near the float maximum,
    # log masses near -1e308 sum past the float range to the -inf they stand for
    with np.errstate(over="ignore"):
        for la in ln_alphas[::-1].tolist():
            alpha = math.exp(la)
            for offset in offsets:
                params = HookedPowerLawParams(alpha, offset, truncation, cfg.tail_correction)
                ll = float(mult.dot(log_pmf_values(params, values)))
                if best is None or ll > best[0]:
                    best = (ll, params)
    return best[1]


def fit_hooked(ds: CitationDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Maximize the hooked likelihood over ``(ln alpha, ln(B + 1))``.

    The exponent is bounded by the cap: the likelihood keeps improving along
    an ``alpha, B -> inf`` ridge for data with sub-power-law tails, so the
    boundary optimum is the defined result.  ``alpha_capped`` is set exactly
    when the search ends with ``alpha`` on the cap and the likelihood still
    rising towards it; ``B`` is then optimized with ``alpha`` held there.
    """
    return _fit(ds, cfg, _hooked_problem)


def _hooked_problem(ds: CitationDataset, cfg: FitConfig, values, mult) -> _Problem:
    truncation, raised = _effective_truncation(ds, cfg)
    ln_cap = math.log(cfg.alpha_cap)

    def params_at(x) -> HookedPowerLawParams:
        alpha = cfg.alpha_cap if x[0] >= ln_cap else math.exp(x[0])
        return HookedPowerLawParams(alpha, math.exp(x[1]) - 1.0, truncation, cfg.tail_correction)

    def score(x):
        params = params_at(x)
        return (float(mult @ log_pmf_values(params, values)),
                lambda: _hooked_ll_derivatives(values, mult, params))

    init = init_hooked(ds, cfg)
    return _Problem(
        params_at, score,
        [math.log(init.alpha), math.log(init.offset + 1.0)],
        (-math.inf, 0.0), (ln_cap, math.log(1e9 + 1.0)),
        bound=lambda search: ("cap" if search.x[0] >= ln_cap and search.grad[0] >= 0.0
                              else None),
        warnings=(f"truncation raised to {truncation} to cover max count "
                  f"{int(ds.counts.max())}",) if raised else (),
        truncation_raised=raised)
