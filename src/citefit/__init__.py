"""citefit: fit and compare heavy-tailed count models for citation data.

The package fits the discretised lognormal and the hooked (offset) power law
to per-journal citation counts by maximum likelihood, compares the fits with
the Vuong test, diagnoses shape mismatches over log-spaced segments, and
renders per-journal report tables and cumulative-distribution plots.
"""

from .distributions import (
    DEFAULT_ALPHA_CAP,
    DEFAULT_TRUNCATION,
    SIGMA_MIN,
    DiscretisedLognormalParams,
    HookedPowerLawParams,
    Model,
    cdf_values,
    dln_quantile,
    hooked_log_norm,
    log_pmf_values,
)
from .fitting import (
    CitationDataset,
    FitConfig,
    FitResult,
    fit_hooked,
    fit_lognormal,
    init_hooked,
    init_lognormal,
)
from .numerics import LOG_ZERO, std_normal_log_cdf
from .selection import (
    DEFAULT_Z_THRESHOLD,
    ComparisonResult,
    Winner,
    classify_winner,
    total_log_likelihood,
    vuong_test,
)
from .diagnostics import (
    SegmentDiagnostics,
    SegmentSpec,
    empirical_cdf,
    make_segments,
    plot_series,
    segment_differences,
)
from .synthesis import (
    MixtureSpec,
    SeededGenerator,
    mixture_experiment,
    recovery_experiment,
    sample,
)
from .data_io import (
    ResultDocument,
    parse_counts,
    read_result,
    render_table,
    write_result,
)

__version__ = "0.1.0"
