"""Significance and replication probability under a distributional null.

The working model treats the latent effect behind each experiment as a
draw from a population of effects with between-experiment variance
sigma0^2 = b * sigma^2, rather than as a fixed point value.  Everything
else follows from that choice: two-sided p-values against the widened
null, closed-form and integral forecasts of whether an identical
replication would reach significance, the most-favorable variance ratio
for an observed statistic, power with an irreducible ceiling, and
multi-experiment estimators for the variance ratio itself.

Modules
-------
distributions  Student-t / noncentral-t / variance-ratio primitives.
estimators     Per-experiment summaries and between-experiment variance.
significance   Two-sided tests against point and distributional nulls.
replication    Replication-probability forecasts and the b_max diagnostic.
power          Power, its ceiling, and sample-size search.
adapters       Two-sample, slope and 2x2-table data as canonical summaries.
oracle         Simulation harness for calibration and bias studies.
cli            CSV-in, CSV-out command-line interface.
"""

from .distributions import PROB_FLOOR
from .errors import (
    ConfigurationError,
    DegeneratePredictorError,
    DegenerateVarianceError,
    DistnullError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
)
from .estimators import (
    ExperimentSummary,
    TaskSet,
    between_variance,
    summarize,
    variance_ratio,
)
from .power import (
    PowerQuery,
    beta_distributional,
    beta_point,
    power_ceiling,
    required_sample_size,
)
from .replication import (
    ReplicationQuery,
    b_max,
    killeen_p_rep,
    p_rep_bound,
    p_rep_closed,
    p_rep_curve,
    p_rep_given_b,
    p_rep_integral,
)
from .significance import (
    TestStatistic,
    p_point,
    p_sig_bound,
    p_sig_closed,
    p_sig_given_b,
    p_sig_integral,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DegeneratePredictorError",
    "DegenerateVarianceError",
    "DistnullError",
    "DomainError",
    "ExperimentSummary",
    "InsufficientDataError",
    "NumericError",
    "PROB_FLOOR",
    "ParseError",
    "PowerQuery",
    "ReplicationQuery",
    "TaskSet",
    "TestStatistic",
    "b_max",
    "beta_distributional",
    "beta_point",
    "between_variance",
    "killeen_p_rep",
    "p_point",
    "p_rep_bound",
    "p_rep_closed",
    "p_rep_curve",
    "p_rep_given_b",
    "p_rep_integral",
    "p_sig_bound",
    "p_sig_closed",
    "p_sig_given_b",
    "p_sig_integral",
    "power_ceiling",
    "required_sample_size",
    "summarize",
    "variance_ratio",
    "__version__",
]
