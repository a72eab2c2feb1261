"""Between-experiment variance estimation from grouped summaries.

A task is a set of experiments measuring the same effect at different
sites. The spread of the per-experiment means beyond what within-experiment
noise explains estimates the between-experiment variance S0^2, which drives
every downstream significance and replication quantity through the variance
ratio b = S0^2 / S^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .distributions import _check_nu0
from .errors import (
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)

__all__ = [
    "ExperimentSummary",
    "TaskSet",
    "BetweenVariance",
    "summarize",
    "between_variance",
    "variance_ratio",
    "standardize_means",
]

VarianceMode = Literal["as_published", "moment_corrected"]


@dataclass(frozen=True)
class ExperimentSummary:
    """Sufficient statistics of one experiment.

    ``n`` is the measurement count N for mean-based families; for slope
    families it carries the continuous analog (the predictor sum of
    squares Q), so only n > 0 is required here. Count-based constructors
    enforce n >= 2 before building one of these.
    """

    n: float
    mean: float
    sample_variance: float
    df: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n) and self.n > 0):
            raise DomainError(f"n must be finite and > 0, got {self.n!r}")
        if not math.isfinite(self.mean):
            raise DomainError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.sample_variance) and self.sample_variance >= 0):
            raise DomainError(
                f"sample_variance must be finite and >= 0, got {self.sample_variance!r}"
            )
        if not (math.isfinite(self.df) and self.df > 0):
            raise DomainError(f"df must be finite and > 0, got {self.df!r}")


@dataclass(frozen=True)
class TaskSet:
    """K >= 2 experiments measuring the same effect."""

    task_id: str
    experiments: tuple[ExperimentSummary, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments", tuple(self.experiments))
        if len(self.experiments) < 2:
            raise InsufficientDataError(
                f"task {self.task_id!r} needs at least 2 experiments, "
                f"got {len(self.experiments)}"
            )

    @property
    def k(self) -> int:
        return len(self.experiments)


@dataclass(frozen=True)
class BetweenVariance:
    """Between-experiment variance estimate for one task.

    ``nu0`` = K - 1 degrees of freedom; ``grand_mean`` is the unweighted
    mean of the per-experiment means; ``mode`` records which estimator
    produced ``s0_sq``.
    """

    s0_sq: float
    nu0: float
    grand_mean: float
    mode: VarianceMode

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s0_sq) and self.s0_sq >= 0):
            raise DomainError(f"s0_sq must be finite and >= 0, got {self.s0_sq!r}")
        _check_nu0(self.nu0)
        if not math.isfinite(self.grand_mean):
            raise DomainError(f"grand_mean must be finite, got {self.grand_mean!r}")
        if self.mode not in ("as_published", "moment_corrected"):
            raise DomainError(f"unknown mode {self.mode!r}")


def summarize(values: Sequence[float]) -> ExperimentSummary:
    """Mean, unbiased sample variance, and df = n - 1 of raw measurements."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("values must be one-dimensional")
    if arr.size < 2:
        raise InsufficientDataError(
            f"need at least 2 measurements, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("values must all be finite")
    n = int(arr.size)
    return ExperimentSummary(
        n=n,
        mean=float(arr.mean()),
        sample_variance=float(arr.var(ddof=1)),
        df=n - 1,
    )


def between_variance(task: TaskSet, mode: VarianceMode = "as_published") -> BetweenVariance:
    """Estimate the between-experiment variance S0^2 of a task.

    The raw spread of per-experiment means,

        S_m^2 = sum_i (mean_i - grand_mean)^2 / (K - 1),

    mixes true between-experiment variance with within-experiment noise.
    "as_published" adds the expected-squared-error term
    (1/K) sum_i nu_i S_i^2 / (N_i (nu_i - 2)); "moment_corrected" instead
    subtracts the moment-matching estimate (1/K) sum_i S_i^2 / N_i of that
    noise (clamped at zero), since E[S_m^2] = sigma0^2 + (1/K) sum_i
    sigma_i^2 / N_i under the hierarchical model.
    """
    if mode not in ("as_published", "moment_corrected"):
        raise DomainError(f"unknown mode {mode!r}")
    exps = task.experiments
    k = len(exps)
    for e in exps:
        if e.df <= 2:
            raise DomainError(
                "every experiment needs df > 2 "
                f"(noise-correction moment undefined at df={e.df!r})"
            )
    means = np.array([e.mean for e in exps])
    grand_mean = float(means.mean())
    s_m_sq = float(np.sum((means - grand_mean) ** 2) / (k - 1))
    if mode == "as_published":
        correction = sum(e.df * e.sample_variance / (e.n * (e.df - 2.0)) for e in exps) / k
        s0_sq = s_m_sq + correction
    else:
        correction = sum(e.sample_variance / e.n for e in exps) / k
        s0_sq = max(s_m_sq - correction, 0.0)
    return BetweenVariance(s0_sq=s0_sq, nu0=k - 1, grand_mean=grand_mean, mode=mode)


def variance_ratio(b0: BetweenVariance, experiment: ExperimentSummary) -> float:
    """b-hat = S0^2 / S^2 against the analyzed experiment's own variance."""
    if experiment.sample_variance <= 0.0:
        raise DegenerateVarianceError(
            "experiment sample variance is zero; variance ratio undefined"
        )
    return b0.s0_sq / experiment.sample_variance


def standardize_means(task: TaskSet, b0: BetweenVariance) -> tuple[float, ...]:
    """Per-experiment z_i = (mean_i - grand_mean) / S0 against the fit ``b0``."""
    if b0.s0_sq <= 0.0:
        raise DegenerateVarianceError(
            f"task {task.task_id!r}: S0^2 is zero; standardized means undefined"
        )
    s0 = math.sqrt(b0.s0_sq)
    return tuple((e.mean - b0.grand_mean) / s0 for e in task.experiments)
