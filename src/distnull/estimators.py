"""Between-experiment variance estimation from grouped summaries.

A task is a set of experiments measuring the same effect at different
sites. The spread of the per-experiment means beyond what within-experiment
noise explains estimates the between-experiment variance S0^2, which drives
every downstream significance and replication quantity through the variance
ratio b = S0^2 / S^2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .distributions import _check_nu0
from .errors import (
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)
from .significance import TestStatistic, _statistic

__all__ = [
    "ExperimentSummary",
    "TaskSet",
    "SiteTable",
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


class Site(NamedTuple):
    """One row of a SiteTable: its names, summary, and two-group share."""

    task: str
    site: str
    summary: ExperimentSummary
    share: float | None


class SiteTable:
    """Experiments in columns, grouped by task: the one layout that the
    commands and the simulation harness compute on.

    Task j holds rows ``offsets[j]:offsets[j + 1]``, K = ``k[j]`` of them.
    ``t`` and ``effect`` are each row's canonical statistic (see
    ``statistic_from_summary``); ``share`` is the first group's share of
    the N units in two-group families and NaN elsewhere. The builders
    check the rows; the table does not. ``ExperimentSummary``,
    ``TestStatistic`` and ``TaskSet`` are one-row and one-task views of it.
    """

    def __init__(self, task_ids: Sequence[str], offsets, n, mean, variance, df,
                 share=None, site_ids: Sequence[str] | None = None):
        self.task_ids = list(task_ids)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.n, self.mean, self.variance, self.df = (
            np.asarray(column, dtype=float) for column in (n, mean, variance, df)
        )
        self.share = np.full(self.n.size, np.nan) if share is None else np.asarray(share, float)
        self.site_ids = [""] * self.n.size if site_ids is None else list(site_ids)
        self.t, self.effect = _statistic(self.n, self.mean, self.variance)
        self.k = np.diff(self.offsets)
        self.task_of = np.repeat(np.arange(self.k.size), self.k)

    @classmethod
    def from_tasks(cls, tasks: Sequence[TaskSet]) -> SiteTable:
        rows = [(e.n, e.mean, e.sample_variance, e.df) for task in tasks for e in task.experiments]
        return cls(
            [task.task_id for task in tasks], np.cumsum([0, *(task.k for task in tasks)]),
            *np.array(rows, dtype=float).reshape(-1, 4).T,
        )

    def __len__(self) -> int:
        return self.n.size

    def __iter__(self) -> Iterator[Site]:
        for i in range(len(self)):
            share = float(self.share[i])
            yield Site(self.task_ids[self.task_of[i]], self.site_ids[i], self.summary(i),
                       None if math.isnan(share) else share)

    def summary(self, i: int) -> ExperimentSummary:
        return ExperimentSummary(float(self.n[i]), float(self.mean[i]),
                                 float(self.variance[i]), float(self.df[i]))

    def statistic(self, i: int) -> TestStatistic:
        return TestStatistic(t=float(self.t[i]), n=float(self.n[i]), df=float(self.df[i]),
                             effect=float(self.effect[i]))

    def task(self, j: int) -> TaskSet:
        rows = range(self.offsets[j], self.offsets[j + 1])
        return TaskSet(self.task_ids[j], tuple(map(self.summary, rows)))

    def select(self, keep: np.ndarray) -> SiteTable:
        """The tasks where ``keep`` is true, in order."""
        rows = np.repeat(keep, self.k)
        return SiteTable(
            [task for task, kept in zip(self.task_ids, keep.tolist()) if kept],
            np.cumsum([0, *self.k[keep].tolist()]),
            self.n[rows], self.mean[rows], self.variance[rows], self.df[rows],
            self.share[rows], [site for site, kept in zip(self.site_ids, rows.tolist()) if kept],
        )


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
    with np.errstate(all="ignore"):  # the summary rejects a slot left non-finite
        mean, variance = float(arr.mean()), float(arr.var(ddof=1))
    return ExperimentSummary(n=n, mean=mean, sample_variance=variance, df=n - 1)


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
    for e in task.experiments:
        if e.df <= 2:
            raise DomainError(
                "every experiment needs df > 2 "
                f"(noise-correction moment undefined at df={e.df!r})"
            )
    # an overflow or a vanishing N(nu - 2) leaves s0_sq or grand_mean
    # non-finite, which BetweenVariance rejects
    s0_sq, grand_mean, _ = _task_spread(SiteTable.from_tasks([task]), mode)
    return BetweenVariance(
        s0_sq=float(s0_sq[0]), nu0=task.k - 1, grand_mean=float(grand_mean[0]), mode=mode
    )


@np.errstate(all="ignore")  # a task whose fit is undefined is left non-finite
def _task_spread(table: SiteTable, mode: VarianceMode) -> tuple[np.ndarray, ...]:
    """Each task's raw S0^2 and grand mean, and whether a site has df <= 2.

    Tasks of equal K reduce together as rows of a 2-D block, which keeps
    the bits of a 1-D reduction; the as-published correction is summed one
    site column at a time, in site order.
    """
    tasks = len(table.task_ids)
    s0_sq, grand_mean = np.empty(tasks), np.empty(tasks)
    low_df = np.empty(tasks, dtype=bool)
    for k in np.unique(table.k).tolist():
        block = np.flatnonzero(table.k == k)
        rows = table.offsets[block, None] + np.arange(k)
        means = table.mean[rows]
        centre = means.mean(axis=1)
        s_m_sq = np.sum((means - centre[:, None]) ** 2, axis=1) / (k - 1)
        n, variance, df = table.n[rows], table.variance[rows], table.df[rows]
        if mode == "as_published":
            terms = np.divide(df * variance, n * (df - 2.0))
        else:
            terms = variance / n
        correction = np.zeros(block.size)
        for column in terms.T:
            correction = correction + column
        correction = correction / k
        if mode == "as_published":
            s0_sq[block] = s_m_sq + correction
        else:
            s0_sq[block] = np.maximum(s_m_sq - correction, 0.0)
        grand_mean[block] = centre
        low_df[block] = (df <= 2.0).any(axis=1)
    return s0_sq, grand_mean, low_df


def _between_variance(table: SiteTable, mode: VarianceMode) -> tuple[np.ndarray, ...]:
    """between_variance over every task of a table: (s0_sq, nu0, grand_mean)
    columns, NaN in the tasks where it raises (including tasks with K < 2)."""
    if mode not in ("as_published", "moment_corrected"):
        raise DomainError(f"unknown mode {mode!r}")
    s0_sq, grand_mean, low_df = _task_spread(table, mode)
    valid = (table.k >= 2) & ~low_df & np.isfinite(s0_sq) & np.isfinite(grand_mean)
    return tuple(
        np.where(valid, column, np.nan) for column in (s0_sq, table.k - 1.0, grand_mean)
    )


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
