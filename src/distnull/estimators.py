"""Between-experiment variance estimation from grouped summaries.

A task is a set of experiments measuring the same effect at different
sites. The spread of the per-experiment means beyond what within-experiment
noise explains estimates the between-experiment variance S0^2, which drives
every downstream significance and replication quantity through the variance
ratio b = S0^2 / S^2.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from functools import partial
from typing import Literal, Sequence, get_args

import numpy as np

from .distributions import (
    _at_least, _check_at_least, _check_df, _check_finite, _check_nu0, _checked, _Faults, _positive,
)
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
        _check_df(self.n, "n")
        _check_finite(self.mean, "mean")
        _check_at_least(self.sample_variance, 0.0, "sample_variance")
        _check_df(self.df, "df")


def _summary_valid(n, mean, variance, df) -> np.ndarray:
    """Where ExperimentSummary accepts the slots of columns."""
    return _positive(n) & np.isfinite(mean) & _at_least(variance, 0.0) & _positive(df)


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
        _check_at_least(self.s0_sq, 0.0, "s0_sq")
        _check_nu0(self.nu0)
        _check_finite(self.grand_mean, "grand_mean")
        _check_mode(self.mode)


def _check_mode(mode: str) -> None:
    if mode not in get_args(VarianceMode):
        raise DomainError(f"unknown mode {mode!r}")


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
    return _first_summary(_summaries(arr, np.zeros(1, dtype=np.intp))[0])


def _first_summary(columns) -> ExperimentSummary:
    """The summary in the first row of a reducer's columns."""
    return ExperimentSummary(*(float(column[0]) for column in columns))


def _segments(starts: np.ndarray, counts: np.ndarray, least: int):
    """Per count of at least ``least``, its segments and each one's values'
    index: a 2-D block, which numpy reduces along axis 1 with 1-D bits."""
    for count in sorted(set(counts[counts >= least].tolist())):
        block = np.flatnonzero(counts == count)
        yield block, starts[block, None] + np.arange(count)


@np.errstate(all="ignore")  # a faulty segment is left non-finite
def _summaries(values: np.ndarray, starts: np.ndarray) -> tuple[tuple[np.ndarray, ...], _Faults]:
    """summarize over the segments of ``values`` that begin at ``starts``:
    the (n, mean, variance, df) columns, and each faulty segment's error,
    built by summarize on that segment alone."""
    counts = np.diff(starts, append=values.size)
    mean, variance = np.full(counts.size, np.nan), np.full(counts.size, np.nan)
    for block, rows in _segments(starts, counts, 2):
        segments = values[rows]
        mean[block], variance[block] = segments.mean(axis=1), segments.var(axis=1, ddof=1)
    n = counts.astype(float)
    columns = (n, mean, variance, n - 1.0)  # left invalid by one value, or one not finite
    return columns, _Faults(~_summary_valid(*columns), lambda start, end: summarize(
        values[start:end]), starts, starts + counts)


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
    s0_sq, _, grand_mean = _checked(_between_variance(SiteTable.from_tasks([task]), mode))
    return BetweenVariance(float(s0_sq[0]), task.k - 1, float(grand_mean[0]), mode)


@np.errstate(all="ignore")  # a task whose fit is undefined is left non-finite
def _task_spread(table: SiteTable, mode: VarianceMode) -> tuple[np.ndarray, np.ndarray]:
    """Each task's raw S0^2 and grand mean.

    Tasks of equal K reduce together as rows of a 2-D block, which keeps
    the bits of a 1-D reduction; the as-published correction is summed one
    site column at a time, in site order.
    """
    tasks = len(table.task_ids)
    s0_sq, grand_mean = np.empty(tasks), np.empty(tasks)
    for k in sorted(set(table.k.tolist())):
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
    return s0_sq, grand_mean


def _between_variance(
    table: SiteTable, mode: VarianceMode
) -> tuple[tuple[np.ndarray, ...], ChainMap]:
    """between_variance over every task of a table: its (s0_sq, nu0,
    grand_mean) columns, NaN in the tasks without a fit, and the error of
    each faulty task, as between_variance raises it: that of the task's
    first site with df <= 2, else BetweenVariance's check of a non-finite
    fit. A task with K < 2 has no fit and no fault."""
    _check_mode(mode)
    s0_sq, grand_mean = _task_spread(table, mode)
    nu0, multi = table.k - 1.0, table.k >= 2
    fit = _Faults(multi & ~(np.isfinite(s0_sq) & np.isfinite(grand_mean)),
                  partial(BetweenVariance, mode=mode), s0_sq, nu0, grand_mean)
    low = np.flatnonzero(multi[table.task_of] & (table.df <= 2.0))
    tasks, first = np.unique(table.task_of[low], return_index=True)
    faults = ChainMap({j: DomainError(
        f"every experiment needs df > 2 (noise-correction moment undefined at df={df!r})"
    ) for j, df in zip(tasks.tolist(), table.df[low[first]].tolist())}, fit)
    valid = multi & ~np.isin(np.arange(multi.size), list(faults))
    return tuple(np.where(valid, column, np.nan) for column in (s0_sq, nu0, grand_mean)), faults


def variance_ratio(b0: BetweenVariance, experiment: ExperimentSummary) -> float:
    """b-hat = S0^2 / S^2 against the analyzed experiment's own variance."""
    if experiment.sample_variance <= 0.0:
        raise DegenerateVarianceError(
            "experiment sample variance is zero; variance ratio undefined"
        )
    return b0.s0_sq / experiment.sample_variance

