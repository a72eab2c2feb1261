"""Adapters mapping concrete test families onto the canonical summary.

Every family reduces to one one-sample-shaped ExperimentSummary
(n, mean, variance, df) with Var(mean) = sigma^2/n, and its statistic is
always t = mean/sqrt(variance/n) from ``statistic_from_summary``:

- one-sample and paired: ``summarize`` of the values or the differences;
- two-sample: ``unpaired_summary``, the mean difference with the pooled
  variance and the effective size n1*n2/(n1+n2), df = n1+n2-2;
- least-squares slope: ``regression``, with the predictor sum-of-squares
  Q in the sample-size slot, the slope as the mean and the mean squared
  residual as the variance;
- 2x2 contingency table: ``contingency_regression``, the slope mapping of
  its 0/1 expansion by exact count arithmetic.

Each family's formula has one implementation, a column reducer over
segments of values (``_unpaired``, ``_regressions``, ``_tables``, and
``estimators._summaries``). It returns the summary columns and, as the
kernels do, the error of each faulty segment, which the family's function
builds on that segment alone when the error is read. CSV ingest runs the
reducer over every site at once; each function checks its input and runs
it on one segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import _Faults
from .errors import (
    DegeneratePredictorError,
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)
from .estimators import (
    ExperimentSummary,
    SiteTable,
    _first_summary,
    _segments,
    _summary_valid,
)
from .significance import TestStatistic, _statistic

__all__ = [
    "ContingencyTable",
    "statistic_from_summary",
    "unpaired_summary",
    "regression",
    "contingency_regression",
]


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 contingency counts: n[xy] = pairs with predictor x, response y."""

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        for name in ("n11", "n10", "n01", "n00"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                raise DomainError(f"{name} must be a count >= 0, got {v!r}")
        if self.total < 2:
            raise InsufficientDataError("table needs at least 2 pairs")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


def statistic_from_summary(summary: ExperimentSummary) -> TestStatistic:
    """Canonical statistic t = (mean/S)·√n from an ExperimentSummary.

    The one statistic formula: every family's summary follows the
    one-sample convention, including the slope mapping, where n is Q,
    mean the slope, and variance the MSE.
    """
    if summary.sample_variance <= 0.0:
        raise DegenerateVarianceError(
            "sample variance is zero; t-statistic undefined"
        )
    t, effect = _statistic(summary.n, summary.mean, summary.sample_variance)
    return TestStatistic(
        t=float(t), n=float(summary.n), df=float(summary.df), effect=float(effect)
    )


def _statistic_faults(table: SiteTable) -> _Faults:
    """The error statistic_from_summary raises on each row of a site table
    whose statistic is undefined."""
    undefined = ~((table.variance > 0) & np.isfinite(table.t) & np.isfinite(table.effect))
    return _Faults(undefined, lambda i: statistic_from_summary(table.summary(i)),
                   np.arange(len(table)))


def unpaired_summary(
    group_a: Sequence[float], group_b: Sequence[float]
) -> ExperimentSummary:
    """Equal-variance two-sample experiment in one-sample slots.

    mean = X̄a − X̄b, variance = pooled S², df = na+nb−2, and n the
    effective size na·nb/(na+nb), so that Var(mean) = σ²/n: the slope
    mapping of a regression on a 0/1 group indicator.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("group values must all be finite")
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("each group needs at least 2 values")
    values = np.concatenate((a, b), axis=None)
    return _first_summary(_unpaired(values, np.zeros(1, np.intp), np.array([a.size]))[0])


@np.errstate(all="ignore")  # a faulty segment is left non-finite
def _unpaired(values: np.ndarray, starts: np.ndarray, first: np.ndarray):
    """unpaired_summary over the segments of ``values`` that begin at
    ``starts``, group a the first ``first`` values of each: the (n, mean,
    variance, df) columns, and each faulty segment's error, built by
    unpaired_summary on that segment alone."""
    counts = np.diff(starts, append=values.size)
    sizes = np.concatenate((first, counts - first))  # group a of every segment, then group b
    means, sums = np.full(sizes.size, np.nan), np.full(sizes.size, np.nan)
    for block, rows in _segments(np.concatenate((starts, starts + first)), sizes, 1):
        groups = values[rows]
        means[block] = groups.mean(axis=1)
        groups -= means[block, None]
        sums[block] = np.sum(groups ** 2, axis=1)
    (na, nb), df = np.split(sizes, 2), counts - 2.0
    columns = (na * nb / counts, np.subtract(*np.split(means, 2)), np.add(*np.split(sums, 2)) / df,
               df)
    return columns, _Faults(
        (na < 2) | (nb < 2) | ~_summary_valid(*columns),
        lambda start, split, end: unpaired_summary(values[start:split], values[split:end]),
        starts, starts + first, starts + counts)


def regression(xs: Sequence[float], ys: Sequence[float]) -> ExperimentSummary:
    """Least-squares slope in canonical slots: n = Q = Σ(Xᵢ−X̄)², mean =
    M̄ = Σ(Xᵢ−X̄)Yᵢ/Q, variance = S² = SSE/(N−2), df = N−2."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise DomainError("xs and ys must be equal-length one-dimensional sequences")
    if x.size < 3:
        raise InsufficientDataError(f"need at least 3 points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("values must all be finite")
    columns, _ = _regressions(x, y, np.zeros(1, dtype=np.intp))
    if columns[0][0] <= 0.0:  # Q
        raise DegeneratePredictorError("predictor values are all equal (Q = 0)")
    return _first_summary(columns)


@np.errstate(all="ignore")  # a faulty segment is left non-finite
def _regressions(x: np.ndarray, y: np.ndarray, starts: np.ndarray):
    """regression over the segments of pairs (x, y) that begin at ``starts``,
    by centred moments: the (Q, slope, variance, df) columns, and each
    faulty segment's error, built by regression on that segment alone."""
    counts = np.diff(starts, append=x.size)
    q, slope, sse = (np.full(counts.size, np.nan) for _ in range(3))
    for block, rows in _segments(starts, counts, 3):
        dx, residuals = x[rows], y[rows]  # centred, in place
        dx -= dx.mean(axis=1)[:, None]
        q[block] = np.sum(dx * dx, axis=1)
        slope[block] = np.sum(dx * residuals, axis=1) / q[block]
        residuals -= residuals.mean(axis=1)[:, None]
        residuals -= slope[block, None] * dx
        sse[block] = np.sum(residuals * residuals, axis=1)
    df = counts - 2.0
    columns = (q, slope, sse / df, df)  # Q = 0 leaves the slope 0/0
    return columns, _Faults(~_summary_valid(*columns), lambda start, end: regression(
        x[start:end], y[start:end]), starts, starts + counts)


def contingency_regression(table: ContingencyTable) -> ExperimentSummary:
    """Slope summary of a 2x2 table by exact count arithmetic.

    Expanding the table to 0/1 (predictor, response) pairs and running the
    slope computation gives, without materializing the rows:
    Q = n1x·n0x/N, Σ(xᵢ−x̄)yᵢ = n11 − n1x·n1y/N, SYY = n1y·n0y/N,
    SSE = SYY − M̄²Q.
    """
    n = table.total
    if n < 3:
        raise InsufficientDataError(f"need at least 3 pairs, got {n}")
    if table.n11 + table.n10 == 0 or table.n01 + table.n00 == 0:
        raise DegeneratePredictorError(
            "predictor margin is degenerate (all pairs share one x value)"
        )
    counts = np.array([[table.n11, table.n10, table.n01, table.n00]])
    return _first_summary(_tables(counts)[0])


@np.errstate(all="ignore")  # a faulty table is left non-finite
def _tables(counts: np.ndarray):
    """contingency_regression over rows of counts (n11, n10, n01, n00): the
    (Q, slope, variance, df) columns, and each faulty table's error, built
    by ContingencyTable and contingency_regression on that table alone."""
    n11, n10, n01, n00 = counts.T.astype(float)
    n1x, n0x, n1y, n0y = n11 + n10, n01 + n00, n11 + n01, n10 + n00
    n = n1x + n0x
    q = n1x * n0x / n
    slope = (n11 - n1x * n1y / n) / q
    sse = np.maximum(n1y * n0y / n - slope * slope * q, 0.0)
    columns = (q, slope, sse / (n - 2.0), n - 2.0)  # N < 3 leaves df <= 0, a zero margin Q = 0
    return columns, _Faults(~_summary_valid(*columns), lambda *cells: contingency_regression(
        ContingencyTable(*cells)), *counts.T)
