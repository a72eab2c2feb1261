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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegeneratePredictorError,
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)
from .estimators import ExperimentSummary
from .significance import TestStatistic, _statistic

__all__ = [
    "ContingencyTable",
    "statistic_from_summary",
    "unpaired_summary",
    "regression",
    "contingency_regression",
    "phi_coefficient",
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
    na, nb = a.size, b.size
    if na < 2 or nb < 2:
        raise InsufficientDataError("each group needs at least 2 values")
    with np.errstate(all="ignore"):  # the summary rejects a slot left non-finite
        sse = float(np.sum((a - a.mean()) ** 2)) + float(np.sum((b - b.mean()) ** 2))
        mean = float(a.mean() - b.mean())
    df = na + nb - 2
    return ExperimentSummary(
        n=na * nb / (na + nb), mean=mean, sample_variance=sse / df, df=df
    )


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
    n = int(x.size)
    with np.errstate(all="ignore"):  # the summary rejects a slot left non-finite
        dx = x - x.mean()
        q = float(np.sum(dx * dx))
        if q <= 0.0:
            raise DegeneratePredictorError("predictor values are all equal (Q = 0)")
        slope = float(np.sum(dx * y)) / q
        residuals = y - y.mean() - slope * dx
        sse = float(np.sum(residuals * residuals))
    return ExperimentSummary(n=q, mean=slope, sample_variance=sse / (n - 2), df=n - 2)


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
    n1x = table.n11 + table.n10
    n0x = table.n01 + table.n00
    if n1x == 0 or n0x == 0:
        raise DegeneratePredictorError(
            "predictor margin is degenerate (all pairs share one x value)"
        )
    n1y = table.n11 + table.n01
    n0y = table.n10 + table.n00
    q = n1x * n0x / n
    sxy = table.n11 - n1x * n1y / n
    slope = sxy / q
    syy = n1y * n0y / n
    sse = max(syy - slope * slope * q, 0.0)
    return ExperimentSummary(n=q, mean=slope, sample_variance=sse / (n - 2), df=n - 2)


def phi_coefficient(table: ContingencyTable) -> float:
    """phi = (n11·n00 − n10·n01)/√(n1x·n0x·n1y·n0y) ∈ [−1, 1].

    Equals the Pearson correlation of the expanded 0/1 pairs.
    """
    n1x = table.n11 + table.n10
    n0x = table.n01 + table.n00
    n1y = table.n11 + table.n01
    n0y = table.n10 + table.n00
    denom = n1x * n0x * n1y * n0y
    if denom == 0:
        raise DegeneratePredictorError(
            "phi undefined: a margin of the table is zero"
        )
    return (table.n11 * table.n00 - table.n10 * table.n01) / math.sqrt(denom)
