"""Significance under point-form and distributional null hypotheses.

The point-form null fixes the effect at exactly zero; the distributional
null lets the per-experiment effect wander around zero with between-
experiment variance sigma0^2 = b * sigma^2. Every distributional variant
here discounts |t| by the extra spread that wandering induces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    PROB_FLOOR,
    _check_b_hat,
    _check_nu0,
    _f_expectations,
    _t_tail,
    clamp_probability,
)
from .errors import DomainError

__all__ = [
    "TestStatistic",
    "p_point",
    "p_sig_given_b",
    "p_sig_bound",
    "p_sig_integral",
    "p_sig_closed",
    "t0_statistic",
]


@dataclass(frozen=True)
class TestStatistic:
    """Canonical test result: t = (X̄/S)√N with df and normalized effect.

    ``n`` is the sample size N, or its continuous analog Q for slope
    families. ``effect`` is t/√n, which equals X̄/S for one-sample and
    paired designs.
    """

    t: float
    n: float
    df: float
    effect: float

    def __post_init__(self) -> None:
        for name in ("t", "n", "df", "effect"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.n <= 0:
            raise DomainError(f"n must be > 0, got {self.n!r}")
        if self.df <= 0:
            raise DomainError(f"df must be > 0, got {self.df!r}")
        if abs(self.t - self.effect * math.sqrt(self.n)) > 1e-12 * max(1.0, abs(self.t)):
            raise DomainError(
                f"inconsistent statistic: t={self.t!r} but "
                f"effect*sqrt(n)={self.effect * math.sqrt(self.n)!r}"
            )

    @classmethod
    def from_t(cls, t: float, n: float, df: float) -> "TestStatistic":
        n = float(n)
        if not (math.isfinite(n) and n > 0):
            raise DomainError(f"n must be finite and > 0, got {n!r}")
        return cls(t=float(t), n=n, df=float(df), effect=float(t) / math.sqrt(n))

    @classmethod
    def from_effect(cls, effect: float, n: float, df: float) -> "TestStatistic":
        return cls(
            t=float(effect) * math.sqrt(n), n=float(n), df=float(df), effect=float(effect)
        )


@np.errstate(all="ignore")  # a row statistic_from_summary rejects is left non-finite
def _statistic(n, mean, variance) -> tuple[np.ndarray, np.ndarray]:
    """t = effect·√n and effect = mean/S over columns of canonical summaries."""
    effect = np.divide(mean, np.sqrt(variance))
    return effect * np.sqrt(n), effect


def _p_point(t, df) -> np.ndarray:
    """p_point over columns of t and df; NaN where p_point raises."""
    return np.clip(2.0 * _t_tail(t, df)[0], PROB_FLOOR, 1.0)


def p_point(stat: TestStatistic) -> float:
    """Two-sided point-form significance 2T_nu(-|t|)."""
    return clamp_probability(float(_p_point(stat.t, stat.df)))


def p_sig_given_b(stat: TestStatistic, b: float) -> float:
    """Distributional significance at known variance ratio b = sigma0^2/sigma^2.

    2T_nu(-|t| / sqrt(1 + bN)): the between-experiment spread inflates the
    null scale of t by sqrt(1 + bN). Reduces to p_point at b = 0.
    """
    b = float(b)
    if not (math.isfinite(b) and b >= 0.0):
        raise DomainError(f"b must be finite and >= 0, got {b!r}")
    return clamp_probability(float(_p_sig_given_b(stat.t, stat.n, stat.df, b)))


@np.errstate(over="ignore")  # b * N may overflow to its limit inf
def _p_sig_given_b(t, n, df, b) -> np.ndarray:
    """p_sig_given_b over columns of t, N, df and checked b."""
    x = t / np.sqrt(1.0 + np.multiply(b, n))
    return np.clip(2.0 * _t_tail(x, df)[0], PROB_FLOOR, 1.0)


def p_sig_bound(stat: TestStatistic, bound: float) -> float:
    """Generic distributional significance at the variance-ratio cap B.

    If the computed value is below alpha, the result stays significant for
    every b <= B, since p_sig_given_b is increasing in b.
    """
    bound = float(bound)
    if not (math.isfinite(bound) and bound > 0.0):
        raise DomainError(f"bound must be finite and > 0, got {bound!r}")
    return p_sig_given_b(stat, bound)


@np.errstate(over="ignore")  # b_hat * N and b * spread may overflow to their limit inf
def _sig_rule(t, n, df, b_hat, nu0):
    """The rule's p_sig_integral values, unclamped, and faults over columns
    whose b_hat and nu0 are checked."""
    t_abs, spread = np.abs(t), b_hat * n

    def kernel(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 2.0 * _t_tail(t_abs[rows] / np.sqrt(1.0 + b * spread[rows]), df[rows])[0]

    return _f_expectations(kernel, [((d, v),) for d, v in zip(df.tolist(), nu0.tolist())])


def _p_sig_integral(t, n, df, b_hat, nu0) -> np.ndarray:
    """p_sig_integral over columns of t, N, df, b_hat and nu0; NaN where
    p_sig_integral raises."""
    t, n, df, b_hat, nu0 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t, n, df, b_hat, nu0)))
    valid = (nu0 >= 1.0) & (nu0 < np.inf) & (b_hat > 0.0) & (b_hat < np.inf)
    p = np.full(t.shape, np.nan)
    p[valid] = _sig_rule(t[valid], n[valid], df[valid], b_hat[valid], nu0[valid])[0]
    return np.clip(p, PROB_FLOOR, 1.0)


def p_sig_integral(stat: TestStatistic, b_hat: float, nu0: float) -> float:
    """Distributional significance integrated over the uncertainty in b-hat.

    The true ratio b is modeled as b_hat times an F-distributed factor with
    (nu, nu0) degrees of freedom; the significance is the mixture

        E[ 2 T_nu(-|t| / sqrt(1 + b * b_hat * N)) ],   b ~ F(nu, nu0),

    evaluated by the certified fixed-node rule of ``f_expectation``.
    """
    b_hat = _check_b_hat(b_hat)
    nu0 = _check_nu0(nu0)
    values, faults = _sig_rule(*(np.array([x]) for x in (stat.t, stat.n, stat.df, b_hat, nu0)))
    if faults:
        raise faults[0]
    return clamp_probability(float(values[0]))


@np.errstate(all="ignore")  # b_hat * N may overflow (t0 -> 0) or underflow to 0
def _t0(t, n, b_hat) -> np.ndarray:
    """t0 = t / sqrt(b_hat * N) over columns whose b_hat is checked, NaN where
    b_hat is NaN; t0 = X̄/S0 is 0 at t = 0 even where b_hat * N underflows."""
    return np.where((t == 0.0) & (b_hat > 0.0), t, t / np.sqrt(b_hat * n))


def t0_statistic(stat: TestStatistic, b_hat: float) -> float:
    """Distributional t-statistic t0 = t / sqrt(b_hat * N) = X̄ / S0."""
    return float(_t0(stat.t, stat.n, _check_b_hat(b_hat)))


@np.errstate(all="ignore")  # rows outside the domain are computed too
def _p_sig_closed(t, n, b_hat, nu0) -> np.ndarray:
    """p_sig_closed over columns of t, N, b_hat and nu0; NaN where p_sig_closed raises."""
    t, n, b_hat, nu0 = (np.asarray(x, dtype=float) for x in (t, n, b_hat, nu0))
    p = np.clip(2.0 * _t_tail(_t0(t, n, b_hat), nu0)[0], PROB_FLOOR, 1.0)
    valid = (nu0 >= 1.0) & (nu0 < np.inf) & (b_hat > 0.0) & (b_hat < np.inf)
    return np.where(valid, p, np.nan)


def p_sig_closed(stat: TestStatistic, b_hat: float, nu0: float) -> float:
    """Closed-form distributional significance 2T_nu0(-|t0|).

    t0 = t / sqrt(b_hat * N) = X̄ / S0, and the degrees of freedom change
    from the within-experiment nu to the between-experiment nu0, since S0
    rather than S now carries the estimation noise.
    """
    nu0 = _check_nu0(nu0)
    b_hat = _check_b_hat(b_hat)
    return clamp_probability(float(_p_sig_closed(stat.t, stat.n, b_hat, nu0)))


def _p_sig_column(variant: str, t, n, df, b, nu0) -> np.ndarray:
    """The p_sig of a test variant (point, bound, closed or integral) over
    columns, where ``b`` is the bound for ``bound`` and b_hat otherwise;
    NaN where ``_p_sig_scalar`` raises."""
    if variant == "point":
        return _p_point(t, df)
    if variant == "bound":  # p_sig_bound takes a bound in (0, inf)
        return _p_sig_given_b(t, n, df, np.where((b > 0.0) & (b < np.inf), b, np.nan))
    if variant == "closed":
        return _p_sig_closed(t, n, b, nu0)
    return _p_sig_integral(t, n, df, b, nu0)


def _p_sig_scalar(variant: str, stat: TestStatistic, b: float, nu0: float) -> float:
    """The p_sig of a test variant for one statistic, by its public function."""
    if variant == "point":
        return p_point(stat)
    if variant == "bound":
        return p_sig_bound(stat, b)
    if variant == "closed":
        return p_sig_closed(stat, b, nu0)
    return p_sig_integral(stat, b, nu0)
