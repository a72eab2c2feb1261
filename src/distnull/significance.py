"""Significance under point-form and distributional null hypotheses.

The point-form null fixes the effect at exactly zero; the distributional
null lets the per-experiment effect wander around zero with between-
experiment variance sigma0^2 = b * sigma^2. Every distributional variant
here discounts |t| by the extra spread that wandering induces.
"""

from __future__ import annotations

import math
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    PROB_FLOOR, _at_least, _check_at_least, _check_b_hat, _check_df, _check_estimate,
    _check_finite, _checked, _estimated, _f_expectations, _Faults, _positive, _t_tail,
    clamp_probability,
)
from .errors import DistnullError, DomainError

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
        checks = {"t": _check_finite, "n": _check_df, "df": _check_df, "effect": _check_finite}
        for name, check in checks.items():
            v = getattr(self, name)
            if not isinstance(v, (int, float)):  # float() would accept the string '1.5'
                raise DomainError(f"{name} must be finite, got {v!r}")
            check(v, name)
        if abs(self.t - self.effect * math.sqrt(self.n)) > 1e-12 * max(1.0, abs(self.t)):
            raise DomainError(
                f"inconsistent statistic: t={self.t!r} but "
                f"effect*sqrt(n)={self.effect * math.sqrt(self.n)!r}"
            )

    @classmethod
    def from_t(cls, t: float, n: float, df: float) -> "TestStatistic":
        n = _check_df(n, "n")
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


def _p_point(t, df) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """p_point over columns of t and df, and its faults."""
    p = np.clip(2.0 * _t_tail(t, df)[0], PROB_FLOOR, 1.0)
    return p, _Faults(np.isnan(p), clamp_probability, p)


def p_point(stat: TestStatistic) -> float:
    """Two-sided point-form significance 2T_nu(-|t|)."""
    return float(_checked(_p_point(stat.t, stat.df)))


def p_sig_given_b(stat: TestStatistic, b: float) -> float:
    """Distributional significance at known variance ratio b = sigma0^2/sigma^2.

    2T_nu(-|t| / sqrt(1 + bN)): the between-experiment spread inflates the
    null scale of t by sqrt(1 + bN). Reduces to p_point at b = 0.
    """
    return float(_checked(_p_sig_given_b(stat.t, stat.n, stat.df, b)))


def _check_given_b(b: float, p: float) -> None:
    """p_sig_given_b's checks of b and of its value."""
    _check_at_least(b, 0.0, "b")
    clamp_probability(p)


@np.errstate(all="ignore")  # rows outside the domain are computed too
def _p_sig_given_b(t, n, df, b) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """p_sig_given_b over columns of t, N, df and b, and its faults; b * N may
    overflow to its limit inf."""
    b = np.asarray(b, dtype=float)
    x = t / np.sqrt(1.0 + np.multiply(b, n))
    p = np.where(_at_least(b, 0.0), np.clip(2.0 * _t_tail(x, df)[0], PROB_FLOOR, 1.0), np.nan)
    return p, _Faults(np.isnan(p), _check_given_b, b, p)


def p_sig_bound(stat: TestStatistic, bound: float) -> float:
    """Generic distributional significance at the variance-ratio cap B.

    If the computed value is below alpha, the result stays significant for
    every b <= B, since p_sig_given_b is increasing in b.
    """
    return p_sig_given_b(stat, _check_df(bound, "bound"))


def _at_bound(kernel, bound) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """A known-b kernel, ``kernel(b)``, at a column of bounds, with the faults
    of p_sig_bound and p_rep_bound, which first check the bound."""
    valid = _positive(bound)
    values, faults = kernel(np.where(valid, bound, np.nan))
    return values, ChainMap(_Faults(~valid, partial(_check_df, name="bound"), bound), faults)


@np.errstate(over="ignore")  # b_hat * N and b * spread may overflow to their limit inf
def _sig_rule(t, n, df, b_hat, nu0):
    """The rule's p_sig_integral values, unclamped, and faults over columns
    whose b_hat and nu0 are checked."""
    t_abs, spread = np.abs(t), b_hat * n

    def kernel(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 2.0 * _t_tail(t_abs[rows] / np.sqrt(1.0 + b * spread[rows]), df[rows])[0]

    return _f_expectations(kernel, [((d, v),) for d, v in zip(df.tolist(), nu0.tolist())])


def _integral_rows(rule, *columns) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """``rule``, _sig_rule or _rep_rule, over the rows of columns (t, N, df,
    b_hat, nu0, ...) whose b_hat and nu0 the integral forms accept: its
    values, NaN elsewhere, and every row's faults, elsewhere those of
    _check_estimate."""
    columns = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in columns))
    valid = _estimated(columns[3], columns[4])
    values = np.full(valid.shape, np.nan)
    values[valid], rule_faults = rule(*(x[valid] for x in columns))
    rows = np.flatnonzero(valid).tolist()
    domain = _Faults(~valid, _check_estimate, columns[3], columns[4])
    return values, ChainMap(domain, {rows[k]: exc for k, exc in rule_faults.items()})


def _p_sig_integral(t, n, df, b_hat, nu0) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """p_sig_integral over columns of t, N, df, b_hat and nu0, and its faults."""
    p, faults = _integral_rows(_sig_rule, t, n, df, b_hat, nu0)
    return np.clip(p, PROB_FLOOR, 1.0), faults


def p_sig_integral(stat: TestStatistic, b_hat: float, nu0: float) -> float:
    """Distributional significance integrated over the uncertainty in b-hat.

    The true ratio b is modeled as b_hat times an F-distributed factor with
    (nu, nu0) degrees of freedom; the significance is the mixture

        E[ 2 T_nu(-|t| / sqrt(1 + b * b_hat * N)) ],   b ~ F(nu, nu0),

    evaluated by the certified fixed-node rule of ``f_expectation``.
    """
    return float(_checked(_p_sig_integral(stat.t, stat.n, stat.df, b_hat, nu0)))


@np.errstate(all="ignore")  # b_hat * N may overflow (t0 -> 0) or underflow to 0
def _t0(t, n, b_hat) -> np.ndarray:
    """t0 = t / sqrt(b_hat * N) over columns whose b_hat is checked, NaN where
    b_hat is NaN; t0 = X̄/S0 is 0 at t = 0 even where b_hat * N underflows."""
    return np.where((t == 0.0) & (b_hat > 0.0), t, t / np.sqrt(b_hat * n))


def t0_statistic(stat: TestStatistic, b_hat: float) -> float:
    """Distributional t-statistic t0 = t / sqrt(b_hat * N) = X̄ / S0."""
    return float(_t0(stat.t, stat.n, _check_b_hat(b_hat)))


@np.errstate(all="ignore")  # rows outside the domain are computed too
def _p_sig_closed(t, n, b_hat, nu0) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """p_sig_closed over columns of t, N, b_hat and nu0, and its faults."""
    t, n, b_hat, nu0 = (np.asarray(x, dtype=float) for x in (t, n, b_hat, nu0))
    p = np.clip(2.0 * _t_tail(_t0(t, n, b_hat), nu0)[0], PROB_FLOOR, 1.0)
    p = np.where(_estimated(b_hat, nu0), p, np.nan)
    return p, _Faults(np.isnan(p), lambda b, v, p: (
        _check_estimate(b, v), clamp_probability(p)), b_hat, nu0, p)


def p_sig_closed(stat: TestStatistic, b_hat: float, nu0: float) -> float:
    """Closed-form distributional significance 2T_nu0(-|t0|).

    t0 = t / sqrt(b_hat * N) = X̄ / S0, and the degrees of freedom change
    from the within-experiment nu to the between-experiment nu0, since S0
    rather than S now carries the estimation noise.
    """
    return float(_checked(_p_sig_closed(stat.t, stat.n, b_hat, nu0)))


def _p_sig_column(variant: str, t, n, df, b, nu0
                  ) -> tuple[np.ndarray, Mapping[int, DistnullError]]:
    """The p_sig of a test variant (point, bound, closed or integral) over
    columns, where ``b`` is the bound for ``bound`` and b_hat otherwise, and
    each faulty row's error, as the variant's public function raises it."""
    if variant == "point":
        return _p_point(t, df)
    if variant == "bound":
        return _at_bound(lambda b: _p_sig_given_b(t, n, df, b), b)
    if variant == "closed":
        return _p_sig_closed(t, n, b, nu0)
    return _p_sig_integral(t, n, df, b, nu0)
