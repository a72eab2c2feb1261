"""Replication probability under the distributional model.

A replication succeeds when it reaches significance at the same level in
the same direction as the original. The kernel below is the probability
of that event given the original's t, conditional on the variance ratio
b; on top of it sit the generic bound, the F-mixture expectation, the
closed form, the most-favorable-b diagnostic, and the Killeen baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    _check_alpha, _check_b_hat, _check_df, _check_finite, _check_nu0, _critical,
    _critical_values, _checked, _estimated, _f_expectations, _Faults, _positive,
    _stationary_roots, _t_cdf, t_cdf,
)
from .errors import DomainError
from .significance import TestStatistic, _at_bound, _integral_rows, _t0

__all__ = [
    "ReplicationQuery",
    "BmaxResult",
    "p_rep_given_b",
    "p_rep_curve",
    "p_rep_bound",
    "p_rep_integral",
    "p_rep_closed",
    "b_max",
    "killeen_p_rep",
]


@dataclass(frozen=True)
class ReplicationQuery:
    """Original result plus the anticipated replication design.

    ``n_r`` is the replication sample size N_r (an effective size for
    two-group families, or its continuous analog for slope families, so
    only n_r > 0 is required), ``df_r`` its degrees of freedom, ``alpha`` the
    significance level defining success, and ``c`` the anticipated ratio
    of replication to original within-experiment variance.
    """

    stat: TestStatistic
    n_r: float
    df_r: float
    alpha: float
    c: float = 1.0

    def __post_init__(self) -> None:
        _check_df(self.n_r, "n_r")
        _check_df(self.df_r, "df_r")
        _check_alpha(self.alpha)
        _check_df(self.c, "c")


@dataclass(frozen=True)
class BmaxResult:
    """Most-favorable variance ratio for replication of a given result."""

    tau: float
    z_max: float
    b_max: float

    def __post_init__(self) -> None:
        for name in ("tau", "z_max", "b_max"):
            _check_df(getattr(self, name), name)
        if self.z_max > self.tau * (1.0 + 1e-12):
            raise DomainError(
                f"z_max={self.z_max!r} exceeds tau={self.tau!r}"
            )


@np.errstate(all="ignore")  # a NaN argument fails its callers' finiteness checks
def _kernel_argument(t_abs, b, n, n_r, t_crit, c):
    """General-c argument of the replication kernel; elementwise-safe.

    (|t|·b·√(N·N_r)/(1+bN) − t_crit·√(c(1+bN_r))) / √(c + bN_r/(1+bN));
    at c=1 this is algebraically the single-ratio form
    (|t|·b·√(N·N_r) − t_crit(1+bN)√(1+bN_r)) / √((1+bN+bN_r)(1+bN)).
    b/(1+bN) is computed as 1/(1/b + N), which stays finite where b·N
    overflows; the argument then tends to −inf, its limit as b grows.
    """
    inv_b_plus_n = np.divide(1.0, b) + n
    num = t_abs * np.sqrt(n * n_r) / inv_b_plus_n - t_crit * np.sqrt(
        c * (1.0 + b * n_r)
    )
    den = np.sqrt(c + n_r / inv_b_plus_n)
    return num / den


def p_rep_given_b(q: ReplicationQuery, b: float) -> float:
    """Replication probability at a known variance ratio b > 0."""
    return float(_checked(_p_rep_given_b(q.stat.t, q.stat.n, b, q.alpha, q.n_r, q.df_r, q.c)))


def _check_given_b(b: float, arg: float, df_r: float) -> None:
    """p_rep_given_b's checks, the last of the kernel's argument and df_r by t_cdf."""
    if not _positive(b):
        raise DomainError(
            f"b must be finite and > 0, got {b!r}; use the bound form or "
            "b_max guidance when b is unknown"
        )
    t_cdf(arg, df_r)


def _p_rep_given_b(t, n, b, alpha: float, n_r, df_r, c=1.0):
    """p_rep_given_b over columns of originals, b and replication designs at
    one alpha, and its faults."""
    b = np.asarray(b, dtype=float)
    arg = _kernel_argument(np.abs(t), b, n, n_r, _critical_values(alpha, df_r), c)
    valid = _positive(b) & np.isfinite(arg)
    p = np.where(valid, np.clip(_t_cdf(arg, df_r), 0.0, 1.0), np.nan)
    return p, _Faults(np.isnan(p), _check_given_b, b, arg, df_r)


def p_rep_curve(q: ReplicationQuery, b_values) -> np.ndarray:
    """Vectorized p_rep_given_b over an array of b > 0 (for scans/plots)."""
    bs = np.asarray(b_values, dtype=float)
    if bs.size and not np.all(bs > 0.0):
        raise DomainError("all b values must be > 0")
    t_crit = _critical(q.alpha, q.df_r)
    arg = _kernel_argument(abs(q.stat.t), bs, q.stat.n, q.n_r, t_crit, q.c)
    return np.clip(_t_cdf(arg, q.df_r), 0.0, 1.0)


def p_rep_bound(q: ReplicationQuery, bound: float) -> float:
    """Generic replication forecast: the kernel evaluated at the cap b = B.

    For b in [b_max, B] the true p_rep_given_b is at least this value
    (the kernel is unimodal in b with its peak at b_max).
    """
    return p_rep_given_b(q, _check_df(bound, "bound"))


@np.errstate(over="ignore")  # b * b_hat may overflow to its limit inf
def _rep_rule(alpha, t, n, df, b_hat, nu0, n_r, df_r, c):
    """The rule's p_rep_integral values, unclamped, and faults over columns
    whose b_hat and nu0 are checked, at one alpha."""
    t_abs, t_crit = np.abs(t), _critical_values(alpha, df_r)

    def kernel(rows: np.ndarray, b: np.ndarray, c_node: np.ndarray) -> np.ndarray:
        arg = _kernel_argument(t_abs[rows], b * b_hat[rows], n[rows], n_r[rows], t_crit[rows],
                               c[rows] * c_node)
        return _t_cdf(arg, df_r[rows])

    return _f_expectations(kernel, [
        ((d, v), (d, r)) for d, v, r in zip(df.tolist(), nu0.tolist(), df_r.tolist())
    ])


def _p_rep_integral(t, n, df, b_hat, nu0, alpha: float, n_r, df_r, c=1.0):
    """p_rep_integral over columns of originals and replication designs at
    one alpha, and its faults."""
    p, faults = _integral_rows(partial(_rep_rule, alpha), t, n, df, b_hat, nu0, n_r, df_r, c)
    return np.clip(p, 0.0, 1.0), faults


def p_rep_integral(q: ReplicationQuery, b_hat: float, nu0: float) -> float:
    """Replication probability integrated over uncertainty in b and c.

    The true ratio b is modeled as b_hat times an F(nu, nu0) factor and
    the variance ratio c as the query's c times an F(nu, df_r) factor;
    the kernel is averaged over both on the tensor grid of the certified
    fixed-node rule of ``f_expectation``:

        E[ K(b*b_hat, c_q*c) ],   b ~ F(nu, nu0),  c ~ F(nu, nu_r).
    """
    stat = q.stat
    return float(_checked(_p_rep_integral(stat.t, stat.n, stat.df, b_hat, nu0, q.alpha, q.n_r,
                                      q.df_r, q.c)))


@np.errstate(all="ignore")  # rows outside the domain are computed too
def _closed_argument(t, n, b_hat, nu0, t_crit, n_r):
    """The closed form's T_{nu_r} argument, elementwise, also on Python floats."""
    bn = np.multiply(b_hat, n)
    scale = np.sqrt(bn * n_r / (n + n_r))
    return scale * (np.abs(_t0(t, n, b_hat)) - t_crit * np.sqrt(1.0 / bn + nu0 / (nu0 - 2.0)))


def _check_closed(nu0: float, b_hat: float, arg: float, df_r: float) -> None:
    """p_rep_closed's checks, the last of the kernel's argument and df_r by t_cdf."""
    if _check_nu0(nu0) <= 2.0:
        raise DomainError(f"nu0 must be > 2 for the closed form, got {nu0!r}")
    _check_b_hat(b_hat)
    t_cdf(arg, df_r)


def _p_rep_closed(t, n, b_hat, nu0, alpha: float, n_r, df_r):
    """p_rep_closed over columns of originals and replication designs at one
    alpha, and its faults."""
    t, n, b_hat, nu0, n_r = (np.asarray(x, dtype=float) for x in (t, n, b_hat, nu0, n_r))
    arg = _closed_argument(t, n, b_hat, nu0, _critical_values(alpha, df_r), n_r)
    valid = _estimated(b_hat, nu0) & (nu0 > 2.0) & np.isfinite(arg)
    p = np.where(valid, np.clip(_t_cdf(arg, df_r), 0.0, 1.0), np.nan)
    return p, _Faults(np.isnan(p), _check_closed, nu0, b_hat, arg, df_r)


def p_rep_closed(q: ReplicationQuery, b_hat: float, nu0: float) -> float:
    """Closed-form replication probability.

    T_{nu_r}( sqrt(b̂·N·N_r/(N+N_r)) · [ |t|/sqrt(b̂N)
              − T⁻¹_{nu_r}(1−α/2)·sqrt(1/(b̂N) + nu0/(nu0−2)) ] )

    Requires nu0 > 2 (the nu0/(nu0−2) term is the mean of the inverse
    chi-square factor absorbing the uncertainty in b̂) and c = 1 (the
    regime in which the form is derived).
    """
    if q.c != 1.0:
        raise DomainError(f"c must be 1 for the closed form, got {q.c!r}")
    return float(_checked(_p_rep_closed(q.stat.t, q.stat.n, b_hat, nu0, q.alpha, q.n_r, q.df_r)))


def _p_rep_column(variant: str, t, n, df, b, nu0, alpha: float, n_r, df_r):
    """The p_rep of a forecast variant (bound, closed or integral) over
    columns of originals and replication designs at one alpha and c = 1,
    where ``b`` is the bound for ``bound`` and b_hat otherwise, and each
    faulty row's error, as the variant's public function raises it."""
    if variant == "bound":
        return _at_bound(lambda b: _p_rep_given_b(t, n, b, alpha, n_r, df_r), b)
    if variant == "closed":
        return _p_rep_closed(t, n, b, nu0, alpha, n_r, df_r)
    return _p_rep_integral(t, n, df, b, nu0, alpha, n_r, df_r)


@np.errstate(over="ignore", invalid="ignore")  # rows outside the domain
def _b_max(t, n, df, alpha: float):
    """b_max's tau, z_max and b_max over columns of t, N and df at a level
    alpha in (0, 0.5), NaN where b_max raises or t = 0, and the faults of the
    rows where t != 0: what BmaxResult raises on the row's values."""
    t, n = np.asarray(t, dtype=float), np.asarray(n, dtype=float)
    tau = np.abs(t) / _critical_values(alpha, df)
    z_max = _stationary_roots(tau)
    b = z_max / n
    valid = _positive(b) & (z_max <= tau * (1.0 + 1e-12))
    return (tuple(np.where(valid, column, np.nan) for column in (tau, z_max, b)),
            _Faults(~valid & (t != 0.0), BmaxResult, tau, z_max, b))


def b_max(stat: TestStatistic, alpha: float) -> BmaxResult:
    """Variance ratio maximizing the replication kernel for a result.

    With tau = |t| / T⁻¹_nu(1−α/2), the stationary condition in z = bN
    reduces to the quintic

        z^5 + 3z^4 + 3z^3 + (1 − 9τ²/4)z² − 3τ²z − τ² = 0,

    which factors as z²(z+1)³ − τ²(1 + 3z/2)². Its positive roots are
    those of z(z+1)^(3/2)/(1 + 3z/2) = τ, whose left side increases from 0,
    so there is exactly one, z_max, and z_max <= tau. Assumes N_r = N and
    c = 1 (the regime in which the stationary condition is derived).
    """
    alpha = _check_alpha(alpha, upper=0.5)
    if stat.t == 0.0:
        raise DomainError("b_max is undefined at t = 0")
    return BmaxResult(*map(float, _checked(_b_max(stat.t, stat.n, stat.df, alpha))))


def killeen_p_rep(effect: float, n: float) -> float:
    """Killeen-style replication baseline Phi(|d|/sqrt(2) * (1 - 4/N)).

    The bracket is non-positive for N <= 4, where the value clamps to
    Phi(0) = 0.5.
    """
    effect = _check_finite(effect, "effect")
    bracket = 1.0 - 4.0 / _check_df(n, "n")
    if bracket <= 0.0:
        return 0.5
    # Phi(x) = erfc(-x/sqrt(2))/2
    return 0.5 * math.erfc(-abs(effect) / 2.0 * bracket)
