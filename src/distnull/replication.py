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

import numpy as np

from .distributions import (
    _check_alpha,
    _check_b_hat,
    _check_nu0,
    _critical,
    _critical_values,
    _positive_roots,
    _special,
    f_expectation,
    find_positive_root,
    t_cdf,
)
from .errors import DomainError
from .significance import TestStatistic

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
        if not (math.isfinite(self.n_r) and self.n_r > 0):
            raise DomainError(f"n_r must be finite and > 0, got {self.n_r!r}")
        if not (math.isfinite(self.df_r) and self.df_r > 0):
            raise DomainError(f"df_r must be finite and > 0, got {self.df_r!r}")
        _check_alpha(self.alpha)
        if not (math.isfinite(self.c) and self.c > 0):
            raise DomainError(f"c must be finite and > 0, got {self.c!r}")


@dataclass(frozen=True)
class BmaxResult:
    """Most-favorable variance ratio for replication of a given result."""

    tau: float
    z_max: float
    b_max: float

    def __post_init__(self) -> None:
        if not (self.tau > 0 and self.z_max > 0 and self.b_max > 0):
            raise DomainError("tau, z_max, b_max must all be > 0")
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
    b = float(b)
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(
            f"b must be finite and > 0, got {b!r}; use the bound form or "
            "b_max guidance when b is unknown"
        )
    t_crit = _critical(q.alpha, q.df_r)
    arg = _kernel_argument(abs(q.stat.t), b, q.stat.n, q.n_r, t_crit, q.c)
    return min(1.0, max(0.0, t_cdf(float(arg), q.df_r)))


def p_rep_curve(q: ReplicationQuery, b_values) -> np.ndarray:
    """Vectorized p_rep_given_b over an array of b > 0 (for scans/plots)."""
    bs = np.asarray(b_values, dtype=float)
    if bs.size and not np.all(bs > 0.0):
        raise DomainError("all b values must be > 0")
    t_crit = _critical(q.alpha, q.df_r)
    arg = _kernel_argument(abs(q.stat.t), bs, q.stat.n, q.n_r, t_crit, q.c)
    return np.clip(_special().stdtr(q.df_r, arg), 0.0, 1.0)


def p_rep_bound(q: ReplicationQuery, bound: float) -> float:
    """Generic replication forecast: the kernel evaluated at the cap b = B.

    For b in [b_max, B] the true p_rep_given_b is at least this value
    (the kernel is unimodal in b with its peak at b_max).
    """
    bound = float(bound)
    if not (math.isfinite(bound) and bound > 0.0):
        raise DomainError(f"bound must be finite and > 0, got {bound!r}")
    return p_rep_given_b(q, bound)


def p_rep_integral(q: ReplicationQuery, b_hat: float, nu0: float) -> float:
    """Replication probability integrated over uncertainty in b and c.

    The true ratio b is modeled as b_hat times an F(nu, nu0) factor and
    the variance ratio c as the query's c times an F(nu, df_r) factor;
    the kernel is averaged over both on the tensor grid of the certified
    fixed-node rule of ``f_expectation``:

        E[ K(b*b_hat, c_q*c) ],   b ~ F(nu, nu0),  c ~ F(nu, nu_r).
    """
    b_hat = _check_b_hat(b_hat)
    nu0 = _check_nu0(nu0)
    t_abs = abs(q.stat.t)
    n = q.stat.n
    n_r = q.n_r
    df_r = q.df_r
    t_crit = _critical(q.alpha, df_r)
    stdtr = _special().stdtr

    @np.errstate(over="ignore")  # b * b_hat may overflow to its limit inf
    def kernel(b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return stdtr(df_r, _kernel_argument(t_abs, b * b_hat, n, n_r, t_crit, q.c * c))

    value = f_expectation(kernel, (q.stat.df, nu0), (q.stat.df, df_r))
    return min(1.0, max(0.0, value))


@np.errstate(all="ignore")  # rows outside the domain are computed too
def _closed_argument(t, n, b_hat, nu0, t_crit, n_r):
    """The closed form's T_{nu_r} argument, elementwise, also on Python floats."""
    bn = np.multiply(b_hat, n)
    scale = np.sqrt(bn * n_r / (n + n_r))
    return scale * (np.abs(t) / np.sqrt(bn) - t_crit * np.sqrt(1.0 / bn + nu0 / (nu0 - 2.0)))


def _p_rep_closed(t, n, b_hat, nu0, alpha: float, n_r, df_r) -> np.ndarray:
    """p_rep_closed over columns of originals and replication designs at one
    alpha; NaN where p_rep_closed raises."""
    t, n, b_hat, nu0, n_r = (np.asarray(x, dtype=float) for x in (t, n, b_hat, nu0, n_r))
    arg = _closed_argument(t, n, b_hat, nu0, _critical_values(alpha, df_r), n_r)
    valid = (nu0 > 2.0) & (nu0 < np.inf) & (b_hat > 0.0) & (b_hat < np.inf) & np.isfinite(arg)
    return np.where(valid, np.clip(_special().stdtr(df_r, arg), 0.0, 1.0), np.nan)


def p_rep_closed(q: ReplicationQuery, b_hat: float, nu0: float) -> float:
    """Closed-form replication probability.

    T_{nu_r}( sqrt(b̂·N·N_r/(N+N_r)) · [ |t|/sqrt(b̂N)
              − T⁻¹_{nu_r}(1−α/2)·sqrt(1/(b̂N) + nu0/(nu0−2)) ] )

    Requires nu0 > 2 (the nu0/(nu0−2) term is the mean of the inverse
    chi-square factor absorbing the uncertainty in b̂).
    """
    nu0 = _check_nu0(nu0)
    if nu0 <= 2.0:
        raise DomainError(f"nu0 must be > 2 for the closed form, got {nu0!r}")
    b_hat = _check_b_hat(b_hat)
    t_crit = _critical(q.alpha, q.df_r)
    arg = float(_closed_argument(q.stat.t, q.stat.n, b_hat, nu0, t_crit, q.n_r))
    return min(1.0, max(0.0, t_cdf(arg, q.df_r)))


def _quintic(tau) -> list:
    """Descending coefficients of b_max's stationary quintic in z = bN at tau."""
    tau_sq = tau * tau
    return [1.0, 3.0, 3.0, 1.0 - 2.25 * tau_sq, -3.0 * tau_sq, -tau_sq]


@np.errstate(over="ignore", invalid="ignore")  # rows outside the domain
def _b_max(t, n, df, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b_max's tau, z_max and b_max over columns of t, N and df at a level
    alpha in (0, 0.5); NaN where b_max raises, which includes t = 0.

    Finite coefficients and tau^2 > 0 give a quintic its one sign change;
    those rows are solved together by _positive_roots.
    """
    t, n = np.asarray(t, dtype=float), np.asarray(n, dtype=float)
    tau = np.abs(t) / _critical_values(alpha, df)
    coeffs = np.column_stack(np.broadcast_arrays(*_quintic(tau)))
    solvable = np.isfinite(coeffs).all(axis=1) & (tau > 0.0) & (tau * tau > 0.0)
    z_max = np.full(tau.shape, np.nan)
    z_max[solvable] = _positive_roots(coeffs[solvable], tau[solvable])[0]
    b = z_max / n
    valid = (z_max > 0.0) & (b > 0.0) & (z_max <= tau * (1.0 + 1e-12))
    return tuple(np.where(valid, column, np.nan) for column in (tau, z_max, b))


def b_max(stat: TestStatistic, alpha: float) -> BmaxResult:
    """Variance ratio maximizing the replication kernel for a result.

    With tau = |t| / T⁻¹_nu(1−α/2), the stationary condition in z = bN
    reduces to the quintic

        z^5 + 3z^4 + 3z^3 + (1 − 9τ²/4)z² − 3τ²z − τ² = 0,

    which has exactly one positive root z_max by Descartes' rule, and
    z_max <= tau. Assumes N_r = N and c = 1 (the regime in which the
    stationary condition is derived).
    """
    alpha = _check_alpha(alpha, upper=0.5)
    if stat.t == 0.0:
        raise DomainError("b_max is undefined at t = 0")
    tau = abs(stat.t) / _critical(alpha, stat.df)
    z_max = find_positive_root(_quintic(tau), bracket_hint=tau)
    return BmaxResult(tau=tau, z_max=z_max, b_max=z_max / stat.n)


def killeen_p_rep(effect: float, n: float) -> float:
    """Killeen-style replication baseline Phi(|d|/sqrt(2) * (1 - 4/N)).

    The bracket is non-positive for N <= 4, where the value clamps to
    Phi(0) = 0.5.
    """
    effect = float(effect)
    n = float(n)
    if not math.isfinite(effect):
        raise DomainError(f"effect must be finite, got {effect!r}")
    if not (math.isfinite(n) and n > 0):
        raise DomainError(f"n must be finite and > 0, got {n!r}")
    bracket = 1.0 - 4.0 / n
    if bracket <= 0.0:
        return 0.5
    return float(_special().ndtr(abs(effect) / math.sqrt(2.0) * bracket))
