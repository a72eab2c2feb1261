"""Type-2 error and power under point-form and distributional nulls.

Point-form power grows without bound in N; distributional power is capped
by a ceiling depending only on the standardized effect, because the test
must discount exactly the between-experiment spread that a true effect
would have to shine through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    _check_alpha, _check_at_least, _check_df, _check_finite, _critical, _noncentral_t_mass,
)
from .errors import DomainError

__all__ = [
    "PowerQuery",
    "beta_point",
    "beta_distributional",
    "power_ceiling",
    "required_sample_size",
]


@dataclass(frozen=True)
class PowerQuery:
    """Standardized effect and design for a power computation.

    ``effect`` is delta = mu/sigma for the point-form null and
    delta = mu0/sigma0 for the distributional one; ``b`` is required only
    by the distributional form.
    """

    effect: float
    n: float
    df: float
    alpha: float
    b: float | None = None

    def __post_init__(self) -> None:
        _check_finite(self.effect, "effect")
        _check_at_least(self.n, 2.0, "n")
        _check_df(self.df, "df")
        _check_alpha(self.alpha)
        if self.b is not None:
            _check_df(self.b, "b")


def _beta_at_noncentrality(theta: float, df: float, alpha: float) -> float:
    """The noncentral-t mass between the critical values, as one expectation."""
    t_crit = _critical(alpha, df)
    return _noncentral_t_mass(-t_crit, t_crit, df, theta)


def beta_point(q: PowerQuery) -> float:
    """Type-2 error of the point-form test: the noncentral-t mass between
    the critical values at noncentrality |delta|*sqrt(N)."""
    return _beta_at_noncentrality(abs(q.effect) * math.sqrt(q.n), q.df, q.alpha)


def beta_distributional(q: PowerQuery) -> float:
    """Type-2 error of the distributional test.

    The noncentrality shrinks to |delta| / sqrt(1 + 1/(bN)): even as
    N grows the test statistic's discount keeps pace, so beta floors at
    the power-ceiling complement instead of vanishing.
    """
    if q.b is None:
        raise DomainError("beta_distributional requires the variance ratio b")
    theta = abs(q.effect) / math.sqrt(1.0 + 1.0 / (q.b * q.n))
    return _beta_at_noncentrality(theta, q.df, q.alpha)


def power_ceiling(effect: float, df: float, alpha: float) -> float:
    """Maximum achievable distributional power for a standardized effect.

    1 − T_nu(t_crit; |delta|) + T_nu(−t_crit; |delta|): the bN→inf limit
    of 1 − beta_distributional. Exceeds 0.5 only when |delta| > t_crit.
    """
    effect = _check_finite(effect, "effect")
    t_crit = _critical(_check_alpha(alpha), _check_df(df, "df"))
    return _noncentral_t_mass(-t_crit, t_crit, df, abs(effect), outside=True)


def required_sample_size(effect: float, alpha: float, target_power: float) -> int:
    """Smallest N whose point-form power reaches ``target_power``.

    Uses df = N−1 (one-sample convention). Point-form power is monotone
    increasing in N for effect != 0, so a doubling search bracket plus
    bisection suffices.
    """
    effect = _check_finite(effect, "effect")
    _check_alpha(alpha)
    _check_alpha(target_power, "target_power")

    def power_at(n: int) -> float:
        return 1.0 - beta_point(
            PowerQuery(effect=effect, n=n, df=n - 1, alpha=alpha)
        )

    lo = 2
    if power_at(lo) >= target_power:
        return lo
    if effect == 0.0:
        # Power is exactly alpha for every N; only targets <= alpha are
        # reachable, and those were caught above.
        raise DomainError(
            f"no sample size reaches power {target_power} at effect 0"
        )
    hi = 4
    while power_at(hi) < target_power:
        lo = hi
        hi *= 2
        if hi > 1_000_000_000:
            raise DomainError(
                f"no sample size below 1e9 reaches power {target_power}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= target_power:
            hi = mid
        else:
            lo = mid
    return hi
